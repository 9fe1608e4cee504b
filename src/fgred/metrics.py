"""Specific-quality functions and redundancy estimators.

Two pointwise qualities are supported, both closed-form for linear Gaussian
factor graphs. For a source J with information increment Delta_J over a prior
(mu_B, Lam_B), write Ltilde = Lam_B + Delta_J.

Information quality (specific information):

    S_wb(x) = I(Z_J; X) - 0.5 [tr(M') - ||x - mu_B||^2_M]
    M  = Lam_B - Lam_B Ltilde^-1 Lam_B          (PSD)
    M' = Delta_J Ltilde^-1                       (only its trace is used)

which averages to the mutual information under x ~ prior.

Wasserstein quality (expected reduction of squared estimation error):

    S_wass(x) = tr(N') + ||mu_B - x||^2_N
    N' = Lam_B^-1 - Ltilde^-1 - Ltilde^-1 Delta_J Ltilde^-1   (PSD)
    N  = I - Lam_B Ltilde^-2 Lam_B               (may be indefinite)

which averages to Q_wass = 2 tr(Lam_B^-1 - Ltilde^-1), twice the trace drop
of the covariance.

Every specific quality is one SpecificQuality: S_J(mu_B + dev) = c_J +
dev^T W_J dev with its quality Q_J (WB: c = mi - 0.5 tr M', W = 0.5 M;
WASS: c = tr N', W = N), which wb_coefficients_info and
wass_coefficients_info return. Its at(dev) is the one evaluator of S_J.
With Lam_B = L L^T and x = mu_B + L^-T z, z ~ N(0, I), S_J = c_J + z^T
prior.whiten(W_J) z: the Monte Carlo redundancy scores standard-normal draws
with the whitened form, and the exact one whitens W_a - W_b. Scoring n draws
Z (n, dim) is one matrix product per source, whiten(W_J) Z^T, whose
columnwise dot with Z^T gives the n quadratic forms.

Redundancy of an antichain alpha is E_x min_{J in alpha} S_J(x) under the
prior. redundancy_pair_info evaluates it exactly for two sources;
redundancy_mc_info estimates it by Monte Carlo for any number.

Validation happens at the boundary. The prior is a GaussianBelief, which
checked and factored Lam_B when it was built. The coefficient functions check
each Delta (symmetric, the prior's shape) on entry and build the posterior
GaussianBelief (mu_B, Lam_B + Delta) with the one constructor; its cov() and
logdet_info() give Ltilde^-1 and log det Ltilde from its one factor;
quality_info reads only the quality, through the same private helper as
the coefficient functions.
One posterior per source serves both kinds: the study scores a block of
two-source systems with `_pair_scores`, which reads each source's WB and
WASS forms from one posterior, stacks the block's products, spectra and
Imhof evaluations, and gives each system the bits of redundancy_pair_info
and quality_info on its own.
quality and redundancy_mc also check that each source holds only
supplemental factor indices. redundancy_mc_info and quality_info run on one
BLAS thread (gauss._one_blas_thread): the matrices are too small for a
second thread to pay for waking it.
"""
from __future__ import annotations

import enum
import functools
import logging
import numbers
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .factor_graph import SupplementedGraph
from .gauss import GaussianBelief, _one_blas_thread, check_symmetric
from .lattice import Antichain

logger = logging.getLogger(__name__)


class QualityKind(enum.Enum):
    """Which specific-quality function a metric uses."""

    WB = "wb"
    WASS = "wass"

    @classmethod
    def parse(cls, text) -> "QualityKind":
        if isinstance(text, cls):
            return text
        try:
            return cls(str(text).lower())
        except ValueError:
            raise ValueError(f"unknown quality kind {text!r}; use 'wb' or 'wass'")


@dataclass(frozen=True, eq=False)
class SpecificQuality:
    """One source's specific quality S_J(mu_B + dev) = c + dev^T W dev.

    quality is Q_J, the prior average of S_J. W is not guaranteed PSD (the
    WASS W = N is indefinite when Lam_B and Delta do not commute), so its
    smallest eigenvalue is reported, computed on first use, rather than
    enforced, and S_J can dip below c for some states.
    """

    c: float
    W: np.ndarray
    quality: float

    @functools.cached_property
    def w_min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.W).min())

    def at(self, dev: np.ndarray) -> np.ndarray:
        """S_J at mu_B + dev for each row of dev (shape (n, dim)), shape (n,).

        One matrix product W dev^T, multiplied in place by dev^T and summed
        down its columns. Any layout of dev is accepted, C- or F-ordered; an
        F-ordered dev, such as the transpose of a (dim, n) array of draws,
        gives the product a C-contiguous operand at no copy.
        """
        dev_t = np.asarray(dev, dtype=float).T
        prod = self.W @ dev_t
        prod *= dev_t
        return self.c + prod.sum(axis=0)


@dataclass(frozen=True)
class RedundancyEstimate:
    """Monte Carlo redundancy estimate with its standard error.

    argmin_counts[i] is how often source i achieved the pointwise minimum
    (ties go to the first, so counts sum to n_samples).
    """

    value: float
    std_error: float
    n_samples: int
    kind: QualityKind
    argmin_counts: tuple[int, ...]


def _posterior(prior: GaussianBelief, delta: np.ndarray) -> tuple[np.ndarray, GaussianBelief]:
    """Delta checked symmetric and of the prior's shape, and the posterior.

    The posterior is the GaussianBelief (mu_B, Lam_B + Delta), which
    checks and factors Ltilde once; its cov() is Ltilde^-1.
    """
    delta = check_symmetric(delta, name="delta")
    if delta.shape != prior.info.shape:
        raise ValueError(
            f"delta has shape {delta.shape}, prior info has shape {prior.info.shape}"
        )
    return delta, GaussianBelief(prior.mean, prior.info + delta)


def _quality(kind: QualityKind, prior: GaussianBelief, post: GaussianBelief) -> float:
    """Q_J of the kind from the prior and the posterior of _posterior."""
    if kind is QualityKind.WB:
        return max(0.5 * (post.logdet_info() - prior.logdet_info()), 0.0)
    return max(2.0 * float(np.trace(prior.cov()) - np.trace(post.cov())), 0.0)


def _specific_qualities(
    priors: Sequence[GaussianBelief], deltas: Sequence[np.ndarray], kinds: Sequence[QualityKind]
) -> dict[QualityKind, list[SpecificQuality]]:
    """Each kind's specific quality of each source i, deltas[i] over priors[i].

    One posterior per source serves every kind asked for. The sources share
    one dimension, and their matrix products are stacked (one matmul per
    product for all of them), which gives each source the bits of its own
    2-D products; a WB form needs Lam_B Ltilde^-1 Lam_B and tr(Delta
    Ltilde^-1), a WASS form Lam_B Ltilde^-2 Lam_B and Ltilde^-1 Delta
    Ltilde^-1, and the two share Lam_B Ltilde^-1.
    """
    n = priors[0].dim
    delta, inv_post = np.empty((len(deltas), n, n)), np.empty((len(deltas), n, n))
    quality = {kind: [] for kind in kinds}
    for i, (prior, d) in enumerate(zip(priors, deltas)):
        delta[i], post = _posterior(prior, d)
        inv_post[i] = post.cov()
        for kind in kinds:
            quality[kind].append(_quality(kind, prior, post))
    c = {}
    if QualityKind.WB in kinds:
        trace = np.trace(delta @ inv_post, axis1=1, axis2=2)
        c[QualityKind.WB] = [mi - 0.5 * float(tr) for mi, tr in zip(quality[QualityKind.WB], trace)]
    if QualityKind.WASS in kinds:
        # tr N' from the diagonals of N' = Lam_B^-1 - Ltilde^-1 - Ltilde^-1 Delta Ltilde^-1
        diagonal = np.array([prior.cov().diagonal() for prior in priors])
        diagonal -= inv_post.diagonal(0, 1, 2)
        diagonal -= (inv_post @ delta @ inv_post).diagonal(0, 1, 2)
        c[QualityKind.WASS] = [float(tr) for tr in diagonal.sum(axis=1)]
    del delta  # a block's stacks run to megabytes: free each one when done
    lam_b = np.array([prior.info for prior in priors])
    lam_inv = lam_b @ inv_post
    out = {}
    for kind in kinds:
        if kind is QualityKind.WB:  # W = (M + M^T) / 4, M = Lam_B - Lam_B Ltilde^-1 Lam_B
            A, half = lam_inv @ lam_b, 0.25
            np.subtract(lam_b, A, out=A)
        else:  # W = (N + N^T) / 2, N = I - Lam_B Ltilde^-2 Lam_B
            A, half = lam_inv @ inv_post @ lam_b, 0.5
            np.subtract(np.eye(n), A, out=A)
        W = A + A.swapaxes(1, 2)
        del A
        W *= half
        out[kind] = [
            SpecificQuality(c=ci, W=w, quality=q) for ci, w, q in zip(c[kind], W, quality[kind])
        ]
    if QualityKind.WASS in kinds and logger.isEnabledFor(logging.DEBUG):
        for sq in out[QualityKind.WASS]:
            scale = max(1.0, float(np.abs(sq.W).max()))
            if sq.w_min_eig < -1e-10 * scale:
                # Legal: N is indefinite for some non-commuting (Lam_B, Delta) pairs.
                logger.debug("Wasserstein N matrix not PSD: min eigenvalue %.3e", sq.w_min_eig)
    return out


def wb_coefficients_info(prior: GaussianBelief, delta: np.ndarray) -> SpecificQuality:
    """Information quality of one source's Delta over the prior."""
    return _specific_qualities([prior], [delta], [QualityKind.WB])[QualityKind.WB][0]


def wass_coefficients_info(prior: GaussianBelief, delta: np.ndarray) -> SpecificQuality:
    """Wasserstein quality of one source's Delta over the prior."""
    return _specific_qualities([prior], [delta], [QualityKind.WASS])[QualityKind.WASS][0]


def _coefficients(kind: QualityKind, prior: GaussianBelief, delta: np.ndarray) -> SpecificQuality:
    """The kind's specific quality of one source."""
    # Looked up per call, so a wrapper installed on the module sees each call.
    if kind is QualityKind.WB:
        return wb_coefficients_info(prior, delta)
    return wass_coefficients_info(prior, delta)


def quality_info(prior: GaussianBelief, delta: np.ndarray, kind: QualityKind) -> float:
    """Source quality Q(J): the prior-average of the specific quality.

    WB gives the mutual information; WASS gives 2 tr(Lam_B^-1 - Ltilde^-1).
    Both are >= 0 and monotone under adding factors to J. It is the quality
    of the kind's SpecificQuality, bit for bit, without forming W or c. Runs
    on one BLAS thread (gauss._one_blas_thread).
    """
    kind = QualityKind.parse(kind)
    with _one_blas_thread:
        return _quality(kind, prior, _posterior(prior, delta)[1])


def redundancy_mc_info(
    prior: GaussianBelief,
    deltas: Sequence[np.ndarray],
    kind: QualityKind,
    n_samples: int = 10_000,
    rng_seed=0,
) -> RedundancyEstimate:
    """Monte Carlo estimate of E_x min_i S_i(x) with x ~ prior.

    One source's delta per antichain element. Each draw is a standard normal
    z, standing for the state x = mu_B + L^-T z that GaussianBelief.sample
    draws from the same generator, and each source is scored at z with its W
    whitened by the prior, one matrix product per source. Deterministic for
    a fixed seed; the standard error is the sample standard deviation over
    sqrt(n_samples). Runs on one BLAS thread (gauss._one_blas_thread).
    """
    kind = QualityKind.parse(kind)
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if not deltas:
        raise ValueError("need at least one source delta")
    with _one_blas_thread:
        rng = np.random.default_rng(rng_seed)
        Z = rng.standard_normal((prior.dim, n_samples)).T
        sqs = [_coefficients(kind, prior, delta) for delta in deltas]
        vals = np.vstack([replace(sq, W=prior.whiten(sq.W)).at(Z) for sq in sqs])
        mins = vals.min(axis=0)
        counts = np.bincount(vals.argmin(axis=0), minlength=len(deltas))
        return RedundancyEstimate(
            value=float(mins.mean()),
            std_error=float(mins.std(ddof=1) / np.sqrt(n_samples)),
            n_samples=int(n_samples),
            kind=kind,
            argmin_counts=tuple(int(c) for c in counts),
        )


# Imhof's rule (_expected_abs): Gauss-Legendre nodes per panel, the most the
# phase may turn across a panel, the dropped tail's bound relative to
# sqrt(E D^2), and the budget of nodes times eigenvalues.
_IMHOF_NODES = 20
_IMHOF_MAX_TURN = 32.0
_IMHOF_TAIL_TOL = 1e-12
_IMHOF_BUDGET = 400_000


@functools.cache
def _legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _expected_abs(c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """E|D_k| for D_k = c_k + sum_i lam_ki z_i^2 with z ~ N(0, I), for each row k.

    c has shape (k,) and lam (k, n). Imhof (1961), Davies (1980): E|D| =
    (2/pi) int_0^inf (1 - Re phi_D(u)) / u^2 du with Re phi_D = rho cos theta,
    rho = prod_i (1 + 4 u^2 lam_i^2)^(-1/4), theta = c u + 1/2 sum_i
    arctan(2 u lam_i); 1 - rho cos theta is summed as (1 - rho) + 2 rho
    sin^2(theta / 2), which does not cancel near u = 0. u = s tan t, s = 1 /
    sqrt(E D^2). Panels are t in (0, pi/4) and then one per octave of u, up
    to the first U where the dropped tail int_U^inf rho cos theta / u^2 du
    (at most rho / U, about rho / U * 2 / (|c| U) once theta turns at rate c)
    is below _IMHOF_TAIL_TOL / s; the rest adds 1 / U. A panel across which
    theta may turn by more than _IMHOF_MAX_TURN is split evenly in u, so
    dominated pairs (|c| large against |lam|) stay resolved.

    The rows are evaluated together: each step is elementwise or reduces
    within one row, the nodes of all rows are evaluated in blocks of 128,
    and each row's integral is its own dot product, so a row's value has the
    same bits in any stack. A row out of reach of _IMHOF_BUDGET raises.
    """
    m = c + lam.sum(axis=1)
    out = np.abs(m)
    same_sign = ((c >= 0.0) & (lam.min(axis=1) >= 0.0)) | ((c <= 0.0) & (lam.max(axis=1) <= 0.0))
    todo = np.flatnonzero(~same_sign)  # where D changes sign
    # E|D| = |m| + 2 E[F^+] for F = -sign(m) D, and F^+ <= exp(t F - 1) / t
    # for 0 < t < 1 / (2 max |lam|): where that is negligible, so is E[F^+].
    c, lam, m = c[todo], lam[todo], m[todo]
    sign = np.where(m >= 0.0, 1.0, -1.0)
    t = np.linspace(0.02, 0.98, 49) / (2.0 * np.abs(lam).max(axis=1))[:, None]
    x = t[:, :, None] * lam[:, None, :]
    x *= (2.0 * sign)[:, None, None]
    log_mgf = (-sign * c)[:, None] * t - 0.5 * np.log1p(x, out=x).sum(2)
    far = ~((log_mgf - 1.0 - np.log(t)).min(axis=1) <= np.log(_IMHOF_TAIL_TOL * np.abs(m)))
    todo, c, lam, m = todo[far], c[far], lam[far], m[far]
    if not todo.size:
        return out
    s = 1.0 / np.sqrt(m * m + 2.0 * (lam[:, None, :] @ lam[:, :, None])[:, 0, 0])
    u_edges = s[:, None] * np.tan(np.r_[0.0, 0.5 * np.pi - 0.25 * np.pi * 0.5 ** np.arange(40)])
    x = u_edges[:, :, None] * lam[:, None, :]
    x *= 2.0
    phase_steps = np.diff(np.arctan(x), axis=1)
    turn = np.abs(c)[:, None] * np.diff(u_edges) + 0.5 * np.abs(phase_steps, out=phase_steps).sum(2)
    u_pos = np.maximum(u_edges, s[:, None])
    log_tail = -0.25 * np.log1p(np.square(x, out=x), out=x).sum(2) - np.log(
        u_pos / s[:, None] * np.fmax(1.0, np.abs(c)[:, None] * u_pos / 2)
    )
    last = np.argmax(log_tail <= np.log(_IMHOF_TAIL_TOL), axis=1)
    kept = np.arange(turn.shape[1]) < last[:, None]  # each row's panels below its U
    splits = np.where(kept, np.maximum(np.ceil(turn / _IMHOF_MAX_TURN), 1), 0).astype(int)
    pieces_per_row = splits.sum(axis=1)
    out_of_reach = (last == 0) | (pieces_per_row * _IMHOF_NODES * lam.shape[1] > _IMHOF_BUDGET)
    if out_of_reach.any():
        i = int(np.argmax(out_of_reach))
        max_lam = np.abs(lam[i]).max()
        raise ValueError(f"E|D| out of reach: c = {c[i]:.3e}, max |lam| = {max_lam:.3e}")
    # np.linspace(a, b, k, endpoint=False) of every panel at once, in its own form j * step + a
    splits = splits[kept]
    j = np.arange(splits.sum()) - np.repeat(np.cumsum(splits) - splits, splits)
    step = np.repeat(np.diff(u_edges)[kept] / splits, splits)
    lower = j * step + np.repeat(u_edges[:, :-1][kept], splits)
    # a piece ends where the next one starts, and each row's last piece at its U
    u_max = u_edges[np.arange(todo.size), last]
    upper = np.append(lower[1:], 0.0)
    upper[np.cumsum(pieces_per_row) - 1] = u_max
    row = np.repeat(np.arange(todo.size), pieces_per_row)
    t_lower = np.arctan(lower / s[row])
    width = (np.arctan(upper / s[row]) - t_lower)[:, None]
    nodes, weights = _legendre_01(_IMHOF_NODES)
    t = (t_lower[:, None] + width * nodes).ravel()
    row = np.repeat(row, _IMHOF_NODES)
    u = s[row] * np.tan(t)
    log_rho, half_theta = np.empty_like(u), (0.5 * c)[row] * u
    for i in range(0, u.size, 128):  # blocks of nodes keep the work arrays small
        x = 2.0 * (u[i : i + 128, None] * lam[row[i : i + 128]])
        half_theta[i : i + 128] += 0.25 * np.arctan(x).sum(1)
        log_rho[i : i + 128] = -0.25 * np.log1p(np.square(x, out=x), out=x).sum(1)
    f = -np.expm1(log_rho) + 2.0 * np.exp(log_rho) * np.sin(half_theta) ** 2
    bounds = np.cumsum(_IMHOF_NODES * pieces_per_row)[:-1]  # each row's own dot product
    terms = np.split(f / (s[row] * np.sin(t) ** 2), bounds)
    integral = [w @ g for w, g in zip(np.split((width * weights).ravel(), bounds), terms)]
    out[todo] = 2.0 / np.pi * (np.array(integral) + 1.0 / u_max)
    return out


def redundancy_pair_info(
    prior: GaussianBelief, deltas: Sequence[np.ndarray], kind: QualityKind
) -> float:
    """Exact redundancy E_x min(S_a, S_b) of two sources with x ~ prior.

    With Lam_B = L L^T and x = mu_B + L^-T z, z ~ N(0, I), S_J = c_J +
    z^T L^-1 W_J L^-T z, so D = S_a - S_b = c + sum_i lam_i z_i^2, lam the
    eigenvalues of prior.whiten(W_a - W_b). Then
    min(S_a, S_b) = S_a - D^+ and E[D^+] = (E D + E|D|) / 2 (_expected_abs).
    Source a has the smaller quality (its SpecificQuality's, bit for bit
    quality_info's), and Q_a - max(E[D^+], 0) never exceeds min(Q_a, Q_b),
    not even by rounding. It has no sampling error. It is the one-pair case
    of `_pair_redundancies`.
    """
    kind = QualityKind.parse(kind)
    if len(deltas) != 2:
        raise ValueError(f"need exactly two source deltas, got {len(deltas)}")
    sqs = [_coefficients(kind, prior, delta) for delta in deltas]
    return float(_pair_redundancies([prior], [sqs])[0])


def _pair_redundancies(
    priors: Sequence[GaussianBelief], pairs: Sequence[Sequence[SpecificQuality]]
) -> np.ndarray:
    """redundancy_pair_info of each pair of specific qualities over its prior.

    The pairs' whitened differences, of one dimension, share one stacked
    eigvalsh and their E|D| one `_expected_abs` call.
    """
    pairs = [sqs[::-1] if sqs[1].quality < sqs[0].quality else sqs for sqs in pairs]  # Q_a <= Q_b
    lam = np.linalg.eigvalsh(np.array([p.whiten(a.W - b.W) for p, (a, b) in zip(priors, pairs)]))
    c = np.array([a.c - b.c for a, b in pairs])
    positive_part = 0.5 * (c + lam.sum(axis=1) + _expected_abs(c, lam))
    return np.array([a.quality for a, _ in pairs]) - np.maximum(positive_part, 0.0)


def _pair_scores(
    priors: Sequence[GaussianBelief], delta_pairs: Sequence[Sequence[np.ndarray]]
) -> dict[QualityKind, tuple[np.ndarray, np.ndarray]]:
    """Each kind's exact redundancy (k,) and source qualities (k, 2) of k two-source systems.

    System i is delta_pairs[i] over priors[i]. Each source has one
    posterior, which both kinds read (`_specific_qualities`), and the pairs
    of both kinds share one `_pair_redundancies` call. Each value has the
    bits of redundancy_pair_info and quality_info on its own system.
    """
    kinds = list(QualityKind)
    sources = [delta for pair in delta_pairs for delta in pair]
    forms = _specific_qualities([prior for prior in priors for _ in (0, 1)], sources, kinds)
    pairs = [pair for kind in kinds for pair in zip(forms[kind][0::2], forms[kind][1::2])]
    redundancy = _pair_redundancies(list(priors) * len(kinds), pairs).reshape(len(kinds), -1)
    qualities = np.array([[a.quality, b.quality] for a, b in pairs]).reshape(len(kinds), -1, 2)
    return {kind: (r, q) for kind, r, q in zip(kinds, redundancy, qualities)}


def _graph_deltas(
    graph: SupplementedGraph, sources: Iterable[Iterable[int]]
) -> list[np.ndarray]:
    """Delta_J of each source J, which must hold supplemental indices only."""
    supp = set(graph.supplemental)
    deltas = []
    for src in sources:
        idx = sorted({int(j) for j in src})
        bad = [j for j in idx if j not in supp]
        if bad:
            raise ValueError(
                f"source {idx} contains non-supplemental factor indices {bad}"
            )
        deltas.append(graph.stack_subgraph(idx))
    return deltas


def quality(graph: SupplementedGraph, J: Iterable[int], kind: QualityKind) -> float:
    """Quality of the supplemental factor set J over the graph's prior."""
    return quality_info(graph.prior_belief(), _graph_deltas(graph, [J])[0], kind)


def redundancy_mc(
    graph: SupplementedGraph,
    alpha: Antichain,
    kind: QualityKind,
    n_samples: int = 10_000,
    rng_seed=0,
) -> RedundancyEstimate:
    """Monte Carlo redundancy of an antichain of supplemental index sets."""
    return redundancy_mc_info(
        graph.prior_belief(), _graph_deltas(graph, alpha.sources), kind, n_samples, rng_seed
    )
