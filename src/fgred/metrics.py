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

wb_coefficients_info and wass_coefficients_info return these coefficients.
Their at(dev) method evaluates S_J at mu_B + dev for a batch of deviations.
It is the one evaluator of S_J: the Monte Carlo and quadrature redundancies
and the oracle tests all call it.

Redundancy of an antichain alpha is E_x min_{J in alpha} S_J(x) under the
prior, estimated by Monte Carlo (or quadrature in 1-D).

Validation happens at the boundary. The prior is a GaussianBelief, which
checked and factored Lam_B when it was built. quality_info and the coefficient
functions check each Delta (symmetric, the prior's shape) on entry and factor
Lam_B + Delta once. quality and redundancy_mc also check that each source
holds only supplemental factor indices.
"""
from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .factor_graph import SupplementedGraph
from .gauss import GaussianBelief, check_symmetric, cholesky_pd
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
class WbCoefficients:
    """Closed-form pieces of S_wb: constant mi, trace matrix M', quadratic M."""

    mi: float
    M: np.ndarray
    M_prime: np.ndarray

    def at(self, dev: np.ndarray) -> np.ndarray:
        """S_wb at mu_B + dev for each row of dev (shape (n, dim)), shape (n,)."""
        quad = np.einsum("ni,ij,nj->n", dev, self.M, dev)
        return self.mi - 0.5 * (np.trace(self.M_prime) - quad)


@dataclass(frozen=True, eq=False)
class WassCoefficients:
    """Closed-form pieces of S_wass.

    N_prime is PSD; N is not guaranteed PSD when Lam_B and Delta do not
    commute, so its smallest eigenvalue is recorded rather than enforced.
    """

    N: np.ndarray
    N_prime: np.ndarray
    n_min_eig: float

    @property
    def n_is_psd(self) -> bool:
        scale = max(1.0, float(np.abs(self.N).max()))
        return self.n_min_eig >= -1e-10 * scale

    def at(self, dev: np.ndarray) -> np.ndarray:
        """S_wass at mu_B + dev for each row of dev (shape (n, dim)), shape (n,).

        N may be indefinite, so the quadratic term is not clamped and a value
        can dip below tr(N') for some states.
        """
        quad = np.einsum("ni,ij,nj->n", dev, self.N, dev)
        return np.trace(self.N_prime) + quad


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


def _check_delta(prior: GaussianBelief, delta: np.ndarray) -> np.ndarray:
    """Delta checked symmetric and of the prior's shape, symmetrized."""
    delta = check_symmetric(delta, name="delta")
    if delta.shape != prior.info.shape:
        raise ValueError(
            f"delta has shape {delta.shape}, prior info has shape {prior.info.shape}"
        )
    return delta


def _posterior_inverse_logdet(
    prior: GaussianBelief, delta: np.ndarray
) -> tuple[np.ndarray, float]:
    """Ltilde^-1 and log det Ltilde from one Cholesky factor of Lam_B + Delta."""
    L = cholesky_pd(prior.info + delta, name="posterior info")
    inv = scipy.linalg.cho_solve((L, True), np.eye(prior.dim), check_finite=False)
    return 0.5 * (inv + inv.T), float(2.0 * np.sum(np.log(np.diagonal(L))))


def wb_coefficients_info(prior: GaussianBelief, delta: np.ndarray) -> WbCoefficients:
    """Information-quality coefficients of one source's Delta over the prior."""
    delta = _check_delta(prior, delta)
    inv_post, logdet_post = _posterior_inverse_logdet(prior, delta)
    lam_b = prior.info
    mi = max(0.5 * (logdet_post - prior.logdet_info()), 0.0)
    M = lam_b - lam_b @ inv_post @ lam_b
    Mp = delta @ inv_post
    return WbCoefficients(
        mi=mi, M=0.5 * (M + M.T), M_prime=0.5 * (Mp + Mp.T)
    )


def wass_coefficients_info(prior: GaussianBelief, delta: np.ndarray) -> WassCoefficients:
    """Wasserstein-quality coefficients of one source's Delta over the prior."""
    delta = _check_delta(prior, delta)
    inv_post, _ = _posterior_inverse_logdet(prior, delta)
    lam_b = prior.info
    Np = prior.cov() - inv_post - inv_post @ delta @ inv_post
    N = np.eye(prior.dim) - lam_b @ inv_post @ inv_post @ lam_b
    N = 0.5 * (N + N.T)
    min_eig = float(np.linalg.eigvalsh(N).min())
    coeffs = WassCoefficients(N=N, N_prime=0.5 * (Np + Np.T), n_min_eig=min_eig)
    if not coeffs.n_is_psd:
        # Legal: N is indefinite for some non-commuting (Lam_B, Delta) pairs.
        logger.debug("Wasserstein N matrix not PSD: min eigenvalue %.3e", min_eig)
    return coeffs


def _specific_values(
    kind: QualityKind,
    prior: GaussianBelief,
    deltas: Sequence[np.ndarray],
    dev: np.ndarray,
) -> np.ndarray:
    """S_J at states mu_B +/- dev, shape (n_sources, n) for dev of shape (n, dim)."""
    # Looked up per call, so a wrapper installed on the module sees each call.
    coefficients = wb_coefficients_info if kind is QualityKind.WB else wass_coefficients_info
    return np.vstack([coefficients(prior, delta).at(dev) for delta in deltas])


def quality_info(prior: GaussianBelief, delta: np.ndarray, kind: QualityKind) -> float:
    """Source quality Q(J): the prior-average of the specific quality.

    WB gives the mutual information; WASS gives 2 tr(Lam_B^-1 - Ltilde^-1).
    Both are >= 0 and monotone under adding factors to J.
    """
    kind = QualityKind.parse(kind)
    inv_post, logdet_post = _posterior_inverse_logdet(prior, _check_delta(prior, delta))
    if kind is QualityKind.WB:
        return max(0.5 * (logdet_post - prior.logdet_info()), 0.0)
    return max(2.0 * float(np.trace(prior.cov()) - np.trace(inv_post)), 0.0)


def redundancy_mc_info(
    prior: GaussianBelief,
    deltas: Sequence[np.ndarray],
    kind: QualityKind,
    n_samples: int = 10_000,
    rng_seed=0,
) -> RedundancyEstimate:
    """Monte Carlo estimate of E_x min_i S_i(x) with x ~ prior.

    One source's delta per antichain element. Deterministic for a fixed seed;
    the standard error is the sample standard deviation over sqrt(n_samples).
    """
    kind = QualityKind.parse(kind)
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if not deltas:
        raise ValueError("need at least one source delta")
    rng = np.random.default_rng(rng_seed)
    X = prior.sample(rng, n_samples)
    vals = _specific_values(kind, prior, deltas, X - prior.mean[None, :])
    mins = vals.min(axis=0)
    which = vals.argmin(axis=0)
    counts = np.bincount(which, minlength=len(deltas))
    return RedundancyEstimate(
        value=float(mins.mean()),
        std_error=float(mins.std(ddof=1) / np.sqrt(n_samples)),
        n_samples=int(n_samples),
        kind=kind,
        argmin_counts=tuple(int(c) for c in counts),
    )


def redundancy_quadrature_1d_info(
    prior: GaussianBelief,
    deltas: Sequence[np.ndarray],
    kind: QualityKind,
) -> float:
    """Adaptive-quadrature redundancy for 1-D states (reference oracle).

    Integrates min_J S_J(x) against the prior density over mu +/- 15 sigma,
    passing the crossing points of the quadratic pieces as breakpoints.
    """
    from scipy import integrate  # only this oracle needs it; slow to import

    kind = QualityKind.parse(kind)
    if prior.dim != 1:
        raise ValueError("quadrature reference only supports 1-D states")
    if not deltas:
        raise ValueError("need at least one source delta")
    # In 1-D, S_J(x) = a_J + b_J t^2 with t = x - mu: read off at t = 0 and 1.
    vals = _specific_values(kind, prior, deltas, np.array([[0.0], [1.0]]))
    a = vals[:, 0]
    b = vals[:, 1] - vals[:, 0]
    mu = float(prior.mean[0])
    sigma = 1.0 / np.sqrt(float(prior.info[0, 0]))
    lo, hi = mu - 15.0 * sigma, mu + 15.0 * sigma

    # Pieces intersect where (a_i - a_j) + (b_i - b_j) t^2 = 0.
    points = []
    for i in range(len(deltas)):
        for j in range(i + 1, len(deltas)):
            da = a[i] - a[j]
            db = b[i] - b[j]
            if abs(db) > 1e-300:
                t2 = -da / db
                if t2 > 0:
                    t = float(np.sqrt(t2))
                    for cand in (mu - t, mu + t):
                        if lo < cand < hi:
                            points.append(cand)

    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))

    def integrand(x: float) -> float:
        t2 = (x - mu) ** 2
        s = (a + b * t2).min()
        return s * norm * np.exp(-0.5 * t2 / sigma**2)

    val, _ = integrate.quad(
        integrand, lo, hi, points=sorted(set(points)) or None,
        epsabs=1e-9, epsrel=1e-9, limit=400,
    )
    return float(val)


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
        deltas.append(graph.stack_subgraph(idx).delta)
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
