"""Reference computations the benchmark checks fgred's outputs against.

Each oracle is written from the formulas, with plain numpy and scipy calls,
and shares no code with fgred. The tests in test_oracles.py pin every oracle
to hand-made cases, and run.py runs those tests before it measures anything.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from scipy import stats

# Probability, per run, that any of the run's statistical comparisons fails
# by chance on correct code. The z-gate of each comparison is set from it by
# a Bonferroni bound over the number of comparisons made in the run.
FAMILY_FALSE_ALARM = 1e-5


def qualities(lam_b: np.ndarray, delta: np.ndarray) -> tuple[float, float]:
    """(Q_wb, Q_wass) = (1/2 log det(L+D)/det L, 2 tr(L^-1 - (L+D)^-1))."""
    sign_b, logdet_b = np.linalg.slogdet(lam_b)
    sign_p, logdet_p = np.linalg.slogdet(lam_b + delta)
    if sign_b <= 0 or sign_p <= 0:
        raise ValueError("prior and posterior information must be PD")
    q_wb = 0.5 * (logdet_p - logdet_b)
    q_wass = 2.0 * float(np.trace(np.linalg.inv(lam_b) - np.linalg.inv(lam_b + delta)))
    return float(q_wb), q_wass


def specific_quality_terms(lam_b: np.ndarray, delta: np.ndarray, kind: str):
    """(c, W) with S(x) = c + (x - mu_B)' W (x - mu_B) for one source.

    WB:   c = Q_wb - 1/2 tr(D (L+D)^-1),   W = 1/2 (L - L (L+D)^-1 L)
    WASS: c = tr(L^-1 - P - P D P),        W = I - L P P L,  P = (L+D)^-1
    """
    post = np.linalg.inv(lam_b + delta)
    if kind == "wb":
        q_wb, _ = qualities(lam_b, delta)
        return q_wb - 0.5 * float(np.trace(delta @ post)), 0.5 * (lam_b - lam_b @ post @ lam_b)
    if kind == "wass":
        c = float(np.trace(np.linalg.inv(lam_b) - post - post @ delta @ post))
        return c, np.eye(lam_b.shape[0]) - lam_b @ post @ post @ lam_b
    raise ValueError(f"unknown kind {kind!r}")


def redundancy_reference(
    lam_b: np.ndarray,
    deltas: list[np.ndarray],
    kind: str,
    n_samples: int,
    seed,
) -> dict:
    """Plain Monte Carlo estimate of E min_J S_J(x), x ~ N(mu_B, lam_b^-1).

    S_J depends on x only through x - mu_B, so the draws are of x - mu_B.

    Returns the estimate, its standard error, and the sample standard
    deviation and (non-excess) kurtosis of min_J S_J, so callers can also
    bound the standard error plain Monte Carlo has at another sample count.
    """
    rng = np.random.default_rng(seed)
    cov = np.linalg.inv(lam_b)
    chol = np.linalg.cholesky(0.5 * (cov + cov.T))
    dev = rng.standard_normal((n_samples, lam_b.shape[0])) @ chol.T
    mins = None
    for delta in deltas:
        c, W = specific_quality_terms(lam_b, delta, kind)
        vals = c + np.einsum("ni,ni->n", dev @ W, dev)
        mins = vals if mins is None else np.minimum(mins, vals)
    sd = float(mins.std(ddof=1))
    return {
        "value": float(mins.mean()),
        "std_error": sd / math.sqrt(n_samples),
        "sd": sd,
        "kurtosis": float(stats.kurtosis(mins, fisher=False)),
    }


def se_difference_spread(sd: float, kurtosis: float, n: int, n_ref: int) -> float:
    """Standard error of sd/sqrt(n) estimated from n draws minus from n_ref draws.

    A sample standard deviation over n draws has relative spread about
    sqrt((kurtosis - 1) / (4 n)).
    """
    rel = math.sqrt(max(kurtosis - 1.0, 0.0) / 4.0 * (1.0 / n + 1.0 / n_ref))
    return sd / math.sqrt(n) * rel


def procrustes_sq_errors(truth: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Per-point squared errors after the best planar rotation + translation.

    The rotation angle is atan2 of the summed cross and dot products of the
    centred point sets, the closed-form 2-D Procrustes solution.
    """
    t_c = truth - truth.mean(axis=0)
    e_c = estimate - estimate.mean(axis=0)
    cross = float(np.sum(e_c[:, 0] * t_c[:, 1] - e_c[:, 1] * t_c[:, 0]))
    dot = float(np.sum(e_c[:, 0] * t_c[:, 0] + e_c[:, 1] * t_c[:, 1]))
    theta = math.atan2(cross, dot)
    c, s = math.cos(theta), math.sin(theta)
    rotated = np.column_stack([c * e_c[:, 0] - s * e_c[:, 1], s * e_c[:, 0] + c * e_c[:, 1]])
    return np.sum((t_c - rotated) ** 2, axis=1)


def worst_case_ate(truth: np.ndarray, estimates: list[np.ndarray]) -> tuple[float, list[float]]:
    """(WC-ATE, per-estimate ATE): per-point max over estimates, summed."""
    per = np.stack([procrustes_sq_errors(truth, e) for e in estimates])
    return float(per.max(axis=0).sum()), [float(row.sum()) for row in per]


def stationarity(residual_fn, x0: np.ndarray, step: float = 1e-6) -> float:
    """|P_J r| at x0 for a whitened residual r(x), J by central differences.

    P_J projects onto the column space of the Jacobian, so P_J r is what one
    more Gauss-Newton step would remove from r. The gradient of the cost
    1/2 |r|^2 is J' r, which vanishes exactly when P_J r does. Whitened
    residuals are in units of measurement standard deviations, so the result
    is too.
    """
    r0 = residual_fn(x0)
    jac = np.empty((r0.shape[0], x0.shape[0]))
    for i in range(x0.shape[0]):
        e = np.zeros_like(x0)
        e[i] = step
        jac[:, i] = (residual_fn(x0 + e) - residual_fn(x0 - e)) / (2.0 * step)
    coef, *_ = np.linalg.lstsq(jac, r0, rcond=None)
    return float(np.linalg.norm(jac @ coef))


def spearman_rho(x, y) -> float:
    return float(stats.spearmanr(x, y).statistic)


class StatGate:
    """Collects statistical comparisons and judges them together.

    Each comparison is a difference with its standard error. The gate z is
    the Bonferroni bound for FAMILY_FALSE_ALARM over all comparisons; for
    the few hundred comparisons of a run it lies between 5 and 6.
    """

    def __init__(self):
        self.items: list[tuple[str, float, float, bool]] = []

    def add(self, label: str, diff: float, se: float, one_sided: bool):
        """one_sided: only diff > z se fails; otherwise |diff| > z se fails."""
        self.items.append((label, float(diff), float(se), one_sided))

    def z(self) -> float:
        n = max(len(self.items), 1)
        return NormalDist().inv_cdf(1.0 - FAMILY_FALSE_ALARM / (2.0 * n))

    def failures(self) -> list[str]:
        z = self.z()
        out = []
        for label, diff, se, one_sided in self.items:
            bad = diff > z * se if one_sided else abs(diff) > z * se
            if bad or not math.isfinite(diff):
                out.append(f"{label}: diff {diff:.3e} vs {z:.2f} x se {se:.3e}")
        return out
