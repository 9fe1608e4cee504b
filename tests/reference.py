"""Reference formulas that only the tests use.

The conditional posterior moments are the closed forms the metric
derivations start from; the tests check them against Monte Carlo draws of
measurements. The SE(2) helpers give relative poses and the rotation and
translation parts of a pose. None of this is on a library path, so it lives
here rather than in fgred.
"""
import numpy as np
import scipy.linalg

from fgred.gauss import GaussianBelief, check_symmetric, cholesky_pd, solve_pd
from fgred.se2 import Pose2, se2_compose, se2_inverse


def invert_pd(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Explicit inverse of a symmetric PD matrix (dims here are small)."""
    L = cholesky_pd(M, name=name)
    inv = scipy.linalg.cho_solve((L, True), np.eye(M.shape[0]), check_finite=False)
    return 0.5 * (inv + inv.T)


def conditional_mean_posterior(
    belief_b: GaussianBelief, delta: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Conditional expectation of the posterior mean given the true state x.

    Measurements drawn from state x update the prior (mu_B, Lam_B) through an
    information increment Delta; averaging over the measurement noise,

        E(mu_post | x) = (Lam_B + Delta)^-1 (Lam_B mu_B + Delta x).

    The result is affine in x.
    """
    delta = check_symmetric(delta, name="delta")
    x = np.asarray(x, dtype=float).reshape(-1)
    if delta.shape[0] != belief_b.dim or x.shape[0] != belief_b.dim:
        raise ValueError("delta/x dimension mismatch with prior belief")
    lam_post = belief_b.info + delta
    rhs = belief_b.info @ belief_b.mean + delta @ x
    return solve_pd(lam_post, rhs, name="posterior info")


def expected_recentred_quadratic(
    belief_b: GaussianBelief,
    delta: np.ndarray,
    T: np.ndarray,
    m: np.ndarray,
    x: np.ndarray,
) -> float:
    """E(||mu_post + m||_T^2 | x) for PSD weight T and offset m.

    The posterior mean under measurements from state x is Gaussian with the
    conditional mean above and covariance Ltilde^-1 Delta Ltilde^-1, so

        E = tr(T Ltilde^-1 Delta Ltilde^-1) + ||E(mu_post|x) + m||_T^2

    with Ltilde = Lam_B + Delta.
    """
    delta = check_symmetric(delta, name="delta")
    T = check_symmetric(T, name="T")
    m = np.asarray(m, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    d = belief_b.dim
    if not (delta.shape[0] == T.shape[0] == m.shape[0] == x.shape[0] == d):
        raise ValueError("argument dimension mismatch with prior belief")
    lam_post = belief_b.info + delta
    inv_post = invert_pd(lam_post, name="posterior info")
    trace_term = float(np.trace(T @ inv_post @ delta @ inv_post))
    cond_mean = inv_post @ (belief_b.info @ belief_b.mean + delta @ x)
    v = cond_mean + m
    return trace_term + float(v @ T @ v)


def se2_relative(a: Pose2, b: Pose2) -> Pose2:
    """b expressed in a's frame: a^-1 * b."""
    return se2_compose(se2_inverse(a), b)


def pose_rotation(p: Pose2) -> np.ndarray:
    """2x2 rotation matrix of the pose's heading."""
    c, s = np.cos(p.theta), np.sin(p.theta)
    return np.array([[c, -s], [s, c]])


def pose_translation(p: Pose2) -> np.ndarray:
    """The pose's position (x, y)."""
    return np.array([p.x, p.y])
