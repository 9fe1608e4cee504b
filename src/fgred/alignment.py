"""Rigid trajectory alignment and the worst-case trajectory error.

Estimated trajectories are gauge-free up to a rigid motion, so each is
aligned to the truth with the best rotation + translation (no scaling)
before errors are measured. The worst-case error takes, per pose, the
largest squared error across the candidate estimates and sums over poses.

The arithmetic runs on stacks of point sets (`wc_ates`), one matmul, SVD
and determinant per step for the whole stack, which gives each member the
bits of its own 2-D computation; the one-trajectory functions are its
one-member cases.
"""
from __future__ import annotations

import numpy as np


def _as_xy(traj) -> np.ndarray:
    """Coerce a trajectory (array of points or sequence of poses) to (k, 2)."""
    if isinstance(traj, np.ndarray):
        pts = np.asarray(traj, dtype=float)
    else:
        items = list(traj)
        if items and hasattr(items[0], "x"):
            pts = np.array([[p.x, p.y] for p in items])
        else:
            pts = np.asarray(items, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (k, 2) planar points, got shape {pts.shape}")
    return pts


def _checked_pair(source, target) -> tuple[np.ndarray, np.ndarray]:
    src = _as_xy(source)
    tgt = _as_xy(target)
    if src.shape != tgt.shape:
        raise ValueError("point sets must have matching shapes")
    if src.shape[0] < 2:
        raise ValueError("need at least two points to align")
    return src, tgt


def _align(src: np.ndarray, tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """umeyama_align of each member of stacks src, tgt (m, k, 2): R (m, 2, 2), t (m, 2)."""
    src_mean, tgt_mean = src.mean(axis=1), tgt.mean(axis=1)
    src_c = src - src_mean[:, None]
    tgt_c = tgt - tgt_mean[:, None]
    spread = np.minimum(np.abs(src_c).max(axis=(1, 2)), np.abs(tgt_c).max(axis=(1, 2)))
    if (spread < 1e-12).any():
        raise ValueError("degenerate point set: all points coincide")
    U, _, Vt = np.linalg.svd(src_c.swapaxes(1, 2) @ tgt_c)
    V, Ut = Vt.swapaxes(1, 2), U.swapaxes(1, 2)
    D = np.zeros_like(U)
    D[:, 0, 0], D[:, 1, 1] = 1.0, np.sign(np.linalg.det(V @ Ut))
    R = V @ D @ Ut
    return R, tgt_mean - (R @ src_mean[:, :, None])[:, :, 0]


def _aligned_sq_errors(truth: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """aligned_sq_errors of each member of stacks truth, estimate (m, k, 2): shape (m, k)."""
    R, t = _align(estimate, truth)
    dev = truth - (estimate @ R.swapaxes(1, 2) + t[:, None, :])
    return np.einsum("...ij,...ij->...i", dev, dev)


def umeyama_align(source, target) -> tuple[np.ndarray, np.ndarray]:
    """Best rigid motion (R, t) minimizing sum ||target_i - R source_i - t||^2.

    Rotation only (determinant +1, no scale), via SVD of the cross-covariance
    with the usual sign correction. Needs at least two points and a
    non-degenerate spread in both clouds.
    """
    src, tgt = _checked_pair(source, target)
    R, t = _align(src[None], tgt[None])
    return R[0], t[0]


def aligned_sq_errors(truth, estimate) -> np.ndarray:
    """Per-pose squared errors after rigid alignment of estimate to truth."""
    src, tgt = _checked_pair(estimate, truth)
    return _aligned_sq_errors(tgt[None], src[None])[0]


def wc_ates(truths: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """wc_ate of each member of a stack: truths (w, k, 2), estimates (w, e, k, 2) -> (w,).

    Every member has the bits of wc_ate on its own; a degenerate point set
    in any member raises.
    """
    w, e = estimates.shape[:2]
    truth = np.repeat(truths, e, axis=0)
    per_pose = _aligned_sq_errors(truth, estimates.reshape(w * e, *estimates.shape[2:]))
    return per_pose.reshape(w, e, -1).max(axis=1).sum(axis=1)


def wc_ate(truth, estimates) -> float:
    """Worst-case trajectory error across candidate estimates.

    Each estimate is aligned to the truth independently; the per-pose
    squared errors are maximized across estimates, then summed. Always at
    least as large as any single estimate's aligned error sum.
    """
    est_list = list(estimates)
    if not est_list:
        raise ValueError("need at least one estimated trajectory")
    truth_xy = _as_xy(truth)
    stack = np.array([_checked_pair(est, truth_xy)[0] for est in est_list])
    return float(wc_ates(truth_xy[None], stack[None])[0])
