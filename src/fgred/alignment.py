"""Rigid trajectory alignment and the worst-case trajectory error.

Estimated trajectories are gauge-free up to a rigid motion, so each is
aligned to the truth with the best rotation + translation (no scaling)
before errors are measured. The worst-case error takes, per pose, the
largest squared error across the candidate estimates and sums over poses.
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


def umeyama_align(source, target) -> tuple[np.ndarray, np.ndarray]:
    """Best rigid motion (R, t) minimizing sum ||target_i - R source_i - t||^2.

    Rotation only (determinant +1, no scale), via SVD of the cross-covariance
    with the usual sign correction. Needs at least two points and a
    non-degenerate spread in both clouds.
    """
    src = _as_xy(source)
    tgt = _as_xy(target)
    if src.shape != tgt.shape:
        raise ValueError("point sets must have matching shapes")
    if src.shape[0] < 2:
        raise ValueError("need at least two points to align")
    src_c = src - src.mean(axis=0)
    tgt_c = tgt - tgt.mean(axis=0)
    if np.abs(src_c).max() < 1e-12 or np.abs(tgt_c).max() < 1e-12:
        raise ValueError("degenerate point set: all points coincide")
    H = src_c.T @ tgt_c
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, d]) @ U.T
    t = tgt.mean(axis=0) - R @ src.mean(axis=0)
    return R, t


def aligned_sq_errors(truth, estimate) -> np.ndarray:
    """Per-pose squared errors after rigid alignment of estimate to truth."""
    tgt = _as_xy(truth)
    src = _as_xy(estimate)
    R, t = umeyama_align(src, tgt)
    dev = tgt - (src @ R.T + t[None, :])
    return np.einsum("ij,ij->i", dev, dev)


def wc_ate(truth, estimates) -> float:
    """Worst-case trajectory error across candidate estimates.

    Each estimate is aligned to the truth independently; the per-pose
    squared errors are maximized across estimates, then summed. Always at
    least as large as any single estimate's aligned error sum.
    """
    est_list = list(estimates)
    if not est_list:
        raise ValueError("need at least one estimated trajectory")
    per_pose = np.stack([aligned_sq_errors(truth, est) for est in est_list])
    return float(per_pose.max(axis=0).sum())
