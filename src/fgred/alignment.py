"""Rigid trajectory alignment and the worst-case trajectory error.

Estimated trajectories are gauge-free up to a rigid motion, so each is
aligned to the truth with the best rotation + translation (no scaling)
before errors are measured. The worst-case error takes, per pose, the
largest squared error across the candidate estimates and sums over poses.

The arithmetic runs on stacks of point sets (`wc_ates`), one matmul, SVD
and determinant per step for the whole stack, which gives each member the
bits of its own 2-D computation; `wc_ate` is its checked one-world case.
"""
from __future__ import annotations

import numpy as np


def _align(src: np.ndarray, tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best rigid motion of each member of stacks src, tgt (m, k, 2): R (m, 2, 2), t (m, 2).

    R_i and t_i minimize sum ||tgt_i - R_i src_i - t_i||^2 with det R_i = +1
    and no scale, via SVD of the cross-covariance with the usual sign
    correction. A member whose points all coincide raises.
    """
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


def wc_ates(truths: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """wc_ate of each member of a stack: truths (w, k, 2), estimates (w, e, k, 2) -> (w,).

    Every member has the bits of wc_ate on its own; a degenerate point set
    in any member raises.
    """
    w, e = estimates.shape[:2]
    truth = np.repeat(truths, e, axis=0)
    est = estimates.reshape(w * e, *estimates.shape[2:])
    R, t = _align(est, truth)
    dev = truth - (est @ R.swapaxes(1, 2) + t[:, None, :])
    per_pose = np.einsum("...ij,...ij->...i", dev, dev)
    return per_pose.reshape(w, e, -1).max(axis=1).sum(axis=1)


def wc_ate(truth, estimates) -> float:
    """Worst-case trajectory error of (k, 2) point arrays across candidate estimates.

    Each estimate is aligned to the truth independently; the per-pose
    squared errors are maximized across estimates, then summed. Always at
    least as large as any single estimate's aligned error sum. Needs at
    least one estimate and two points, each of the truth's shape.
    """
    truth = np.asarray(truth, dtype=float)
    stack = [np.asarray(est, dtype=float) for est in estimates]
    if not stack:
        raise ValueError("need at least one estimated trajectory")
    for pts in (truth, *stack):
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected (k, 2) planar points, got shape {pts.shape}")
        if pts.shape != truth.shape:
            raise ValueError("point sets must have matching shapes")
    if truth.shape[0] < 2:
        raise ValueError("need at least two points to align")
    return float(wc_ates(truth[None], np.array(stack)[None])[0])
