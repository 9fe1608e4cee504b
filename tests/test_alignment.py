import numpy as np
import pytest

from fgred.alignment import _align, wc_ate, wc_ates
from reference import aligned_sq_errors, ate, wc_ate_loop


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def align_one(source, target):
    """`_align` of one pair of (k, 2) point sets: R (2, 2), t (2,)."""
    R, t = _align(source[None], target[None])
    return R[0], t[0]


def test_identity_alignment():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    R, t = align_one(pts, pts)
    assert np.allclose(R, np.eye(2), atol=1e-12)
    assert np.allclose(t, 0.0, atol=1e-12)


def test_recovers_known_transform():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.standard_normal((6, 2)) * 3
        theta = rng.uniform(-np.pi, np.pi)
        shift = rng.uniform(-5, 5, 2)
        target = pts @ rot(theta).T + shift
        R, t = align_one(pts, target)
        assert np.allclose(R, rot(theta), atol=1e-10)
        assert np.allclose(t, shift, atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_quarter_turn_example():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    target = pts @ rot(np.pi / 2).T + np.array([1.0, 1.0])
    R, t = align_one(pts, target)
    assert np.allclose(R, rot(np.pi / 2), atol=1e-10)
    assert np.allclose(t, [1.0, 1.0], atol=1e-10)


def test_rotation_only_no_reflection():
    # a reflected target must come back as the best proper rotation,
    # never as a det = -1 matrix
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 3.0]])
    target = pts.copy()
    target[:, 0] *= -1.0
    R, _ = align_one(pts, target)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_noisy_alignment_against_grid_search():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((8, 2)) * 2
    target = pts @ rot(0.8).T + np.array([0.5, -1.0]) + rng.standard_normal((8, 2)) * 0.05
    R, t = align_one(pts, target)
    got = ((pts @ R.T + t - target) ** 2).sum()

    # coarse-to-fine search over rotation; translation optimal at centroids
    best = np.inf
    mu_s, mu_t = pts.mean(axis=0), target.mean(axis=0)
    grid = np.linspace(-np.pi, np.pi, 721)
    for _ in range(3):
        costs = []
        for th in grid:
            res = ((pts - mu_s) @ rot(th).T + mu_t - target) ** 2
            costs.append(res.sum())
        k = int(np.argmin(costs))
        best = min(best, costs[k])
        width = grid[1] - grid[0]
        grid = np.linspace(grid[k] - width, grid[k] + width, 721)
    assert got <= best + 1e-9


def test_degenerate_point_sets_rejected():
    # coincident points fail the alignment, and each of wc_ate's four input
    # checks raises its own error
    same = np.zeros((3, 2))
    other = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    for source, target in ((same, other), (other[:1], other[:1])):
        with pytest.raises(ValueError, match="degenerate point set"):
            align_one(source, target)
    cases = [
        ((other, []), "^need at least one estimated trajectory$"),
        ((other, [other[:, :1]]), r"^expected \(k, 2\) planar points, got shape \(3, 1\)$"),
        ((other.ravel(), [other]), r"^expected \(k, 2\) planar points, got shape \(6,\)$"),
        ((other, [other[:2]]), "^point sets must have matching shapes$"),
        ((other[:1], [other[:1]]), "^need at least two points to align$"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            wc_ate(*args)


def test_ate_invariant_to_rigid_motion():
    rng = np.random.default_rng(2)
    truth = rng.standard_normal((7, 2)) * 3
    est = truth + rng.standard_normal((7, 2)) * 0.1
    base = ate(truth, est)
    moved = est @ rot(1.1).T + np.array([4.0, -2.0])
    assert ate(truth, moved) == pytest.approx(base, abs=1e-10)
    assert base == pytest.approx(aligned_sq_errors(truth, est).sum(), abs=1e-12)


def test_wc_ate_dominates_each_source():
    rng = np.random.default_rng(3)
    truth = rng.standard_normal((9, 2)) * 2
    e1 = truth + rng.standard_normal((9, 2)) * 0.05
    e2 = truth + rng.standard_normal((9, 2)) * 0.3
    wc = wc_ate(truth, [e1, e2])
    assert wc >= ate(truth, e1) - 1e-12
    assert wc >= ate(truth, e2) - 1e-12
    assert wc <= ate(truth, e1) + ate(truth, e2) + 1e-12
    # single source reduces to plain ate
    assert wc_ate(truth, [e1]) == pytest.approx(ate(truth, e1), abs=1e-12)


def test_wc_ate_pointwise_max():
    truth = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # already centered/aligned trajectories around truth
    e1 = truth + np.array([[0.1, 0.0], [0.0, 0.0], [-0.1, 0.0]])
    e2 = truth + np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.0]])
    wc = wc_ate(truth, [e1, e2])
    s1 = aligned_sq_errors(truth, e1)
    s2 = aligned_sq_errors(truth, e2)
    assert wc == pytest.approx(np.maximum(s1, s2).sum(), abs=1e-12)


def test_stacked_wc_ate_same_bits_as_one_world():
    # a stack of worlds, in any order, gives each world wc_ate's bits, which
    # are those of one 2-D alignment per estimate; world 0 has an estimate
    # that is the truth's mirror image, whose cross-covariance has
    # det(V U^T) = -1, and a degenerate member fails the whole stack
    rng = np.random.default_rng(8)
    truths, estimates = [], []
    for _ in range(7):
        truth = np.cumsum(rng.standard_normal((11, 2)), axis=0)
        estimates.append([
            truth @ rot(rng.uniform(-np.pi, np.pi)).T + rng.uniform(-5, 5, 2)
            + rng.standard_normal((11, 2)) * scale
            for scale in (0.05, 0.3)
        ])
        truths.append(truth)
    estimates[0][1] = truths[0] * [1.0, -1.0]
    centred = [pts - pts.mean(axis=0) for pts in (estimates[0][1], truths[0])]
    U, _, Vt = np.linalg.svd(centred[0].T @ centred[1])
    assert np.linalg.det(Vt.T @ U.T) < 0.0
    truths, estimates = np.array(truths), np.array(estimates)
    alone = np.array([wc_ate(truth, ests) for truth, ests in zip(truths, estimates)])
    assert alone.tolist() == [wc_ate_loop(truth, ests) for truth, ests in zip(truths, estimates)]
    for order in (np.arange(7), np.arange(7)[::-1], rng.permutation(7)):
        assert wc_ates(truths[order], estimates[order]).tobytes() == alone[order].tobytes()
    estimates[3, 0] = 1.5
    for call in (lambda: wc_ates(truths, estimates), lambda: wc_ate(truths[3], estimates[3])):
        with pytest.raises(ValueError, match="degenerate point set"):
            call()
