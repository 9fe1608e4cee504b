"""Hand-made cases for the benchmark's oracles.

run.py calls every test_ function here before it measures, so a broken
oracle stops the benchmark instead of passing outputs silently. They also
run under pytest: python3 -m pytest perfbench/test_oracles.py
"""
from __future__ import annotations

import math

import numpy as np

import oracles


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_qualities_diagonal_by_hand():
    lam = np.diag([2.0, 4.0])
    delta = np.diag([2.0, 12.0])
    q_wb, q_wass = oracles.qualities(lam, delta)
    # 1/2 log(4 * 16 / (2 * 4)) and 2 ((1/2 + 1/4) - (1/4 + 1/16)).
    assert abs(q_wb - 0.5 * math.log(8.0)) < 1e-14
    assert abs(q_wass - 0.875) < 1e-14


def test_specific_quality_averages_to_quality():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4))
    lam = g @ g.T + np.eye(4)
    h = rng.normal(size=(2, 4))
    delta = h.T @ h
    expected = dict(zip(("wb", "wass"), oracles.qualities(lam, delta)))
    cov = np.linalg.inv(lam)
    for kind in ("wb", "wass"):
        c, W = oracles.specific_quality_terms(lam, delta, kind)
        assert abs(c + np.trace(W @ cov) - expected[kind]) < 1e-12


def test_specific_quality_one_dimension_by_hand():
    # Lam = 2, Delta = 2, so (Lam + Delta)^-1 = 1/4.
    c, W = oracles.specific_quality_terms(np.array([[2.0]]), np.array([[2.0]]), "wb")
    assert abs(W[0, 0] - 0.5) < 1e-15 and abs(c - (0.5 * math.log(2.0) - 0.25)) < 1e-15
    c, W = oracles.specific_quality_terms(np.array([[2.0]]), np.array([[2.0]]), "wass")
    # tr(1/2 - 1/4 - 2/16) = 1/8 and 1 - 2 * 1/16 * 2 = 3/4.
    assert abs(W[0, 0] - 0.75) < 1e-15 and abs(c - 0.125) < 1e-15


def test_reference_redundancy_one_dimension_against_quadrature():
    lam = np.array([[1.0]])
    deltas = [np.array([[0.5]]), np.array([[3.0]])]
    for kind in ("wb", "wass"):
        pieces = [oracles.specific_quality_terms(lam, d, kind) for d in deltas]
        t = np.linspace(-12.0, 12.0, 24_001)
        density = np.exp(-0.5 * t**2) / math.sqrt(2.0 * math.pi)
        mins = np.minimum(*(c + W[0, 0] * t**2 for c, W in pieces))
        exact = float(np.sum(mins * density) * (t[1] - t[0]))
        ref = oracles.redundancy_reference(lam, deltas, kind, 50_000, seed=1)
        assert abs(ref["value"] - exact) < 5.0 * ref["std_error"]
        assert ref["std_error"] > 0.0


def test_reference_redundancy_of_one_source_is_its_quality():
    lam = np.diag([1.0, 2.0, 0.5])
    delta = np.diag([1.0, 0.0, 2.0])
    q = dict(zip(("wb", "wass"), oracles.qualities(lam, delta)))
    for kind in ("wb", "wass"):
        ref = oracles.redundancy_reference(lam, [delta], kind, 20_000, seed=2)
        assert abs(ref["value"] - q[kind]) < 5.0 * ref["std_error"]


def test_se_difference_spread_for_gaussian_draws():
    # Kurtosis 3: relative spread sqrt(2/4 * (1/n + 1/n_ref)).
    spread = oracles.se_difference_spread(2.0, 3.0, 100, 400)
    assert abs(spread - 0.2 * math.sqrt(0.5 * (0.01 + 0.0025))) < 1e-15


def test_procrustes_recovers_a_known_rotation():
    rng = np.random.default_rng(3)
    truth = rng.normal(size=(8, 2)) * 4.0
    estimate = (truth - 1.5) @ _rot(0.7).T + np.array([3.0, -2.0])
    assert np.max(oracles.procrustes_sq_errors(truth, estimate)) < 1e-20
    quarter = oracles.procrustes_sq_errors(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert np.max(quarter) < 1e-28


def test_procrustes_does_not_scale():
    errors = oracles.procrustes_sq_errors(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[2.0, 0.0], [-2.0, 0.0]]))
    assert np.allclose(errors, [1.0, 1.0], rtol=0, atol=1e-14)


def test_worst_case_ate_takes_the_per_point_maximum():
    truth = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    bent = truth + np.array([[0.0, 0.1], [0.0, -0.1], [0.0, -0.1], [0.0, 0.1]])
    wc, ates = oracles.worst_case_ate(truth, [truth.copy(), bent])
    assert abs(ates[0]) < 1e-28
    assert abs(wc - 0.04) < 1e-14 and abs(ates[1] - 0.04) < 1e-14


def test_stationarity_of_a_linear_least_squares_problem():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(12, 5))
    b = rng.normal(size=12)
    x_star = np.linalg.lstsq(A, b, rcond=None)[0]
    assert oracles.stationarity(lambda x: A @ x - b, x_star) < 1e-8
    assert oracles.stationarity(lambda x: A @ x - b, x_star + 0.1) > 1e-2


def test_spearman_of_monotone_data():
    x = [0.3, 1.0, 2.0, 7.0]
    assert oracles.spearman_rho(x, [1.0, 4.0, 9.0, 100.0]) == 1.0
    assert oracles.spearman_rho(x, [4.0, 3.0, 2.0, 1.0]) == -1.0


def test_stat_gate_sides_and_bonferroni_z():
    gate = oracles.StatGate()
    gate.add("one", 4.0, 1.0, one_sided=True)
    assert abs(gate.z() - 4.4172) < 1e-3 and not gate.failures()
    gate.add("below", -100.0, 1.0, one_sided=True)
    gate.add("two-sided", -100.0, 1.0, one_sided=False)
    assert [f.split(":")[0] for f in gate.failures()] == ["two-sided"]
