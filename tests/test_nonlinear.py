import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import least_squares

import fgred.nonlinear as nonlinear
import fgred.sim2d as sim2d
from fgred.experiment import ExperimentConfig, run_block, simulate_batch_world, world_seed
from fgred.gauss import NotPositiveDefiniteError, cholesky_pd
from fgred.nonlinear import (
    NonlinearGraph,
    OdometryFactor,
    PriorFactor,
    RangeBearingFactor,
    build_nonlinear_graph,
    pose_information_system,
    solve_gauss_newton,
    solve_worlds,
    triangulate_landmark,
)
from fgred.se2 import Pose2, wrap_angle
from fgred.sim2d import SimConfig, simulate_world
from reference import (
    dead_reckoning_values,
    factor_hessians,
    factor_jacobians,
    factor_residual,
    information_inputs,
    kernel_jacobians,
    linearize,
    linearize_loop,
    near_pi_angles,
    pose_array,
    pose_information_one,
    pose_rotation,
    se2_compose,
    solve_gauss_newton_loop,
    triangulate_one,
)


def zero_noise_config(**kw):
    zero3 = ((0.0,) * 3,) * 3
    base = dict(sigma_step=zero3, sigma_odom=zero3, range_var_coeff=0.0, bearing_var=0.0)
    base.update(kw)
    return SimConfig(**base)


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + np.eye(n)


def truth_values(world):
    vals = {("x", i): pose_array(p) for i, p in enumerate(world.truth_poses)}
    for s in range(2):
        vals[("l", s)] = np.array(world.landmarks[s], dtype=float)
    return vals


def numeric_jacobians(factor, values, h=1e-6):
    out = []
    base = factor.residual(values)
    for var in factor.vars:
        dim = len(values[var])
        J = np.zeros((len(base), dim))
        for k in range(dim):
            up = {v: np.array(x, dtype=float) for v, x in values.items()}
            dn = {v: np.array(x, dtype=float) for v, x in values.items()}
            up[var][k] += h
            dn[var][k] -= h
            diff = factor.residual(up) - factor.residual(dn)
            # wrap angle rows so the difference stays local
            diff = np.array([wrap_angle(d) if abs(d) > 3 else d for d in diff])
            J[:, k] = diff / (2 * h)
        out.append(J)
    return out


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(20):
        values = {
            ("x", 0): rng.uniform(-3, 3, 3),
            ("x", 1): rng.uniform(-3, 3, 3),
            ("l", 0): rng.uniform(-3, 3, 2),
        }
        factors = [
            PriorFactor(var=("x", 0), measurement=rng.uniform(-3, 3, 3), gamma=np.eye(3)),
            OdometryFactor(
                var_from=("x", 0), var_to=("x", 1),
                measurement=rng.uniform(-1, 1, 3), gamma=np.eye(3),
            ),
            RangeBearingFactor(
                pose_var=("x", 1), landmark_var=("l", 0),
                measurement=np.array([1.0, 0.3]), gamma=np.eye(2),
            ),
        ]
        for f in factors:
            for got, want in zip(kernel_jacobians(f, values), numeric_jacobians(f, values)):
                assert np.allclose(got, want, atol=1e-5)


def test_curvature_matches_differences_of_the_jacobians():
    # each kernel's sum_l w_l times the Hessian of h_l against central
    # differences of that kernel's Jacobians, with the angles at the wrap
    # boundary; the scalar reference Hessians give the same sums
    rng = np.random.default_rng(31)
    m, h = 200, 1e-6
    for kind, angles in ((OdometryFactor, [2, 5]), (RangeBearingFactor, [2])):
        d = 6 if kind is OdometryFactor else 5
        v = rng.uniform(-5, 5, (m, d))
        for col in angles:
            v[:, col] = near_pi_angles(rng, m)
        z = np.zeros((m, kind.height))
        w = rng.standard_normal((m, kind.height))
        want = np.empty((m, d, d))
        for a in range(d):
            step = np.zeros(d)
            step[a] = h
            diff = kind.kernel(v + step, z)[1] - kind.kernel(v - step, z)[1]
            want[:, :, a] = np.einsum("ml,mlb->mb", w, diff) / (2 * h)
        got = kind.curvature(v, w)
        assert got.shape == (m, d, d) and np.array_equal(got, got.transpose(0, 2, 1))
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max(), kind.__name__
        for i in range(20):
            keys = [("x", 0), ("x", 1)] if kind is OdometryFactor else [("x", 0), ("l", 0)]
            f = kind(*keys, z[i], np.eye(kind.height))
            values = dict(zip(keys, np.split(v[i], [3])))
            ref = np.einsum("l,lab->ab", w[i], factor_hessians(f, values))
            assert np.allclose(got[i], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def exact_world(seed):
    """A default world whose odometry, ranges and bearings are h(truth) exactly."""
    world = simulate_world(SimConfig(), seed)
    t, lm = world.truth_array, world.landmarks
    c, s = np.cos(t[:-1, 2]), np.sin(t[:-1, 2])
    dx, dy = t[1:, 0] - t[:-1, 0], t[1:, 1] - t[:-1, 1]
    odometry = np.column_stack([c * dx + s * dy, c * dy - s * dx, wrap_angle(t[1:, 2] - t[:-1, 2])])
    ldx, ldy = lm[:, None, 0] - t[None, 1:, 0], lm[:, None, 1] - t[None, 1:, 1]
    rb = np.stack([np.hypot(ldx, ldy), wrap_angle(np.arctan2(ldy, ldx) - t[None, 1:, 2])], axis=-1)
    return dataclasses.replace(world, odometry_array=odometry, rb_measurements=rb)


def test_information_forms_are_the_covariance_of_the_map():
    # implicit-function oracle: where the measurements are h(truth), source
    # s's MAP is the truth with zero residual, so its sensitivity to the
    # measurements S = dx/dz gives S Gamma^-1 S^T = (J^T J)^-1, whose pose
    # block is (Lambda_B + Delta_s)^-1. S is taken by central differences
    # of scipy least_squares re-solves on the reference factor bodies,
    # whitened by numpy's Cholesky of each gamma: nothing of the block
    # assembly, the whiteners or the Schur complement. About 0.7 s on two cores
    world = exact_world(12345)
    graph = build_nonlinear_graph(world)
    truth = truth_values(world)
    [prior], [deltas] = pose_information_system(
        world.truth_array.reshape(1, -1), world.landmarks[None], *information_inputs([world])
    )
    n_x = prior.dim
    for s in range(2):
        subset = sorted(graph.base | graph.sources[s])
        factors = [graph.factors[j] for j in subset]
        roots = [np.linalg.cholesky(f.gamma).T for f in factors]
        state = graph.touched_vars(subset)
        starts = np.cumsum([0] + [len(truth[v]) for v in state])
        x0 = np.concatenate([truth[v] for v in state])
        z0 = np.concatenate([f.measurement for f in factors])
        rows = np.cumsum([0] + [len(f.measurement) for f in factors])

        def residual(x, z):
            values = dict(zip(state, np.split(x, starts[1:-1])))
            return np.concatenate([
                L_t @ (factor_residual(f, values) - (z - z0)[a:b])
                for f, L_t, a, b in zip(factors, roots, rows[:-1], rows[1:])
            ])

        def jacobian(x, z):
            values = dict(zip(state, np.split(x, starts[1:-1])))
            J = np.zeros((len(z0), len(x)))
            for f, L_t, a, b in zip(factors, roots, rows[:-1], rows[1:]):
                for var, jac in zip(f.vars, factor_jacobians(f, values)):
                    i = state.index(var)
                    J[a:b, starts[i] : starts[i + 1]] = L_t @ jac
            return J

        h, S = 1e-6, np.empty((len(x0), len(z0)))
        for k in range(len(z0)):
            ends = []
            for sign in (1.0, -1.0):
                z = z0.copy()
                z[k] += sign * h
                fit = least_squares(residual, x0, jac=jacobian, args=(z,), method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
                ends.append(fit.x)
            S[:, k] = (ends[0] - ends[1]) / (2 * h)
        covariance = S @ scipy.linalg.block_diag(*[np.linalg.inv(f.gamma) for f in factors]) @ S.T
        want = np.linalg.inv(prior.info + deltas[s])
        assert np.abs(covariance[:n_x, :n_x] - want).max() <= 1e-7 * np.abs(want).max(), s


def test_zero_range_degenerate():
    values = {("x", 0): np.zeros(3), ("l", 0): np.zeros(2)}
    f = RangeBearingFactor(
        pose_var=("x", 0), landmark_var=("l", 0),
        measurement=np.array([1.0, 0.0]), gamma=np.eye(2),
    )
    g = NonlinearGraph(
        variables=tuple(values), factors=(f,),
        base=frozenset({0}), sources={},
    )
    with pytest.raises(ValueError, match="degenerate range-bearing geometry"):
        linearize(g, (0,), values, tuple(values))


def test_kernels_match_reference_bodies():
    # the batched kernels against the scalar bodies, bit for bit, with
    # angles at the wrap boundary and more factors than one SIMD register
    rng = np.random.default_rng(21)
    m = 200
    poses = rng.uniform(-5, 5, (2 * m, 3))
    poses[:, 2] = near_pi_angles(rng, 2 * m)
    values = {("x", i): p for i, p in enumerate(poses)}
    values.update({("l", i): lm for i, lm in enumerate(rng.uniform(-5, 5, (m, 2)))})
    z_pose = rng.uniform(-1, 1, (m, 3))
    z_pose[:, 2] = near_pi_angles(rng, m)
    z_rb = np.column_stack([rng.uniform(0.5, 5, m), near_pi_angles(rng, m)])
    groups = [
        [PriorFactor(("x", i), z_pose[i], np.eye(3)) for i in range(m)],
        [OdometryFactor(("x", i), ("x", m + i), z_pose[i], np.eye(3)) for i in range(m)],
        [RangeBearingFactor(("x", i), ("l", i), z_rb[i], np.eye(2)) for i in range(m)],
    ]
    for group in groups:
        v = np.array([np.concatenate([values[var] for var in f.vars]) for f in group])
        z = np.array([f.measurement for f in group])
        r, jac = group[0].kernel(v, z)
        assert np.array_equal(r, [factor_residual(f, values) for f in group])
        assert np.array_equal(jac, [np.hstack(factor_jacobians(f, values)) for f in group])
        for f in group[:20]:
            assert np.array_equal(f.residual(values), factor_residual(f, values))
        # one factor per call (m = 1), as the single anchor prior is linearized
        for i, f in enumerate(group[:20]):
            r, jac = f.kernel(v[i : i + 1], z[i : i + 1])
            assert r.shape == (1, len(z[i])) and jac.shape == (1, len(z[i]), v.shape[1])
            assert np.array_equal(r[0], factor_residual(f, values))
            assert np.array_equal(jac[0], np.hstack(factor_jacobians(f, values)))


def assert_same_solve(graph, subset, init, **kwargs):
    # the block assembly sums in another order than the dense J, so the two
    # agree to rounding on every step but the last few: there a step's cost
    # change is below rounding, and the choice of step can flip, so
    # converged states agree to the stop rule's scale
    got = solve_gauss_newton(graph, subset, init, **kwargs)
    want = solve_gauss_newton_loop(graph, subset, init, **kwargs)
    assert (got.converged, got.n_iters) == (want.converged, want.n_iters)
    if want.converged:
        assert got.step_norm < nonlinear.STEP_TOL
    else:
        assert np.array_equal(np.isnan(got.step_norm), np.isnan(want.step_norm))
        assert got.step_norm == pytest.approx(want.step_norm, rel=1e-9, nan_ok=True)
    assert got.values.keys() == want.values.keys()
    for k, v in want.values.items():
        assert np.allclose(got.values[k], v, rtol=0.0, atol=1e-7 if want.converged else 1e-10), k
    return got


def test_solver_matches_loop_reference():
    # the loop reference takes its Newton and Gauss-Newton steps on the
    # dense J with scalar second derivatives; sim 5 of root seed 5 holds the
    # source solve that reached the old 50-iteration cap, and five steps cap
    # every source solve here
    worlds = [
        simulate_batch_world(ExperimentConfig(root_seed=5), 5),
        simulate_world(SimConfig(), 12),
        simulate_world(SimConfig(n_poses=40), 13),
    ]
    capped = 0
    for world in worlds:
        g = build_nonlinear_graph(world)
        base = assert_same_solve(g, sorted(g.base), dead_reckoning_values(world))
        for s in sorted(g.sources):
            init = dict(base.values)
            init[("l", s)] = triangulate_one(world, s, base.values)
            subset = sorted(g.base | g.sources[s])
            assert assert_same_solve(g, subset, init).converged
            res = assert_same_solve(g, subset, init, max_iters=5)
            capped += not res.converged and res.n_iters == 5
            assert_same_solve(g, subset, init, max_iters=1)
    assert capped == 6
    # odometry alone leaves the gauge free: neither system factors at the
    # first step
    variables = (("x", 0), ("x", 1))
    odometry = OdometryFactor(variables[0], variables[1], np.array([1.0, 0.0, 0.1]), np.eye(3))
    g = NonlinearGraph(
        variables=variables, factors=(odometry,),
        base=frozenset({0}), sources={},
    )
    res = assert_same_solve(g, [0], {v: np.zeros(3) for v in variables})
    assert not res.converged and res.n_iters == 1


def test_build_graph_structure():
    w = simulate_world(SimConfig(n_poses=6), 0)
    g = build_nonlinear_graph(w)
    n = 6
    assert len(g.factors) == 1 + n + 2 * n
    assert g.base == frozenset(range(n + 1))
    assert g.sources[0] == frozenset(range(n + 1, 2 * n + 1))
    assert g.sources[1] == frozenset(range(2 * n + 1, 3 * n + 1))
    assert len(g.variables) == (n + 1) + 2
    # every variable touched by at least one factor
    touched = set()
    for f in g.factors:
        touched.update(f.vars)
    assert touched == set(g.variables)


def test_gauss_newton_noiseless_truth_fixed_point():
    w = simulate_world(zero_noise_config(), 1)
    g = build_nonlinear_graph(w)
    init = truth_values(w)
    res = solve_gauss_newton(g, sorted(g.base | g.sources[0] | g.sources[1]), init)
    assert res.converged and res.n_iters <= 2
    for v, val in truth_values(w).items():
        assert np.allclose(res.values[v], val, atol=1e-9)


def test_gauss_newton_recovers_truth_from_perturbed_init():
    w = simulate_world(zero_noise_config(), 2)
    g = build_nonlinear_graph(w)
    rng = np.random.default_rng(3)
    init = {k: v + rng.uniform(-0.1, 0.1, size=v.shape) for k, v in truth_values(w).items()}
    res = solve_gauss_newton(g, sorted(g.base | g.sources[0] | g.sources[1]), init)
    assert res.converged
    for v, val in truth_values(w).items():
        assert np.allclose(res.values[v], val, atol=1e-6)


def test_base_only_map_is_dead_reckoning(monkeypatch):
    # anchor measurement + odometry chain has an exact sequential solution
    w = simulate_world(SimConfig(), 4)
    g = build_nonlinear_graph(w)
    init = dead_reckoning_values(w)
    res = solve_gauss_newton(g, sorted(g.base), init)
    assert res.converged
    chain = Pose2(*g.factors[0].measurement)
    assert np.allclose(res.values[("x", 0)], pose_array(chain), atol=1e-8)
    for i, odo in enumerate(w.odometry_array):
        chain = se2_compose(chain, Pose2(*odo))
        got = res.values[("x", i + 1)]
        assert np.allclose(got[:2], pose_array(chain)[:2], atol=1e-8)
        assert wrap_angle(got[2] - chain.theta) == pytest.approx(0.0, abs=1e-8)
    # solve_worlds takes the base poses in that closed form, with no solve
    [sol] = solve_worlds([w])
    base = sol.base_result
    assert (base.converged, base.n_iters, base.step_norm) == (True, 0, 0.0)
    closed = dead_reckoning_values(w)
    assert {k: v.tobytes() for k, v in base.values.items()} == {
        k: v.tobytes() for k, v in closed.items()
    }
    # and they are the base MAP: Gauss-Newton started there does not move them
    res = solve_gauss_newton(g, sorted(g.base), closed)
    assert res.converged
    assert max(np.abs(res.values[k] - v).max() for k, v in closed.items()) <= 1e-12
    # so a block of worlds runs one Gauss-Newton block, its sources'
    calls, block = [], nonlinear.solve_gauss_newton_block

    def counted(plan, data, X, *args, **kwargs):
        calls.append(len(X))
        return block(plan, data, X, *args, **kwargs)

    monkeypatch.setattr(nonlinear, "solve_gauss_newton_block", counted)
    for worlds in ([w], [simulate_batch_world(ExperimentConfig(), i) for i in range(15)]):
        calls.clear()
        solve_worlds(worlds)
        assert calls == [2 * len(worlds)]


def test_subset_must_cover_base():
    w = simulate_world(SimConfig(), 5)
    g = build_nonlinear_graph(w)
    with pytest.raises(ValueError):
        solve_gauss_newton(g, sorted(g.sources[0]), dead_reckoning_values(w))


def test_linearize_affine_factors_independent_of_point():
    # prior factors are affine, so relinearizing anywhere gives the same
    # whitened Jacobian and the same effective measurement J v - r
    rng = np.random.default_rng(6)
    variables = (("x", 0), ("x", 1))
    factors = tuple(
        PriorFactor(var=v, measurement=rng.uniform(-0.5, 0.5, 3), gamma=random_spd(rng, 3))
        for v in variables
    )
    g = NonlinearGraph(
        variables=variables, factors=factors,
        base=frozenset({0, 1}), sources={},
    )
    vals1 = {v: rng.uniform(-0.5, 0.5, 3) for v in variables}
    vals2 = {v: rng.uniform(-0.5, 0.5, 3) for v in variables}
    J1, r1 = linearize(g, (0, 1), vals1, variables)
    J2, r2 = linearize(g, (0, 1), vals2, variables)
    assert np.allclose(J1, J2, atol=1e-12)
    x1 = np.concatenate([vals1[v] for v in variables])
    x2 = np.concatenate([vals2[v] for v in variables])
    assert np.allclose(J1 @ x1 - r1, J2 @ x2 - r2, atol=1e-12)


def test_linearized_posterior_pd_and_prior_matches_base():
    w = simulate_world(SimConfig(), 7)
    g = build_nonlinear_graph(w)
    base = solve_gauss_newton(g, sorted(g.base), dead_reckoning_values(w))
    assert base.converged
    landmarks = {}
    for s in range(2):
        init_s = {k: np.array(v) for k, v in base.values.items()}
        init_s[("l", s)] = triangulate_one(w, s, base.values)
        res = solve_gauss_newton(g, sorted(g.base | g.sources[s]), init_s)
        assert res.converged
        landmarks[s] = res.values[("l", s)]
    prior, deltas = pose_information_one(g, base.values, landmarks)
    n_poses = len(w.truth_poses)
    assert prior.dim == 3 * n_poses
    for s in range(2):
        assert deltas[s].shape == (prior.dim, prior.dim)
        # information increments are PSD and the posterior is PD
        assert np.linalg.eigvalsh(deltas[s]).min() >= -1e-8
        np.linalg.cholesky(prior.info + deltas[s])
    # prior mean reproduces the base solution
    got = prior.mean.reshape(n_poses, 3)
    for i in range(n_poses):
        assert np.allclose(got[i], base.values[("x", i)], atol=1e-6)
    # the graph-read forms are the library's array-filled ones, bit for bit
    [lib_prior], [lib_deltas] = pose_information_system(
        prior.mean[None], np.array([[landmarks[0], landmarks[1]]]), *information_inputs([w])
    )
    assert lib_prior.info.tobytes() == prior.info.tobytes()
    assert [lib_deltas[s].tobytes() for s in range(2)] == [deltas[s].tobytes() for s in range(2)]


def test_metrics_invariant_under_rigid_reanchoring():
    # moving the whole linearization point by a rigid transform, with the
    # anchor measurement moved consistently, must not change MI or R
    from fgred.metrics import QualityKind, quality_info, redundancy_mc_info

    w = simulate_world(SimConfig(), 8)
    g = build_nonlinear_graph(w)
    base = solve_gauss_newton(g, sorted(g.base), dead_reckoning_values(w))
    landmarks = {}
    for s in range(2):
        init_s = {k: np.array(v) for k, v in base.values.items()}
        init_s[("l", s)] = triangulate_one(w, s, base.values)
        res = solve_gauss_newton(g, sorted(g.base | g.sources[s]), init_s)
        landmarks[s] = res.values[("l", s)]
    prior, deltas = pose_information_one(g, base.values, landmarks)

    T = Pose2(0.7, -1.3, 0.6)

    def move_pose(arr):
        return pose_array(se2_compose(T, Pose2(*arr)))

    def move_point(p):
        R = pose_rotation(T)
        return R @ np.asarray(p, dtype=float) + np.array([T.x, T.y])

    moved_anchor = PriorFactor(
        var=("x", 0),
        measurement=move_pose(g.factors[0].measurement),
        gamma=g.factors[0].gamma,
    )
    g2 = NonlinearGraph(
        variables=g.variables,
        factors=(moved_anchor,) + tuple(g.factors[1:]),
        base=g.base, sources=g.sources,
    )
    base2 = {k: (move_pose(v) if k[0] == "x" else move_point(v)) for k, v in base.values.items()}
    landmarks2 = {s: move_point(lm) for s, lm in landmarks.items()}
    prior2, deltas2 = pose_information_one(g2, base2, landmarks2)

    for s in range(2):
        for kind in QualityKind:
            a = quality_info(prior, deltas[s], kind)
            b = quality_info(prior2, deltas2[s], kind)
            assert a == pytest.approx(b, abs=1e-6, rel=1e-6)
    for kind in QualityKind:
        ra = redundancy_mc_info(prior, [deltas[0], deltas[1]], kind, n_samples=20_000, rng_seed=0)
        rb = redundancy_mc_info(prior2, [deltas2[0], deltas2[1]], kind, n_samples=20_000, rng_seed=0)
        # same invariant integral, independent sample sets
        assert abs(ra.value - rb.value) < 4 * (ra.std_error + rb.std_error)


def information_bits(sol):
    """Bytes of a solution's prior mean, prior information and increments."""
    deltas = [sol.deltas[s].tobytes() for s in sorted(sol.deltas)]
    return [sol.prior.mean.tobytes(), sol.prior.info.tobytes(), *deltas]


def test_information_forms_same_bits_in_any_block():
    worlds = [simulate_batch_world(ExperimentConfig(root_seed=5), i) for i in range(15)]
    alone = [information_bits(solve_worlds([w])[0]) for w in worlds]
    assert all(len(bits) == 4 for bits in alone)
    for size in (3, 15):
        for start in range(0, len(worlds), size):
            block = solve_worlds(worlds[start : start + size])
            assert [information_bits(sol) for sol in block] == alone[start : start + size]


def test_information_forms_two_linearizations_per_block(monkeypatch):
    worlds = [simulate_batch_world(ExperimentConfig(), i) for i in range(15)]
    solutions = solve_worlds(worlds)
    poses = np.array([sol.prior.mean for sol in solutions])
    landmarks = np.array([
        [sol.source_results[s].values[("l", s)] for s in range(2)] for sol in solutions
    ])
    sizes = []
    normal_equations = nonlinear._Plan.normal_equations

    def counted(plan, x, data):
        sizes.append(len(x))
        return normal_equations(plan, x, data)

    monkeypatch.setattr(nonlinear._Plan, "normal_equations", counted)
    priors, deltas = pose_information_system(poses, landmarks, *information_inputs(worlds))
    # one base linearization of the 15 worlds and one of their 30 sources
    assert sizes == [15, 30]
    for prior, delta, sol in zip(priors, deltas, solutions):
        assert prior.info.tobytes() == sol.prior.info.tobytes()
        assert [delta[s].tobytes() for s in range(2)] == [sol.deltas[s].tobytes() for s in range(2)]


def graph_data(worlds):
    """`_Plan.data` of the base, source and increment plans over the worlds' graphs."""
    graphs = [build_nonlinear_graph(w) for w in worlds]
    base, source, increment = nonlinear._slam_plans(worlds[0].config.n_poses)
    by_source = [(g, s) for g in graphs for s in range(2)]
    return [
        base.data([(g, sorted(g.base)) for g in graphs]),
        source.data([(g, sorted(g.base | g.sources[s])) for g, s in by_source]),
        increment.data([(g, sorted(g.sources[s])) for g, s in by_source]),
    ]


def stack_bits(data):
    return [[(a.shape, a.dtype, a.tobytes()) for a in group] for group in data]


def test_block_data_equals_graph_data():
    # the stacks filled from the worlds' arrays are the ones _Plan.data reads
    # from their graphs, bit for bit, for every plan of the block
    blocks = [
        [simulate_batch_world(ExperimentConfig(), i) for i in range(15)],
        [simulate_batch_world(ExperimentConfig(sim=SimConfig(n_poses=30), root_seed=5), i)
         for i in range(2)],
        # the shortest layout a SimConfig allows
        [simulate_batch_world(ExperimentConfig(sim=SimConfig(n_poses=2)), i) for i in range(3)],
    ]
    for worlds in blocks:
        got = nonlinear._block_data(worlds, nonlinear._slam_plans(worlds[0].config.n_poses))
        assert [stack_bits(d) for d in got] == [stack_bits(d) for d in graph_data(worlds)]
    # the stacks hold one config's whiteners, so a block holds one config
    mixed = [blocks[0][0], simulate_world(SimConfig(bearing_var=0.5), 0)]
    with pytest.raises(ValueError, match="^a block of worlds must share one config$"):
        solve_worlds(mixed)


def test_range_whitener_keeps_libm_square():
    # root seed 0, sim 2, landmark 0, pose 2 (factor 12): numpy's square of
    # the measured range differs from Python's ** (libm pow) in the last
    # bit; the filled whitener keeps the graph's bits
    world = simulate_batch_world(ExperimentConfig(), 2)
    config, r = world.config, float(world.rb_measurements[0, 1, 0])
    assert config.range_var_coeff * np.square(r) != config.range_var_coeff * r**2
    want = np.sqrt(np.diag([
        1.0 / max(config.range_var_coeff * r**2, nonlinear.VAR_FLOOR),
        1.0 / max(config.bearing_var, nonlinear.VAR_FLOOR),
    ]))
    graph = build_nonlinear_graph(world)
    _, _, increment = nonlinear._slam_plans(world.config.n_poses)
    [[(whiteners, _)]] = nonlinear._block_data([world], [increment])
    assert whiteners[0, 1].tobytes() == graph.whiteners[12].tobytes() == want.tobytes()


def test_block_builds_its_plans_once_per_layout(monkeypatch):
    # the plans depend on n_poses alone and come from the layout: a study run
    # builds each n_poses' three plans once per process, however many blocks
    # it solves, and no graph and no world beyond the blocks' own
    cfgs = [ExperimentConfig(n_sims=15), ExperimentConfig(sim=SimConfig(n_poses=30), n_sims=2)]
    worlds = [simulate_batch_world(cfgs[0], i) for i in range(2)]
    alone = [information_bits(solve_worlds([w])[0]) for w in worlds]
    assert not hasattr(nonlinear, "simulate_world")
    built, drawn, planned = [], [], []
    world_init, plan_init = sim2d.SimWorld.__init__, nonlinear._Plan.__init__

    def counted_world(self, *args, **kwargs):
        drawn.append(kwargs["seed"])
        world_init(self, *args, **kwargs)

    def counted_plan(self, layout, state):
        planned.append(len(state))
        plan_init(self, layout, state)

    monkeypatch.setattr(nonlinear, "build_nonlinear_graph", built.append)
    monkeypatch.setattr(sim2d.SimWorld, "__init__", counted_world)
    monkeypatch.setattr(nonlinear._Plan, "__init__", counted_plan)
    nonlinear._slam_plans.cache_clear()
    blocks = [(cfgs[0], range(5)), (cfgs[0], range(5, 15)), (cfgs[1], range(2)), (cfgs[1], range(1))]
    for cfg, sim_ids in blocks:
        assert all(rec.is_usable() for rec in run_block(cfg, sim_ids))
    assert built == []
    assert drawn == [world_seed(cfg.root_seed, i) for cfg, sim_ids in blocks for i in sim_ids]
    # base, source and increment plans: 11 poses, then one landmark more
    assert planned == [11, 12, 12, 31, 32, 32]
    assert [information_bits(sol) for sol in solve_worlds(worlds)] == alone


def test_block_fills_its_stacks_once(monkeypatch):
    # solve_worlds fills the base, source and increment stacks with one call
    # and hands the base and increment ones to pose_information_system
    worlds = [simulate_batch_world(ExperimentConfig(), i) for i in range(15)]
    filled, fill = [], nonlinear._block_data

    def counted(worlds, plans):
        filled.append((len(worlds), len(plans)))
        return fill(worlds, plans)

    monkeypatch.setattr(nonlinear, "_block_data", counted)
    solutions = solve_worlds(worlds)
    assert filled == [(15, 3)]
    poses = np.array([sol.prior.mean for sol in solutions])
    landmarks = np.array([
        [sol.source_results[s].values[("l", s)] for s in range(2)] for sol in solutions
    ])
    priors, _ = pose_information_system(poses, landmarks, *information_inputs(worlds))
    assert [p.info.tobytes() for p in priors] == [sol.prior.info.tobytes() for sol in solutions]


def outcome_bits(outcome):
    converged, n_iters, step_norm = outcome
    return converged, n_iters, np.float64(step_norm).tobytes()


def test_refilled_block_keeps_each_lone_solve(monkeypatch):
    # root seed 5, sims 0-7: 16 source problems, of which problems 0 and 5
    # (sim 0's source 0 and sim 2's source 1) need more than 11 steps and
    # stop at a cap of 11, and at position 4 a copy of problem 3 whose
    # range-bearing whiteners are zero, so its landmark block is singular
    # and neither its Newton system nor its normal equations factor at its
    # first step. At every capacity each problem ends with the outcome and
    # the state of its lone solve, bit for bit.
    worlds = [simulate_batch_world(ExperimentConfig(root_seed=5), i) for i in range(8)]
    _, plan, _ = plans = nonlinear._slam_plans(10)
    _, data, _ = nonlinear._block_data(worlds, plans)
    poses = nonlinear.dead_reckoning_init(worlds)
    X0 = np.concatenate(
        [poses.reshape(8, -1).repeat(2, axis=0), triangulate_landmark(worlds, poses).reshape(-1, 2)],
        axis=1,
    )
    lone, capped = [], []
    for k, x in enumerate(X0):
        world, s = worlds[k // 2], k % 2
        graph = build_nonlinear_graph(world)
        state = plan.state[:-1] + (("l", s),)
        subset = sorted(graph.base | graph.sources[s])
        res = solve_gauss_newton(graph, subset, plan.values(x, state), max_iters=11)
        outcome = (res.converged, res.n_iters, res.step_norm)
        lone.append((outcome_bits(outcome), np.concatenate([res.values[v] for v in state]).tobytes()))
        capped += [k] if outcome[:2] == (False, 11) else []
    assert capped == [0, 5]
    rb = [kernel is RangeBearingFactor.kernel for kernel, *_ in plan.groups]
    data = [
        (np.insert(w, 4, 0.0 if is_rb else w[3], axis=0), np.insert(z, 4, z[3], axis=0))
        for (w, z), is_rb in zip(data, rb)
    ]
    X0 = np.insert(X0, 4, X0[3], axis=0)
    lone.insert(4, (outcome_bits((False, 1, np.nan)), X0[4].tobytes()))
    sizes, products = [], nonlinear._Plan.products

    def counted(self, x, data, second_order=False):
        if second_order:
            sizes.append(len(x))
        return products(self, x, data, second_order)

    monkeypatch.setattr(nonlinear._Plan, "products", counted)
    for capacity in (1, 2, 3, 17):
        sizes.clear()
        X = X0.copy()
        outcomes = nonlinear.solve_gauss_newton_block(plan, data, X, capacity=capacity, max_iters=11)
        assert [(outcome_bits(o), x.tobytes()) for o, x in zip(outcomes, X)] == lone, capacity
        # never more than capacity active, and each problem's Newton system
        # is built once per iteration of its own
        assert max(sizes) == min(capacity, 17)
        assert sum(sizes) == sum(n for _, n, _ in outcomes)
    # capacity and max_iters are counts: integers, bools excluded, in range
    for kwargs, message in (
        ({"capacity": 0}, "capacity must be >= 1, got 0"),
        ({"capacity": 2.5}, "capacity must be an integer, got 2.5"),
        ({"capacity": True}, "capacity must be an integer, got True"),
        ({"capacity": 1, "max_iters": -3}, "max_iters must be >= 0, got -3"),
        ({"capacity": 1, "max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
        ({"capacity": 1, "max_iters": True}, "max_iters must be an integer, got True"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            nonlinear.solve_gauss_newton_block(plan, data, X0.copy(), **kwargs)
    graph = build_nonlinear_graph(worlds[0])
    with pytest.raises(ValueError, match="^max_iters must be an integer, got 2.5$"):
        solve_gauss_newton(graph, sorted(graph.base), dead_reckoning_values(worlds[0]), max_iters=2.5)


def test_triangulate_landmark_noiseless_exact():
    worlds = [simulate_world(zero_noise_config(), seed) for seed in (9, 10, 11)]
    seeds = triangulate_landmark(worlds, np.array([w.truth_array for w in worlds]))
    assert seeds.shape == (3, 2, 2)
    for w, got in zip(worlds, seeds):
        assert np.allclose(got, w.landmarks, atol=1e-10)


def test_nonconvergence_flagged_not_raised():
    w = simulate_world(SimConfig(), 10)
    g = build_nonlinear_graph(w)
    init = dead_reckoning_values(w)
    init = {k: np.asarray(v, dtype=float) + 0.5 for k, v in init.items()}
    init[("l", 0)] = triangulate_one(w, 0, dead_reckoning_values(w))
    res = solve_gauss_newton(g, sorted(g.base | g.sources[0]), init, max_iters=1)
    assert not res.converged
    assert res.n_iters == 1


def information_oracle(graph, subset, values, state):
    """sum_j H_j^T Gamma_j H_j and the stacked L_j^T r_j, factor by factor."""
    offsets = np.cumsum([0] + [len(values[v]) for v in state])
    col = {v: slice(offsets[i], offsets[i + 1]) for i, v in enumerate(state)}
    info = np.zeros((offsets[-1], offsets[-1]))
    rs = []
    for j in subset:
        f = graph.factors[j]
        H = np.zeros((len(factor_residual(f, values)), offsets[-1]))
        for var, jac in zip(f.vars, factor_jacobians(f, values)):
            H[:, col[var]] = jac
        info += H.T @ f.gamma @ H
        rs.append(np.linalg.cholesky(f.gamma).T @ factor_residual(f, values))
    return info, np.concatenate(rs)


def test_linearize_matches_information_oracle():
    w = simulate_world(SimConfig(n_poses=4), 11)
    g = build_nonlinear_graph(w)
    base = solve_gauss_newton(g, sorted(g.base), dead_reckoning_values(w))
    vals = {k: np.array(v) for k, v in base.values.items()}
    for s in range(2):
        vals[("l", s)] = triangulate_one(w, s, base.values)
    subsets = [sorted(g.base), sorted(g.base | g.sources[0]), sorted(g.sources[1])]
    for subset in subsets:
        state = g.touched_vars(subset)
        # columns follow the given state order, whatever it is
        for order in (state, state[::-1]):
            J, r = linearize(g, subset, vals, order)
            info, r_want = information_oracle(g, subset, vals, order)
            assert np.abs(J.T @ J - info).max() <= 1e-12 * np.abs(info).max()
            assert np.allclose(r, r_want, rtol=1e-12, atol=0.0)
            # and bit for bit what the per-factor loop builds
            J_loop, r_loop = linearize_loop(g, subset, vals, order)
            assert np.array_equal(J, J_loop) and np.array_equal(r, r_loop)
        with pytest.raises(ValueError, match="outside the state"):
            linearize(g, subset, vals, state[1:])
    # the base solve is stationary: one step from its own J, r is ~zero
    pose_state = g.touched_vars(sorted(g.base))
    J, r = linearize(g, sorted(g.base), base.values, pose_state)
    assert np.abs(np.linalg.solve(J.T @ J, J.T @ r)).max() < 1e-6
    # base factors leave the landmarks undetermined, which is why
    # pose_information_system marginalizes each source's landmark
    J, _ = linearize(g, sorted(g.base), vals, g.variables)
    assert not J[:, -4:].any()


def test_graph_rejects_bad_gamma_at_construction():
    good = np.eye(3)
    bad = [
        (ValueError, np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
        (NotPositiveDefiniteError, np.diag([1.0, -1.0, 1.0])),
        (NotPositiveDefiniteError, np.diag([1.0, 0.0, 1.0])),
    ]
    variables = (("x", 0), ("x", 1))
    for err, gamma in bad:
        factors = (
            PriorFactor(var=("x", 0), measurement=np.zeros(3), gamma=good),
            PriorFactor(var=("x", 1), measurement=np.zeros(3), gamma=gamma),
        )
        with pytest.raises(err, match="gamma of factor 1"):
            NonlinearGraph(
                variables=variables, factors=factors,
                base=frozenset({0, 1}), sources={},
            )


def test_whiteners_equal_per_factor_cholesky():
    world = simulate_batch_world(ExperimentConfig(sim=SimConfig(n_poses=30)), 0)
    g = build_nonlinear_graph(world)
    assert len(g.factors) == 91
    for j, f in enumerate(g.factors):
        ref = cholesky_pd(f.gamma).T
        assert g.whiteners[j].dtype == ref.dtype
        assert g.whiteners[j].tobytes() == ref.tobytes(), j

    rb = sorted(g.sources[1])[4]
    for err, gamma, why in [
        (NotPositiveDefiniteError, np.diag([1.0, -1.0]), "positive definite"),
        (NotPositiveDefiniteError, np.diag([1e-22, 1.0]), "positive definite"),  # pivot 1e-11
        (ValueError, np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
        (ValueError, np.array([[1.0, np.nan], [np.nan, 1.0]]), "finite$"),
        (ValueError, np.diag([np.inf, 1.0]), "finite$"),
    ]:
        factors = list(g.factors)
        f = factors[rb]
        factors[rb] = RangeBearingFactor(f.pose_var, f.landmark_var, f.measurement, gamma)
        with pytest.raises(err, match=f"^gamma of factor {rb} is not {why}"):
            NonlinearGraph(
                variables=g.variables, factors=tuple(factors),
                base=g.base, sources=g.sources,
            )
