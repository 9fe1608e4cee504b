"""Reference formulas that only the tests use.

first_bad_minor refactors every leading minor, the oracle for the minor
that gauss names from one LAPACK factorization. The conditional posterior
moments are the closed forms the metric derivations start from; the tests
check them against Monte Carlo draws of measurements. posterior_belief
and sample_measurements give a supplemented graph's exact posterior and a
measurement draw. The 1-D quadrature
redundancy is the oracle for the Monte Carlo and exact two-source
redundancies, and the x-space Monte Carlo, which draws states with
GaussianBelief.sample, is the reference for the library's draws of
standard normals. The SE(2) helpers compose, invert and relate poses one
Pose2 at a time and give a pose's array and rotation; aligned_sq_errors and
ate are one estimate's aligned errors through fgred.alignment's `_align`.
simulate_world_loop is the simulator one draw and one Pose2 at a time,
composed with se2_compose: the oracle for the library's array simulator
and its `se2.compose_chain`.
graph_layout is a graph subset's factor layout, the one a plan takes;
plan_linearize fills the dense whitened J and r of a plan's problems
through flat indices, the oracle of the plan's per-factor normal
equations, and linearize is its one-problem case; pose_information_one
gives one world's information forms from its graph's factors
(`_Plan.data`), and information_inputs the plans and stacks a block's
information forms are taken with. dead_reckoning_values and
triangulate_one are the one-world cases of the block's initial values.
The factor bodies, Jacobians and Hessians and the linearization compute
one factor at a time what fgred.nonlinear computes with one batched
kernel per factor type; the tests ask the bodies for the same bits, and
the solver loop, Newton steps on the dense J with a Gauss-Newton
fallback, for the same steps; near_pi_angles draws the angles at the wrap
boundary they are asked on.
The permutation test draws one shuffle at a time and compares
standardized rho in floats.
blas_thread_counts reads each OpenBLAS copy's thread count. None of this is
on a library path, so it lives here rather than in fgred.
"""
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.stats
from scipy import integrate

from fgred.alignment import _align
from fgred.factor_graph import SupplementedGraph
from fgred.gauss import (
    PIVOT_TOL,
    GaussianBelief,
    NotPositiveDefiniteError,
    check_symmetric,
    cholesky_pd,
    schur_complement,
    solve_pd,
)
from fgred.metrics import (
    QualityKind,
    RedundancyEstimate,
    wass_coefficients_info,
    wb_coefficients_info,
)
from fgred.nonlinear import (
    STEP_TOL,
    GaussNewtonResult,
    OdometryFactor,
    PriorFactor,
    RangeBearingFactor,
    _Plan,
    _block_data,
    _slam_plans,
    _stack,
    dead_reckoning_init,
    triangulate_landmark,
)
from fgred.se2 import Pose2, wrap_angle
from fgred.sim2d import N_LANDMARKS, SimConfig


def invert_pd(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Explicit inverse of a symmetric PD matrix (dims here are small)."""
    L = cholesky_pd(M, name=name)
    inv = scipy.linalg.cho_solve((L, True), np.eye(M.shape[0]), check_finite=False)
    return 0.5 * (inv + inv.T)


def first_bad_minor(M: np.ndarray) -> int:
    """Order of the first leading principal minor that is not positive.

    Factors every leading minor on its own with numpy's LAPACK; a minor
    fails when the factorization does or a pivot is at or below PIVOT_TOL.
    For a matrix whose minors all pass it returns the order of M.
    """
    for k in range(1, M.shape[0] + 1):
        try:
            L = np.linalg.cholesky(M[:k, :k])
        except np.linalg.LinAlgError:
            return k
        if np.diagonal(L).min() <= PIVOT_TOL:
            return k
    return M.shape[0]


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


def redundancy_quadrature_1d_info(
    prior: GaussianBelief,
    deltas: Sequence[np.ndarray],
    kind: QualityKind,
) -> float:
    """Adaptive-quadrature redundancy for 1-D states.

    Integrates min_J S_J(x) against the prior density over mu +/- 15 sigma.
    In 1-D, S_J(x) = a_J + b_J (x - mu)^2 and both a_J and b_J grow with
    Delta_J, so two sources' pieces never cross: one source is the minimum
    everywhere and the integrand is smooth.
    """
    kind = QualityKind.parse(kind)
    if prior.dim != 1:
        raise ValueError("quadrature reference only supports 1-D states")
    if not deltas:
        raise ValueError("need at least one source delta")
    # Read a_J and b_J off S_J at t = x - mu = 0 and 1.
    coefficients = wb_coefficients_info if kind is QualityKind.WB else wass_coefficients_info
    vals = np.vstack([coefficients(prior, d).at(np.array([[0.0], [1.0]])) for d in deltas])
    a = vals[:, 0]
    b = vals[:, 1] - vals[:, 0]
    mu = float(prior.mean[0])
    sigma = 1.0 / np.sqrt(float(prior.info[0, 0]))
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))

    def integrand(x: float) -> float:
        t2 = (x - mu) ** 2
        s = (a + b * t2).min()
        return s * norm * np.exp(-0.5 * t2 / sigma**2)

    val, _ = integrate.quad(
        integrand, mu - 15.0 * sigma, mu + 15.0 * sigma, epsabs=1e-9, epsrel=1e-9, limit=400
    )
    return float(val)


def redundancy_mc_x_space(
    prior: GaussianBelief,
    deltas: Sequence[np.ndarray],
    kind: QualityKind,
    n_samples: int,
    rng_seed,
) -> RedundancyEstimate:
    """redundancy_mc_info by the x-space route: states drawn with
    GaussianBelief.sample and each source scored at x - mu_B."""
    kind = QualityKind.parse(kind)
    dev = prior.sample(np.random.default_rng(rng_seed), n_samples) - prior.mean
    coefficients = wb_coefficients_info if kind is QualityKind.WB else wass_coefficients_info
    vals = np.vstack([coefficients(prior, d).at(dev) for d in deltas])
    mins = vals.min(axis=0)
    counts = np.bincount(vals.argmin(axis=0), minlength=len(deltas))
    return RedundancyEstimate(
        value=float(mins.mean()),
        std_error=float(mins.std(ddof=1) / np.sqrt(n_samples)),
        n_samples=n_samples,
        kind=kind,
        argmin_counts=tuple(int(c) for c in counts),
    )


def posterior_belief(graph: SupplementedGraph, J) -> GaussianBelief:
    """Belief after adding supplemental factors J on top of the base.

    J must be disjoint from the base; J = empty returns the prior object
    itself.
    """
    idx = tuple(sorted({int(j) for j in J}))
    overlap = set(idx) & set(graph.base)
    if overlap:
        raise ValueError(f"J intersects the base set: {sorted(overlap)}")
    prior = graph.prior_belief()
    if not idx:
        return prior
    lam_post = prior.info + graph.stack_subgraph(idx)
    rhs = sum(graph.factors[j].weighted_rhs() for j in idx)
    mean = solve_pd(lam_post, prior.info @ prior.mean + rhs, name="posterior info")
    return GaussianBelief(mean=mean, info=lam_post)


def sample_measurements(graph: SupplementedGraph, J, x: np.ndarray, rng_seed) -> np.ndarray:
    """One stacked measurement vector for factors J (ascending) given state x.

    Factor j's draw is A_j x plus Gaussian noise of covariance Gamma_j^-1,
    independent across factors.
    """
    rng = np.random.default_rng(rng_seed)
    parts = []
    for j in sorted({int(j) for j in J}):
        f = graph.factors[j]
        noise = np.linalg.solve(cholesky_pd(f.gamma, name="gamma").T, rng.standard_normal(f.rows))
        parts.append(f.A @ np.asarray(x, dtype=float) + noise)
    return np.concatenate(parts) if parts else np.zeros(0)


def expected_abs_quad(c: float, lam: np.ndarray) -> float:
    """E|c + sum_i lam_i z_i^2| by adaptive quadrature of Imhof's integral.

    Integrates (2/pi) (1 - Re phi(u)) / u^2 over octaves of u with
    scipy.integrate.quad, out to where the remaining oscillating part is
    below 1e-16 of the whole, and adds int_U^inf du / u^2 = 1 / U.
    """
    lam = np.asarray(lam, dtype=float)

    def integrand(u: float) -> float:
        x = 2.0 * u * lam
        log_rho = -0.25 * np.log1p(x * x).sum()
        half_theta = 0.5 * c * u + 0.25 * np.arctan(x).sum()
        return (-np.expm1(log_rho) + 2.0 * np.exp(log_rho) * np.sin(half_theta) ** 2) / u**2

    scale = 1.0 / np.sqrt((c + lam.sum()) ** 2 + 2.0 * lam @ lam)
    total, lo, hi = 0.0, 0.0, scale
    while True:
        part, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
        total += part
        rho = np.exp(-0.25 * np.log1p(4.0 * hi * hi * lam * lam).sum())
        if rho / hi <= 1e-16 * total:
            return 2.0 / np.pi * (total + 1.0 / hi)
        lo, hi = hi, 2.0 * hi


def simulate_world_loop(config: SimConfig, seed: int) -> tuple:
    """`simulate_world`, one draw and one Pose2 at a time.

    Returns the truth poses and odometry as Pose2 tuples, the landmarks and
    the range-bearing measurements (N_LANDMARKS, n_poses, 2).
    """
    rng = np.random.default_rng(seed)
    C = config.box_half_width
    n = config.n_poses

    landmarks = rng.uniform(-C, C, size=(N_LANDMARKS, 2))
    x0 = rng.uniform(-C / 2.0, C / 2.0, size=2)
    theta0 = rng.uniform(-np.pi, np.pi)
    poses = [Pose2(x0[0], x0[1], theta0)]

    step_mean = Pose2(*config.step_mean)
    walk_sqrt, odom_sqrt = config._walk_sqrt, config._odom_sqrt
    range_sd_coeff = np.sqrt(config.range_var_coeff)
    bearing_sd = np.sqrt(config.bearing_var)

    odometry = []
    rb = np.empty((N_LANDMARKS, n, 2))
    for i in range(1, n + 1):
        walk_noise = walk_sqrt @ rng.standard_normal(3)
        eta = Pose2(
            step_mean.x + walk_noise[0],
            step_mean.y + walk_noise[1],
            step_mean.theta + walk_noise[2],
        )
        pose = se2_compose(poses[-1], eta)
        poses.append(pose)

        odom_noise = odom_sqrt @ rng.standard_normal(3)
        odometry.append(
            Pose2(eta.x + odom_noise[0], eta.y + odom_noise[1], eta.theta + odom_noise[2])
        )

        for s in range(N_LANDMARKS):
            dx = landmarks[s, 0] - pose.x
            dy = landmarks[s, 1] - pose.y
            d = float(np.hypot(dx, dy))
            r = d + range_sd_coeff * d * rng.standard_normal()
            b = wrap_angle(
                np.arctan2(dy, dx) - pose.theta + bearing_sd * rng.standard_normal()
            )
            rb[s, i - 1] = (r, b)
    return tuple(poses), landmarks, tuple(odometry), rb


def pose_array(p: Pose2) -> np.ndarray:
    """The pose as an (x, y, theta) array."""
    return np.array([p.x, p.y, p.theta])


def se2_compose(a: Pose2, b: Pose2) -> Pose2:
    """Group composition a * b (apply b in a's frame)."""
    c, s = np.cos(a.theta), np.sin(a.theta)
    return Pose2(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        a.theta + b.theta,
    )


def se2_inverse(a: Pose2) -> Pose2:
    """Group inverse: compose(a, inverse(a)) is the identity."""
    c, s = np.cos(a.theta), np.sin(a.theta)
    return Pose2(-(c * a.x + s * a.y), s * a.x - c * a.y, -a.theta)


def se2_relative(a: Pose2, b: Pose2) -> Pose2:
    """b expressed in a's frame: a^-1 * b."""
    return se2_compose(se2_inverse(a), b)


def pose_rotation(p: Pose2) -> np.ndarray:
    """2x2 rotation matrix of the pose's heading."""
    c, s = np.cos(p.theta), np.sin(p.theta)
    return np.array([[c, -s], [s, c]])


def aligned_sq_errors(truth: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Per-pose squared errors of one (k, 2) estimate after `_align` moves it onto the truth."""
    R, t = _align(estimate[None], truth[None])
    dev = truth - (estimate @ R[0].T + t[0])
    return np.einsum("ij,ij->i", dev, dev)


def ate(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Sum of squared aligned errors for one estimate."""
    return float(aligned_sq_errors(truth, estimate).sum())


def wc_ate_loop(truth: np.ndarray, estimates: Sequence[np.ndarray]) -> float:
    """Worst-case ATE with one 2-D Umeyama alignment per estimate, (k, 2) arrays."""
    per_pose = []
    for src in estimates:
        src_c, tgt_c = src - src.mean(axis=0), truth - truth.mean(axis=0)
        U, _, Vt = np.linalg.svd(src_c.T @ tgt_c)
        R = Vt.T @ np.diag([1.0, np.sign(np.linalg.det(Vt.T @ U.T))]) @ U.T
        dev = truth - (src @ R.T + (truth.mean(axis=0) - R @ src.mean(axis=0))[None, :])
        per_pose.append(np.einsum("ij,ij->i", dev, dev))
    return float(np.stack(per_pose).max(axis=0).sum())


def wrap_scalar(a: float) -> float:
    """Wrap one angle to (-pi, pi] in Python float arithmetic."""
    w = (float(a) + np.pi) % (2.0 * np.pi) - np.pi
    if w == -np.pi:
        w = np.pi
    return float(w)


def near_pi_angles(rng, m):
    """Angles in [-pi, pi], half of them within 1e-9 of +-pi and some exactly there."""
    a = rng.uniform(-np.pi, np.pi, m)
    edge = rng.random(m) < 0.5
    a[edge] = rng.choice([-np.pi, np.pi], edge.sum()) + rng.uniform(-1e-9, 1e-9, edge.sum())
    a[:: m // 8] = rng.choice([-np.pi, np.pi], len(a[:: m // 8]))
    return a


def factor_residual(f, values) -> np.ndarray:
    """r(v) = h(v) - z of one factor, computed on scalars."""
    z = np.asarray(f.measurement, dtype=float)
    if isinstance(f, PriorFactor):
        r = np.asarray(values[f.var], dtype=float) - z
        r[2] = wrap_scalar(r[2])
        return r
    if isinstance(f, OdometryFactor):
        x1, y1, t1 = values[f.var_from]
        x2, y2, t2 = values[f.var_to]
        c, s = np.cos(t1), np.sin(t1)
        dx, dy = x2 - x1, y2 - y1
        r = np.array([c * dx + s * dy, -s * dx + c * dy, wrap_scalar(t2 - t1)]) - z
        r[2] = wrap_scalar(r[2])
        return r
    x, y, t = values[f.pose_var]
    lx, ly = values[f.landmark_var]
    dx, dy = lx - x, ly - y
    d = np.sqrt(dx * dx + dy * dy)
    return np.array([d - z[0], wrap_scalar(np.arctan2(dy, dx) - t - z[1])])


def factor_jacobians(f, values) -> tuple[np.ndarray, ...]:
    """Jacobians of h, one block per variable of the factor, on scalars."""
    if isinstance(f, PriorFactor):
        return (np.eye(3),)
    if isinstance(f, OdometryFactor):
        x1, y1, t1 = values[f.var_from]
        x2, y2, _ = values[f.var_to]
        c, s = np.cos(t1), np.sin(t1)
        dx, dy = x2 - x1, y2 - y1
        h_x = c * dx + s * dy
        h_y = -s * dx + c * dy
        j_from = np.array([[-c, -s, h_y], [s, -c, -h_x], [0.0, 0.0, -1.0]])
        j_to = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        return (j_from, j_to)
    x, y, _ = values[f.pose_var]
    lx, ly = values[f.landmark_var]
    dx, dy = lx - x, ly - y
    q = dx * dx + dy * dy
    d = np.sqrt(q)
    if d < 1e-12:
        raise ValueError("degenerate range-bearing geometry: zero distance")
    j_pose = np.array([[-dx / d, -dy / d, 0.0], [dy / q, -dx / q, -1.0]])
    j_lm = np.array([[dx / d, dy / d], [-dy / q, dx / q]])
    return (j_pose, j_lm)


def kernel_jacobians(f, values) -> list[np.ndarray]:
    """One factor's Jacobian blocks, one per variable, from its type's kernel."""
    v = np.concatenate([values[var] for var in f.vars])[None]
    _, jac = f.kernel(v, np.asarray(f.measurement, dtype=float)[None])
    return np.split(jac[0], np.cumsum([len(values[var]) for var in f.vars])[:-1], axis=1)


def graph_layout(graph, subset) -> list:
    """The (type, variables) of `subset`'s factors: the layout a `_Plan` takes."""
    return [(type(graph.factors[j]), graph.factors[j].vars) for j in subset]


def plan_linearize(plan, layout, x, data) -> tuple[np.ndarray, np.ndarray]:
    """Whitened J (p, rows, cols) and r (p, rows) of p problems of `plan` at states x (p, cols).

    The dense oracle of `_Plan.normal_equations`: rows stack the layout's
    factors in order, each type's whitened blocks are written into J through
    flat indices, and one kernel call per factor type covers every problem.
    """
    first = np.cumsum([0] + [kind.height for kind, _ in layout])
    p, n_rows, n_cols = len(x), first[-1], plan.n_cols
    J = np.zeros((p, n_rows * n_cols))
    r = np.zeros((p, n_rows))
    for (kernel, _, slots, cols, *_), (whiteners, z) in zip(plan.groups, data):
        k = z.shape[-1]
        rows = np.add.outer(first[slots], range(k))
        flat = rows[:, :, None] * n_cols + cols.T[:, None, :]
        whiteners = whiteners.reshape(-1, k, k)
        res, jac = kernel(x[:, cols.T].reshape(-1, len(cols)), z.reshape(-1, k))
        r[:, rows.ravel()] = (whiteners @ res[:, :, None]).reshape(p, -1)
        J[:, flat.ravel()] = (whiteners @ jac).reshape(p, -1)
    return J.reshape(p, n_rows, n_cols), r


def linearize(graph, subset, values, state) -> tuple[np.ndarray, np.ndarray]:
    """Whitened Jacobian J and residual r of `subset`'s factors at `values`.

    `plan_linearize` for one problem. Rows stack the factors in `subset`
    order, factor j contributing L_j^T H_j and L_j^T r_j(values), so
    J^T J = sum_j H_j^T Gamma_j H_j. Columns follow `state`, which must
    contain every variable the factors touch.
    """
    subset = list(subset)
    layout = graph_layout(graph, subset)
    plan = _Plan(layout, state)
    J, r = plan_linearize(plan, layout, _stack(values, state)[None], plan.data([(graph, subset)]))
    return J[0], r[0]


def pose_information_one(graph, base_values, landmarks) -> tuple[GaussianBelief, dict]:
    """One world's prior and {s: Delta_s}, linearized from its graph's factors.

    `pose_information_system` for one world, with the whiteners and
    measurements read from `graph` through `_Plan.data`. base_values holds
    the poses by key, landmarks[s] source s's estimate.
    """
    state = tuple(v for v in graph.variables if v[0] == "x")
    poses = _stack(base_values, state)[None]
    base = _Plan(graph_layout(graph, sorted(graph.base)), state)
    info = base.normal_equations(poses, base.data([(graph, sorted(graph.base))]))[0]
    deltas = {}
    for s in sorted(landmarks):
        subset = sorted(graph.sources[s])
        plan = _Plan(graph_layout(graph, subset), state + (("l", s),))
        x = np.concatenate([poses[0], landmarks[s]])[None]
        H = plan.normal_equations(x, plan.data([(graph, subset)]))[0]
        deltas[s] = schur_complement(H[0], np.arange(poses.shape[1]))
    return GaussianBelief(mean=poses[0], info=info[0]), deltas


def information_inputs(worlds) -> tuple[tuple, tuple]:
    """The base and increment plans of a block of worlds, and their stacks.

    The `plans` and `data` that `solve_worlds` passes to
    `pose_information_system`.
    """
    base, _, increment = _slam_plans(worlds[0].config.n_poses)
    return (base, increment), tuple(_block_data(worlds, (base, increment)))


def dead_reckoning_values(world) -> dict:
    """One world's `dead_reckoning_init` poses, by variable key."""
    return {("x", i): pose for i, pose in enumerate(dead_reckoning_init([world])[0])}


def triangulate_one(world, s: int, pose_values) -> np.ndarray:
    """Landmark s's `triangulate_landmark` seed for one world, at poses given by key."""
    poses = np.array([pose_values[("x", i)] for i in range(world.config.n_poses + 1)])
    return triangulate_landmark([world], poses[None])[0, s]


def linearize_loop(graph, subset, values, state) -> tuple[np.ndarray, np.ndarray]:
    """`linearize`, one factor at a time."""
    offsets = np.cumsum([0] + [len(values[v]) for v in state])
    col = {v: slice(offsets[i], offsets[i + 1]) for i, v in enumerate(state)}
    J_rows, r_rows = [], []
    for j in subset:
        f, Lt = graph.factors[j], graph.whiteners[j]
        block = np.zeros((Lt.shape[0], offsets[-1]))
        for var, jac in zip(f.vars, factor_jacobians(f, values)):
            block[:, col[var]] = Lt @ jac
        J_rows.append(block)
        r_rows.append(Lt @ factor_residual(f, values))
    return np.vstack(J_rows), np.concatenate(r_rows)


def factor_hessians(f, values) -> np.ndarray:
    """Hessians of h (k, d, d) of one factor over its variables' stacked columns, on scalars."""
    if isinstance(f, PriorFactor):
        return np.zeros((3, 3, 3))
    if isinstance(f, OdometryFactor):
        x1, y1, t1 = values[f.var_from]
        x2, y2, _ = values[f.var_to]
        c, s = np.cos(t1), np.sin(t1)
        dx, dy = x2 - x1, y2 - y1
        out = np.zeros((3, 6, 6))
        # d h_x / d theta_a = h_y and d h_y / d theta_a = -h_x, each linear in (x_a, y_a, x_b, y_b)
        for row, mixed, h in ((0, [s, -c, -s, c], c * dx + s * dy), (1, [c, s, -c, -s], -s * dx + c * dy)):
            out[row, 2, [0, 1, 3, 4]] = out[row, [0, 1, 3, 4], 2] = mixed
            out[row, 2, 2] = -h
        return out
    x, y, _ = values[f.pose_var]
    lx, ly = values[f.landmark_var]
    dx, dy = lx - x, ly - y
    q = dx * dx + dy * dy
    d = np.sqrt(q)
    in_offset = (
        np.array([[dy * dy, -dx * dy], [-dx * dy, dx * dx]]) / d**3,
        np.array([[2 * dx * dy, dy * dy - dx * dx], [dy * dy - dx * dx, -2 * dx * dy]]) / q**2,
    )
    out = np.zeros((2, 5, 5))
    for row, K in enumerate(in_offset):
        out[row][np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = np.kron([[1.0, -1.0], [-1.0, 1.0]], K)
    return out


def newton_system_loop(graph, subset, values, state) -> tuple:
    """J^T J, the cost's Hessian, -J^T r and the cost 1/2 |r|^2 of one problem, from the dense J.

    The Hessian adds sum_j sum_l (Gamma_j r_j)_l times the Hessian of h_jl,
    factor by factor.
    """
    J, r = linearize_loop(graph, subset, values, state)
    offsets = np.cumsum([0] + [len(values[v]) for v in state])
    col = {v: np.arange(offsets[i], offsets[i + 1]) for i, v in enumerate(state)}
    JtJ = J.T @ J
    hessian = JtJ.copy()
    for j in subset:
        f = graph.factors[j]
        cols = np.concatenate([col[v] for v in f.vars])
        weights = f.gamma @ factor_residual(f, values)
        hessian[np.ix_(cols, cols)] += np.einsum("l,lab->ab", weights, factor_hessians(f, values))
    return JtJ, hessian, -(J.T @ r), 0.5 * float(r @ r)


def solve_gauss_newton_loop(graph, subset, init, max_iters=50) -> GaussNewtonResult:
    """fgred.nonlinear.solve_gauss_newton over a dict of per-variable values, on the dense J."""
    subset = tuple(sorted({int(j) for j in subset}))
    solve_vars = graph.touched_vars(subset)
    values = {k: np.array(v, dtype=float) for k, v in init.items()}

    def retract(delta):
        out, start = dict(values), 0
        for var in solve_vars:
            d = len(values[var])
            out[var] = values[var] + delta[start : start + d]
            if var[0] == "x":
                out[var][2] = wrap_scalar(out[var][2])
            start += d
        return out

    step_norm = np.inf
    for it in range(1, max_iters + 1):
        JtJ, hessian, minus_grad, cost = newton_system_loop(graph, subset, values, solve_vars)
        try:
            delta = solve_pd(hessian, minus_grad, name="Newton system")
            trial = retract(delta)
            rows = sum(len(graph.whiteners[j]) for j in subset)
            newton = newton_system_loop(graph, subset, trial, solve_vars)[3] <= cost * (1.0 + rows * np.finfo(float).eps)
        except NotPositiveDefiniteError:
            newton = False
        if not newton:
            try:
                delta = solve_pd(JtJ, minus_grad, name="normal equations")
            except NotPositiveDefiniteError:
                return GaussNewtonResult(values, False, it, float("nan"))
            trial = retract(delta)
        step_norm = float(np.sqrt(abs(minus_grad @ delta)))
        values = trial
        if step_norm < STEP_TOL:
            return GaussNewtonResult(values, True, it, step_norm)
    return GaussNewtonResult(values, False, max_iters, step_norm)


def spearman_permutation_loop(x, y, n_shuffles, seed) -> tuple[float, int]:
    """(rho, hits): the standardized-rank permutation test, one shuffle at a time.

    A hit is a shuffle whose rho is <= the observed one, compared in floats.
    """
    ranks = [scipy.stats.rankdata(v) for v in (x, y)]
    rx, ry = ((r - r.mean()) / r.std() for r in ranks)
    n = rx.shape[0]
    rho = float(rx @ ry / n)
    rng = np.random.default_rng(seed)
    hits = sum(rx @ rng.permutation(ry) / n <= rho for _ in range(n_shuffles))
    return rho, int(hits)


def blas_thread_counts(setters) -> list[int]:
    """Each OpenBLAS copy's thread count, read through its setter."""
    counts = []
    for setter in setters:
        count = setter(1)
        setter(count)
        counts.append(count)
    return counts
