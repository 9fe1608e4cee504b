"""Nonlinear SLAM factors, Gauss-Newton, and linearization.

Variables are keyed ("x", i) for poses (width 3) and ("l", s) for landmarks
(width 2). Each factor type declares its residual height k and has one
batched kernel: given the stacked values of m factors' variables and their
stacked measurements, it returns the residuals r(v) = h(v) - z (m x k,
angles wrapped) and the Jacobians H of h (m x k x d). Each call fills one
Jacobian array it allocates; the odometry and range-bearing kernels store
it k x d x m, so that an entry's m values are one contiguous row, and
return its m x k x d view.

The SLAM factor model is stated once: `_slam_layout(n_poses)` is every
world's factor order as (type, variables) pairs, the anchor prior, the
odometry chain, then each landmark's range-bearing factors, and
`_precisions` gives their precisions Gamma = L L^T from a config and the
measured ranges; L^T is a factor's whitener.

Linearization has one path, an index plan (`_Plan`) over a layout and a
state ordering. Problems with one layout share a plan. Each problem adds
only its stacked whiteners, measurements and state, so a block of p
problems is linearized with one kernel call per factor type, and each
type's whitened blocks are written into the p stacked J through the plan's
flat indices. `solve_gauss_newton_block` runs Gauss-Newton on such a block
with at most C problems active: per iteration one batched J^T J and J^T r
and one `gauss.solve_pd_stack` over the active set. A problem leaves it
when it converges, its normal equations fail to factor or it reaches
max_iters, and the next pending problem joins at the next iteration, so a
slow problem does not keep the others waiting in a half-empty block. Each
problem counts its own iterations, and its steps are the ones it would
take alone, bit for bit. The state is one flat vector per problem,
retracted additively (pose angles re-wrapped).

`solve_block` is the study's SLAM block, and it builds no graph and no
world beyond its own. Its plans come from the layout, once per n_poses and
process (`_slam_plans`), and `_block_data` fills the block's whitener and
measurement stacks straight from the worlds' arrays. The base factors form
a tree with as many residual rows as unknowns, so their MAP fits every
factor exactly: it is dead reckoning from the anchor measurement
(`dead_reckoning_init`). A block solves only its source problems, as one
Gauss-Newton block, then hands out its worlds in chunks, each with the
information forms `pose_information_system` takes: the base prior and each
source increment J^T J = sum_j H_j^T Gamma_j H_j. The active set and the
chunks each fit _BLOCK_BYTES, sized from the plans (`_block_sizes`).

The one-problem names stay only for perfbench and the tests:
`NonlinearGraph` (which checks and factors each Gamma when it is built),
`build_nonlinear_graph`, the factors' `residual`, `_Plan.data`,
`_Plan.values`, `_stack`, `solve_gauss_newton` (the one-problem block),
`GaussNewtonResult`, `SlamSolution` and `solve_worlds`.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .gauss import GaussianBelief, _good_pivots, cholesky_pd, schur_complement, solve_pd_stack
from .se2 import compose_chain, wrap_angle
from .sim2d import N_LANDMARKS, SimConfig, SimWorld

VarKey = tuple[str, int]

# A variable's width by its key's kind: a pose (x, y, theta) or a landmark (x, y).
_WIDTHS = {"x": 3, "l": 2}

# Floor applied to measurement variances so noiseless worlds still produce
# finite factor precisions; with exact measurements the MAP is exact anyway.
VAR_FLOOR = 1e-12

# Weak anchor prior keeping the gauge fixed without dominating the estimate.
ANCHOR_SIGMA = 0.3

# Gauss-Newton has converged once no state component moves by this much.
GN_STEP_TOL = 1e-8

# Memory budget of a study block's two stages (`_block_sizes`): 76 default
# source problems active at once (34 kB each) or 10 thirty-pose ones (261 kB
# each), and chunks of 15 default worlds or 2 thirty-pose ones.
_BLOCK_BYTES = 5 << 19

Values = Mapping[VarKey, np.ndarray]


def _stack(values: Values, variables: Sequence[VarKey]) -> np.ndarray:
    """The variables' values concatenated into one flat vector."""
    return np.array([c for v in variables for c in values[v]], dtype=float)


class _Factor:
    """The residual of one factor, evaluated through its type's kernel."""

    def residual(self, values: Values) -> np.ndarray:
        v = _stack(values, self.vars)[None]
        return self.kernel(v, np.asarray(self.measurement, dtype=float)[None])[0][0]


@dataclass(frozen=True, eq=False)
class PriorFactor(_Factor):
    """Direct observation of one pose in (x, y, theta) coordinates."""

    height = 3
    var: VarKey
    measurement: np.ndarray
    gamma: np.ndarray

    @property
    def vars(self) -> tuple[VarKey, ...]:
        return (self.var,)

    @staticmethod
    def kernel(v: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (m, 3) and Jacobians (m, 3, 3); row i of v is a pose."""
        r = v - z
        r[:, 2] = wrap_angle(r[:, 2])
        jac = np.zeros((len(v), 9))
        jac[:, ::4] = 1.0
        return r, jac.reshape(-1, 3, 3)


@dataclass(frozen=True, eq=False)
class OdometryFactor(_Factor):
    """Relative-pose measurement h(X_a, X_b) = coords(X_a^-1 X_b)."""

    height = 3
    var_from: VarKey
    var_to: VarKey
    measurement: np.ndarray
    gamma: np.ndarray

    @property
    def vars(self) -> tuple[VarKey, ...]:
        return (self.var_from, self.var_to)

    @staticmethod
    def kernel(v: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (m, 3) and Jacobians (m, 3, 6); row i of v is (X_a, X_b)."""
        t1, t2 = v[:, 2], v[:, 5]
        dx, dy = v[:, 3] - v[:, 0], v[:, 4] - v[:, 1]
        # rows of H: (-c, -s, h_y, c, s, 0), (s, -c, -h_x, -s, c, 0), (0, 0, -1, 0, 0, 1)
        jac = np.zeros((3, 6, len(v)))
        c = jac[0, 3] = jac[1, 4] = np.cos(t1)
        s = jac[0, 4] = np.sin(t1)
        minus_s = jac[1, 3] = -s
        np.negative(jac[:2, 3:5], out=jac[:2, :2])
        h_x = c * dx + s * dy
        h_y = jac[0, 2] = minus_s * dx + c * dy
        jac[1, 2] = -h_x
        jac[2, 2], jac[2, 5] = -1.0, 1.0
        r = np.empty((len(v), 3))
        r[:, 0], r[:, 1], r[:, 2] = h_x, h_y, wrap_angle(t2 - t1)
        r -= z
        r[:, 2] = wrap_angle(r[:, 2])
        return r, jac.transpose(2, 0, 1)


@dataclass(frozen=True, eq=False)
class RangeBearingFactor(_Factor):
    """Range and body-frame bearing from a pose to a landmark."""

    height = 2
    pose_var: VarKey
    landmark_var: VarKey
    measurement: np.ndarray
    gamma: np.ndarray

    @property
    def vars(self) -> tuple[VarKey, ...]:
        return (self.pose_var, self.landmark_var)

    @staticmethod
    def kernel(v: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (m, 2) and Jacobians (m, 2, 5); row i of v is (X, l)."""
        dx, dy = v[:, 3] - v[:, 0], v[:, 4] - v[:, 1]
        q = dx * dx + dy * dy
        d = np.sqrt(q)
        if (d < 1e-12).any():
            raise ValueError("degenerate range-bearing geometry: zero distance")
        r = np.empty((len(v), 2))
        r[:, 0] = d - z[:, 0]
        r[:, 1] = wrap_angle(np.arctan2(dy, dx) - v[:, 2] - z[:, 1])
        # rows of H: (-dx/d, -dy/d, 0, dx/d, dy/d), (dy/q, -dx/q, -1, -dy/q, dx/q)
        jac = np.zeros((2, 5, len(v)))
        jac[0, 3], jac[0, 4], jac[1, 4] = dx / d, dy / d, dx / q
        jac[1, 3] = -dy / q
        np.negative(jac[:, 3:], out=jac[:, :2])
        jac[1, 2] = -1.0
        return r, jac.transpose(2, 0, 1)


@dataclass(frozen=True)
class NonlinearGraph:
    """Factor list plus variable ordering, base set, and source groups.

    Construction checks every factor's `gamma` as symmetric PD and keeps
    L^T of its Cholesky factor as `whiteners[j]` for every later solve.
    """

    variables: tuple[VarKey, ...]
    factors: tuple
    base: frozenset[int]
    sources: dict
    whiteners: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        whiteners = tuple(
            cholesky_pd(f.gamma, f"gamma of factor {j}").T for j, f in enumerate(self.factors)
        )
        object.__setattr__(self, "whiteners", whiteners)

    def touched_vars(self, subset: Iterable[int]) -> tuple[VarKey, ...]:
        """Variables touched by the subset's factors, in graph order."""
        touched = set()
        for j in subset:
            touched.update(self.factors[j].vars)
        return tuple(v for v in self.variables if v in touched)


@dataclass(frozen=True)
class GaussNewtonResult:
    values: dict
    converged: bool
    n_iters: int
    max_update: float


class _Plan:
    """Index structure of a factor layout over a state ordering.

    A layout is a sequence of (factor type, variables). Problems of one
    layout share a plan: the base factors of every world of a block, and
    every source problem (`_slam_plans`). slices[i] holds the columns of
    state[i], and theta the pose-angle columns. Factors are grouped by type;
    a group holds the type's kernel, the positions in the layout of its
    factors (slots), their rows of J, the columns of their variables and
    the flat indices of their blocks in J. A problem adds only its stacked
    whiteners and measurements (`data`, or `_block_data` for a block of
    worlds) and its state.
    """

    def __init__(self, layout: Sequence[tuple], state: Sequence[VarKey]):
        self.state = tuple(state)
        offsets, self.slices, self.n_cols = {}, [], 0
        for v in self.state:
            offsets[v] = self.n_cols
            self.n_cols += _WIDTHS[v[0]]
            self.slices.append(slice(offsets[v], self.n_cols))
        self.theta = np.array([offsets[v] + 2 for v in self.state if v[0] == "x"], dtype=int)
        # per type: [slots, first rows, variable offsets, its first factor's variables]
        by_type, self.n_rows = {}, 0
        for slot, (kind, variables) in enumerate(layout):
            group = by_type.setdefault(kind, [[], [], [], variables])
            group[0].append(slot)
            group[1].append(self.n_rows)
            try:
                group[2].extend([offsets[v] for v in variables])
            except KeyError as missing:
                raise ValueError(f"factor touches {missing.args[0]}, outside the state") from None
            self.n_rows += kind.height
        self.groups = []
        for kind, (slots, first_rows, starts, variables) in by_type.items():
            widths = [_WIDTHS[v[0]] for v in variables]
            var_of_col = [a for a, w in enumerate(widths) for _ in range(w)]
            within = [i for w in widths for i in range(w)]
            cols = np.array(starts).reshape(len(slots), -1)[:, var_of_col] + within
            rows = np.add.outer(first_rows, range(kind.height))
            flat = rows[:, :, None] * self.n_cols + cols[:, None, :]
            self.groups.append((kind.kernel, slots, rows.ravel(), cols, flat.ravel()))

    def data(self, problems: Sequence[tuple]) -> list:
        """Each group's whiteners (p, m, k, k) and measurements (p, m, k).

        problems are p (graph, subset) pairs; m is the group's factor count
        and k its residual size.
        """
        out = []
        for _, slots, _, _, _ in self.groups:
            ids = [(g, [subset[i] for i in slots]) for g, subset in problems]
            whiteners = np.array([g.whiteners[j] for g, js in ids for j in js])
            z = np.array([g.factors[j].measurement for g, js in ids for j in js], dtype=float)
            p, m = len(problems), len(slots)
            out.append((whiteners.reshape(p, m, *whiteners.shape[1:]), z.reshape(p, m, -1)))
        return out

    def values(self, x: np.ndarray, state: Sequence[VarKey] = ()) -> dict:
        """A problem's state x (cols,) by variable: `state`'s keys, else the plan's."""
        return dict(zip(state or self.state, (x[cols] for cols in self.slices)))

    def linearize(self, x: np.ndarray, data: list) -> tuple[np.ndarray, np.ndarray]:
        """Whitened J (p, rows, cols) and r (p, rows) of p problems at states x (p, cols).

        One kernel call per factor type covers every problem.
        """
        p = len(x)
        J = np.zeros((p, self.n_rows * self.n_cols))
        r = np.zeros((p, self.n_rows))
        for (kernel, _, rows, cols, flat), (whiteners, z) in zip(self.groups, data):
            whiteners = whiteners.reshape(-1, *whiteners.shape[2:])
            res, jac = kernel(x[:, cols].reshape(-1, cols.shape[1]), z.reshape(-1, z.shape[2]))
            r[:, rows] = (whiteners @ res[:, :, None]).reshape(p, -1)
            J[:, flat] = (whiteners @ jac).reshape(p, -1)
        return J.reshape(p, self.n_rows, self.n_cols), r

    def normal_equations(self, x: np.ndarray, data: list) -> tuple[np.ndarray, np.ndarray]:
        """J^T J (p, cols, cols) and -J^T r (p, cols) at states x; J is freed on return."""
        J, r = self.linearize(x, data)
        Jt = J.transpose(0, 2, 1)
        return Jt @ J, -(Jt @ r[:, :, None])[:, :, 0]


def solve_gauss_newton(
    graph: NonlinearGraph,
    subset: Iterable[int],
    init: Values,
    max_iters: int = 50,
) -> GaussNewtonResult:
    """Gauss-Newton over the variables touched by `subset`.

    The subset must include the base factors so the normal equations are
    well posed. Non-convergence within max_iters is reported through the
    flag, never raised; a singular step also just flags failure. This is
    the one-problem block of `solve_gauss_newton_block`.
    """
    subset = sorted({int(j) for j in subset})
    if not graph.base <= set(subset):
        raise ValueError("subset must include every base factor")
    solve_vars = graph.touched_vars(subset)
    for v in solve_vars:
        if v not in init:
            raise ValueError(f"initial values missing variable {v}")
    plan = _Plan([(type(graph.factors[j]), graph.factors[j].vars) for j in subset], solve_vars)
    X = _stack(init, solve_vars)[None]
    [outcome] = solve_gauss_newton_block(plan, plan.data([(graph, subset)]), X, 1, max_iters)
    values = {k: np.array(v, dtype=float) for k, v in init.items()}
    values.update(plan.values(X[0]))
    return GaussNewtonResult(values, *outcome)


def solve_gauss_newton_block(
    plan: _Plan, data: list, X: np.ndarray, capacity: int, max_iters: int = 50
) -> list[tuple[bool, int, float]]:
    """Gauss-Newton on p problems that share `plan`, at most `capacity` at a time.

    data holds the problems' stacked whiteners and measurements in
    `_Plan.data`'s layout, and X (p, cols) their initial states; X is
    updated in place to the final states. A problem leaves the active set
    when no state component moves by GN_STEP_TOL, its normal equations fail
    to factor or it has taken max_iters steps; its state is then frozen, and
    the next pending problem, in index order, joins at the next iteration.
    Returns each problem's (converged, n_iters, max_update).
    """
    n = len(X)
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    converged = np.zeros(n, dtype=bool)
    n_iters = np.zeros(n, dtype=int)
    max_update = np.full(n, np.inf)
    active, left = np.arange(0), False
    pending = 0 if max_iters >= 1 else n  # with no step allowed, no problem joins
    while True:
        joining = min(capacity - len(active), n - pending)
        if joining:
            active = np.concatenate([active, np.arange(pending, pending + joining)])
            pending += joining
        if not active.size:
            break
        if joining or left:
            active_data = [(whiteners[active], z[active]) for whiteners, z in data]
        x = X[active]
        n_iters[active] += 1
        delta, failed = solve_pd_stack(*plan.normal_equations(x, active_data), "normal equations")
        stay = np.ones(len(active), dtype=bool)
        if failed:
            stay[list(failed)] = False
            max_update[active[~stay]] = np.nan
            x, delta = x[stay], delta[stay]
        moved = active[stay]
        x += delta
        x[:, plan.theta] = wrap_angle(x[:, plan.theta])
        X[moved] = x
        max_update[moved] = np.abs(delta).max(axis=1, initial=0.0)
        converged[moved] = max_update[moved] < GN_STEP_TOL
        stay[stay] = ~converged[moved] & (n_iters[moved] < max_iters)
        left = not stay.all()
        active = active[stay]
    return list(zip(converged.tolist(), n_iters.tolist(), max_update.tolist()))


def pose_information_system(
    poses: np.ndarray, landmarks: np.ndarray, plans: tuple, data: tuple
) -> tuple[list[GaussianBelief], list[dict]]:
    """Pose-marginal information forms of a block of worlds, for redundancy evaluation.

    World i's factors are linearized at one point: its stacked poses
    `poses[i]` (w x 3(n+1)), the base MAP, and for source s its landmark
    estimate `landmarks[i, s]` (w x sources x 2). Sharing the poses keeps
    the gauge-like directions of each Delta_s aligned with the prior's weak
    directions, so sources are compared on measurement content, not on
    where they were linearized. plans are the block's base and increment
    `_Plan`s and data their `_block_data` stacks. The base factors give
    Lambda_B = J^T J, and the prior mean is the base poses. Each source's
    range-bearing factors are linearized over (poses + its landmark), and
    Schur-marginalizing the landmark out of J^T J leaves an increment
    Delta_s over the poses. Returns each world's prior and its {s: Delta_s}.
    """
    (base, increment), (base_data, increment_data) = plans, data
    info, _ = base.normal_equations(poses, base_data)
    n_sources = landmarks.shape[1]
    x = np.concatenate([poses.repeat(n_sources, axis=0), landmarks.reshape(-1, 2)], axis=1)
    increments, _ = increment.normal_equations(x, increment_data)
    keep = np.arange(poses.shape[1])
    deltas = [
        {s: schur_complement(H, keep) for s, H in enumerate(world)}
        for world in increments.reshape(len(poses), n_sources, *increments.shape[1:])
    ]
    return [GaussianBelief(mean=mean, info=H) for mean, H in zip(poses, info)], deltas


def _slam_layout(n_poses: int) -> tuple:
    """The factors of every SLAM world of n_poses as (type, variables) pairs, in factor order.

    The anchor prior on X_0 and the odometry chain are the base factors;
    then source s, landmark s's range-bearing factors from X_1, ..., X_n.
    """
    steps = range(1, n_poses + 1)
    return (
        ((PriorFactor, (("x", 0),)),)
        + tuple((OdometryFactor, (("x", i - 1), ("x", i))) for i in steps)
        + tuple((RangeBearingFactor, (("x", i), ("l", s))) for s in range(N_LANDMARKS) for i in steps)
    )


def _precisions(config: SimConfig, ranges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The precisions of the anchor, of each odometry factor and of each range-bearing pair.

    The anchor has sigma ANCHOR_SIGMA per component. Odometry inverts the
    config's covariance, its eigenvalues floored at VAR_FLOOR. ranges are
    measured ranges (the quantity the robot has) of any shape, and their
    (range, bearing) precisions have that shape plus (2,). The range
    variance grows with the range and is floored, as the bearing variance
    is. The range's square is Python's float ** (libm's pow): numpy's
    elementwise square differs from it in the last bit on some ranges.
    """
    cov = np.asarray(config.sigma_odom, dtype=float)
    w, V = np.linalg.eigh(0.5 * (cov + cov.T))
    coeff, rb = config.range_var_coeff, np.empty(ranges.shape + (2,))
    rb[..., 0] = np.reshape(
        [1.0 / max(coeff * max(r, 1e-3) ** 2, VAR_FLOOR) for r in ranges.ravel().tolist()], ranges.shape
    )
    rb[..., 1] = 1.0 / max(config.bearing_var, VAR_FLOOR)
    return np.eye(3) / ANCHOR_SIGMA**2, V @ np.diag(1.0 / np.clip(w, VAR_FLOOR, None)) @ V.T, rb


def build_nonlinear_graph(world: SimWorld) -> NonlinearGraph:
    """SLAM graph of a simulated world: `_slam_layout`'s factors with their `_precisions`.

    The anchor measures the true initial pose, and source s holds landmark
    s's range-bearing factors.
    """
    n = world.config.n_poses
    anchor, odometry, rb = _precisions(world.config, world.rb_measurements[..., 0])
    measurements = [world.truth_array[0], *world.odometry_array, *world.rb_measurements.reshape(-1, 2)]
    gammas = [anchor] + [odometry] * n + [np.diag(p) for p in rb.reshape(-1, 2)]
    return NonlinearGraph(
        variables=tuple(("x", i) for i in range(n + 1)) + tuple(("l", s) for s in range(N_LANDMARKS)),
        factors=tuple(
            kind(*variables, z.copy(), gamma)
            for (kind, variables), z, gamma in zip(_slam_layout(n), measurements, gammas)
        ),
        base=frozenset(range(n + 1)),
        sources={s: frozenset(range(n + 1 + s * n, n + 1 + (s + 1) * n)) for s in range(N_LANDMARKS)},
    )


@functools.cache
def _slam_plans(n_poses: int) -> tuple[_Plan, _Plan, _Plan]:
    """The base, source and increment plans of every world of n_poses, built once per process.

    The source plan holds the base factors and source 0's over the poses and
    landmark 0, the increment plan source 0's alone; source s's problems use
    them with landmark s.
    """
    layout, poses = _slam_layout(n_poses), tuple(("x", i) for i in range(n_poses + 1))
    base, source = layout[: n_poses + 1], layout[n_poses + 1 : 2 * n_poses + 1]
    return _Plan(base, poses), _Plan(base + source, poses + (("l", 0),)), _Plan(source, poses + (("l", 0),))


def _block_data(worlds: Sequence[SimWorld], plans: Sequence[_Plan]) -> list[list]:
    """Each plan's (whiteners, z) stacks for a block of worlds, filled from their arrays.

    The worlds must share one config. The layout is `_Plan.data`'s over the
    worlds' graphs: a plan over the poses alone has one problem per world,
    and a plan with a landmark one per world and source, world-major. The
    anchor and odometry whiteners are factored once per block, under the
    names a graph gives its factors 0 and 1. A range-bearing whitener is
    diagonal: the square roots of its range and bearing precisions, which
    are the bits of a graph's factor. The block's first precision whose
    root fails the pivot rule is factored as a graph factors it, which
    raises the graph's error, naming that factor.
    """
    config = worlds[0].config
    if any(w.config != config for w in worlds):
        raise ValueError("a block of worlds must share one config")
    rb = np.array([w.rb_measurements for w in worlds])
    anchor, odometry, precisions = _precisions(config, rb[..., 0])
    anchor, odometry = cholesky_pd(anchor, "gamma of factor 0"), cholesky_pd(odometry, "gamma of factor 1")
    roots = np.sqrt(precisions)[..., None] * np.eye(2)
    bad = np.flatnonzero(~_good_pivots(roots).all(axis=-1))
    if bad.size:
        n = config.n_poses
        j = n + 1 + bad[0] % (N_LANDMARKS * n)
        cholesky_pd(np.diag(precisions.reshape(-1, 2)[bad[0]]), f"gamma of factor {j}")  # raises
    per_world = {
        kernel: (np.broadcast_to(L.T, z.shape + z.shape[-1:]).copy(), z)
        for kernel, L, z in (
            (PriorFactor.kernel, anchor, np.array([w.truth_array[:1] for w in worlds])),
            (OdometryFactor.kernel, odometry, np.array([w.odometry_array for w in worlds])),
        )
    }
    per_source = {k: tuple(a.repeat(N_LANDMARKS, axis=0) for a in v) for k, v in per_world.items()}
    per_source[RangeBearingFactor.kernel] = tuple(a.reshape(-1, *a.shape[2:]) for a in (roots, rb))
    out = []
    for plan in plans:
        by_kernel = per_source if plan.state[-1][0] == "l" else per_world
        out.append([by_kernel[kernel] for kernel, *_ in plan.groups])
    return out


def dead_reckoning_init(worlds: Sequence[SimWorld]) -> np.ndarray:
    """The base MAP poses (w, n_poses + 1, 3): odometry composed from the anchor measurement.

    The anchor prior and the odometry chain fit these poses exactly, so
    they are the base solution and the source solves' initial poses.
    """
    start = np.array([w.truth_array[0] for w in worlds])
    return compose_chain(start, np.array([w.odometry_array for w in worlds]))


def triangulate_landmark(worlds: Sequence[SimWorld], poses: np.ndarray) -> np.ndarray:
    """Seed each landmark (w, N_LANDMARKS, 2) from its first range-bearing measurement.

    poses (w, n_poses + 1, 3) are the worlds' pose estimates; the
    measurement is taken from pose X_1.
    """
    first = np.array([w.rb_measurements[:, 0] for w in worlds])
    r, heading = first[..., 0], poses[:, 1, 2, None] + first[..., 1]
    return np.stack(
        [poses[:, 1, 0, None] + r * np.cos(heading), poses[:, 1, 1, None] + r * np.sin(heading)],
        axis=-1,
    )


def _block_sizes(n_poses: int) -> tuple[int, int]:
    """Source problems active at once and worlds per chunk in a block of n_poses, within _BLOCK_BYTES.

    An active source problem holds its dense J, J^T J and symmetrized J^T J.
    A chunk's traced peak was 2.46 (10 poses) and 2.59 (30 poses) times its
    base and increment J and J^T J, so a world counts 2.5 times those bytes.
    """
    base, source, increment = _slam_plans(n_poses)
    problem = 8 * source.n_cols * (source.n_rows + 2 * source.n_cols)
    world = 20 * (
        base.n_cols * (base.n_rows + base.n_cols)
        + N_LANDMARKS * increment.n_cols * (increment.n_rows + 2 * increment.n_cols)
    )
    return max(1, _BLOCK_BYTES // problem), max(1, _BLOCK_BYTES // world)


def solve_block(worlds: Sequence[SimWorld]) -> Iterator[tuple]:
    """The source solves of worlds of one config as one Gauss-Newton block, then their chunks.

    The base poses are the base MAP in closed form, `dead_reckoning_init`,
    and each landmark is triangulated there. One `_block_data` call fills
    every stack of the worlds' n_poses' plans (`_slam_plans`), and
    `_block_sizes` bounds the active source problems and the worlds per
    chunk. Yields, per chunk, its slice of the worlds, its priors and
    increments (`pose_information_system` at the base poses and the source
    landmarks), and its source problems' final states (poses, then
    landmark; world-major) and (converged, n_iters, max_update). An
    exception in any world's solves is raised for the whole block.
    """
    n_poses = worlds[0].config.n_poses
    base_plan, source_plan, increment_plan = plans = _slam_plans(n_poses)
    base_data, source_data, increment_data = _block_data(worlds, plans)
    poses = dead_reckoning_init(worlds)
    guess = triangulate_landmark(worlds, poses)
    poses = poses.reshape(len(worlds), -1)
    states = np.concatenate([poses.repeat(N_LANDMARKS, axis=0), guess.reshape(-1, 2)], axis=1)
    capacity, size = _block_sizes(n_poses)
    outcomes = solve_gauss_newton_block(source_plan, source_data, states, capacity=capacity)
    del source_data  # the chunks read only the base and increment stacks
    for start in range(0, len(worlds), size):
        chunk, a, b = slice(start, start + size), start * N_LANDMARKS, (start + size) * N_LANDMARKS
        data = [(w[chunk], z[chunk]) for w, z in base_data], [(w[a:b], z[a:b]) for w, z in increment_data]
        landmarks = states[a:b, -2:].reshape(-1, N_LANDMARKS, 2)
        priors, deltas = pose_information_system(poses[chunk], landmarks, (base_plan, increment_plan), data)
        yield chunk, priors, deltas, states[a:b], outcomes[a:b]


@dataclass(frozen=True)
class SlamSolution:
    """One world's base poses, per-source solves and pose-marginal information forms."""

    base_result: GaussNewtonResult
    source_results: dict
    prior: GaussianBelief
    deltas: dict


def solve_worlds(worlds: Sequence[SimWorld]) -> list[SlamSolution]:
    """Solve the per-source SLAM problems of worlds of one config: `solve_block`, per world.

    Each world's `base_result` holds its base poses, its prior's mean,
    converged after 0 iterations. Each world's solution is the one it gets
    alone, bit for bit. An exception in any world's solves is raised for
    the whole block.
    """
    base_plan, source_plan, _ = _slam_plans(worlds[0].config.n_poses)
    keys = [source_plan.state[:-1] + (("l", s),) for s in range(N_LANDMARKS)]
    solutions = []
    for _, priors, deltas, states, outcomes in solve_block(worlds):
        results = [
            GaussNewtonResult(source_plan.values(x, keys[k % N_LANDMARKS]), *outcome)
            for k, (x, outcome) in enumerate(zip(states, outcomes))
        ]
        solutions += [
            SlamSolution(
                GaussNewtonResult(base_plan.values(prior.mean), converged=True, n_iters=0, max_update=0.0),
                dict(enumerate(results[i * N_LANDMARKS : (i + 1) * N_LANDMARKS])),
                prior,
                delta,
            )
            for i, (prior, delta) in enumerate(zip(priors, deltas))
        ]
    return solutions
