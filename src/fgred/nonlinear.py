"""Nonlinear SLAM factors, their normal equations, and the Newton solver.

Variables are keyed ("x", i) for poses (width 3) and ("l", s) for landmarks
(width 2). Each factor type has one batched kernel: given the stacked values
of m factors' variables and their measurements, it returns the residuals
r = h(v) - z (m x k, angles wrapped) and the Jacobians H of h (m x k x d);
the odometry and range-bearing types also give `curvature`, the weighted
sum of h's Hessians. `_slam_layout(n_poses)` is every world's factor order
and `_precisions` its precisions Gamma = L L^T; L^T whitens a factor.

A `_Plan` indexes a layout over a state ordering, and problems of one
layout share it. Its `products` are each factor's J_j^T J_j and J_j^T r_j
(J_j = L^T H_j), with one kernel call per factor type for a whole block of
problems, and `sums` scatters them into the lower triangle of each
problem's normal equations through index arrays built once; no dense J is
formed. `solve_gauss_newton_block` minimizes 1/2 |L^T r|^2 with at most
`capacity` problems active, refilled as problems leave: each iteration
takes the Newton step on the cost's Hessian where it is PD and does not
raise the cost, else the Gauss-Newton step, and a problem stops once its
step's |J delta| (or Newton decrement) is below STEP_TOL measurement SDs.
Each problem takes the steps it would take alone, bit for bit.

`solve_block` is the study's path. The base MAP is dead reckoning
(`dead_reckoning_init`), so a block solves only its source problems, then
hands out its worlds in chunks with `pose_information_system`'s forms: the
base prior and each source's J^T J, its landmark Schur-marginalized. The
active set and the chunks fit _BLOCK_BYTES (`_block_sizes`). The
one-problem names (`NonlinearGraph`, `build_nonlinear_graph`, the factors'
`residual`, `_Plan.data`, `_Plan.values`, `_stack`, `solve_gauss_newton`,
`GaussNewtonResult`, `SlamSolution`, `solve_worlds`) serve perfbench and
the tests.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .gauss import GaussianBelief, _good_pivots, cholesky_pd, schur_complement, solve_pd_stack
from .se2 import compose_chain, wrap_angle
from .sim2d import N_LANDMARKS, SimConfig, SimWorld, _check_count

VarKey = tuple[str, int]

# A variable's width by its key's kind: a pose (x, y, theta) or a landmark (x, y).
_WIDTHS = {"x": 3, "l": 2}

# Floor applied to measurement variances so noiseless worlds still produce
# finite factor precisions; with exact measurements the MAP is exact anyway.
VAR_FLOOR = 1e-12

# Weak anchor prior keeping the gauge fixed without dominating the estimate.
ANCHOR_SIGMA = 0.3

# A solve has converged once its step moves the whitened residuals by less
# than this, |J delta| in measurement standard deviations.
STEP_TOL = 1e-8
# Steps a solve may take; one that takes them all unconverged is capped.
MAX_ITERS = 50

# Memory budget of a study block's two stages (`_block_sizes`): 89 default
# source problems active at once (29 kB each) or 17 thirty-pose ones (152 kB
# each), and chunks of 16 default worlds or 2 thirty-pose ones.
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

    @staticmethod
    def curvature(v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """sum_l w_l times the Hessian of h_l (m, 6, 6) for weights w (m, 3).

        h_x and h_y are bilinear in the rotation by theta_a and the
        translation, and the angle is linear, so only theta_a's row and
        column are nonzero.
        """
        c, s = np.cos(v[:, 2]), np.sin(v[:, 2])
        dx, dy = v[:, 3] - v[:, 0], v[:, 4] - v[:, 1]
        out = np.zeros((6, 6, len(v)))
        out[2, 0] = out[0, 2] = w[:, 0] * s + w[:, 1] * c
        out[2, 1] = out[1, 2] = w[:, 1] * s - w[:, 0] * c
        np.negative(out[2, :2], out=out[2, 3:5])
        out[3:5, 2] = out[2, 3:5]
        out[2, 2] = -(w[:, 0] * (c * dx + s * dy) + w[:, 1] * (c * dy - s * dx))
        return out.transpose(2, 0, 1)


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

    @staticmethod
    def curvature(v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """sum_l w_l times the Hessian of h_l (m, 5, 5) for weights w (m, 2).

        Both h depend on the pose's position and the landmark only through
        (dx, dy) = l - (x, y), so the Hessian is K on the position and
        landmark blocks and -K between them, with K = w_0 (dy^2, -dx dy,
        dx^2) / d^3 + w_1 (2 dx dy, dy^2 - dx^2, -2 dx dy) / q^2 the Hessians
        of d and of atan2(dy, dx) in (dx, dy); theta enters linearly.
        """
        dx, dy = v[:, 3] - v[:, 0], v[:, 4] - v[:, 1]
        q = dx * dx + dy * dy
        u, t, xy = w[:, 0] / (q * np.sqrt(q)), w[:, 1] / (q * q), dx * dy
        K = np.empty((2, 2, len(v)))
        K[0, 0], K[1, 1] = u * dy * dy + 2 * t * xy, u * dx * dx - 2 * t * xy
        K[0, 1] = K[1, 0] = t * (dy * dy - dx * dx) - u * xy
        out = np.zeros((5, 5, len(v)))
        out[:2, :2] = out[3:, 3:] = K
        out[:2, 3:] = out[3:, :2] = -K
        return out.transpose(2, 0, 1)


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
    step_norm: float


class _Plan:
    """Index structure of a factor layout over a state ordering.

    A layout is a sequence of (factor type, variables). Problems of one
    layout share a plan: the base factors of every world of a block, and
    every source problem (`_slam_plans`). slices[i] holds the columns of
    state[i], and theta the pose-angle columns. Factors are grouped by type;
    a group holds the type's kernel and curvature (None for a linear
    factor), the positions in the layout of its factors (slots), the columns
    of their variables (d, m), the pairs (a >= b) of a factor's d columns in
    row-major order, and each pair's flat index in the lower triangle of a
    problem's normal equations (pairs, m). n_rows counts the residual rows.
    A problem adds only its stacked whiteners and measurements (`data`, or
    `_block_data` for a block of worlds) and its state.
    """

    def __init__(self, layout: Sequence[tuple], state: Sequence[VarKey]):
        self.state = tuple(state)
        offsets, self.slices, self.n_cols = {}, [], 0
        for v in self.state:
            offsets[v] = self.n_cols
            self.n_cols += _WIDTHS[v[0]]
            self.slices.append(slice(offsets[v], self.n_cols))
        self.theta = np.array([offsets[v] + 2 for v in self.state if v[0] == "x"], dtype=int)
        # per type: [slots, variable offsets, its first factor's variables]
        by_type, self.n_rows = {}, 0
        for slot, (kind, variables) in enumerate(layout):
            group = by_type.setdefault(kind, [[], [], variables])
            group[0].append(slot)
            self.n_rows += kind.height
            try:
                group[1].extend([offsets[v] for v in variables])
            except KeyError as missing:
                raise ValueError(f"factor touches {missing.args[0]}, outside the state") from None
        self.groups = []
        for kind, (slots, starts, variables) in by_type.items():
            widths = [_WIDTHS[v[0]] for v in variables]
            var_of_col = [a for a, w in enumerate(widths) for _ in range(w)]
            within = [i for w in widths for i in range(w)]
            cols = (np.array(starts).reshape(len(slots), -1)[:, var_of_col] + within).T
            pairs = np.tril_indices(len(cols))
            a, b = cols[pairs[0]], cols[pairs[1]]
            entries = np.maximum(a, b) * self.n_cols + np.minimum(a, b)
            self.groups.append((kind.kernel, getattr(kind, "curvature", None), slots, cols, pairs, entries))
        self.n_products = sum(entries.size for *_, entries in self.groups)

    def data(self, problems: Sequence[tuple]) -> list:
        """Each group's whiteners (p, m, k, k) and measurements (p, m, k).

        problems are p (graph, subset) pairs; m is the group's factor count
        and k its residual size.
        """
        out = []
        for _, _, slots, *_ in self.groups:
            ids = [(g, [subset[i] for i in slots]) for g, subset in problems]
            whiteners = np.array([g.whiteners[j] for g, js in ids for j in js])
            z = np.array([g.factors[j].measurement for g, js in ids for j in js], dtype=float)
            p, m = len(problems), len(slots)
            out.append((whiteners.reshape(p, m, *whiteners.shape[1:]), z.reshape(p, m, -1)))
        return out

    def values(self, x: np.ndarray, state: Sequence[VarKey] = ()) -> dict:
        """A problem's state x (cols,) by variable: `state`'s keys, else the plan's."""
        return dict(zip(state or self.state, (x[cols] for cols in self.slices)))

    def _whitened(self, x: np.ndarray, data: list) -> Iterator[tuple]:
        """Per group at states x (p, cols), for its M = p m factors: the kernel's
        inputs v (M, d) and Jacobians (M, k, d), the whiteners L^T (k, k, M)
        and the whitened residuals L^T r (k, M).
        """
        for (kernel, _, _, cols, *_), (whiteners, z) in zip(self.groups, data):
            v = x[:, cols.T].reshape(-1, len(cols))
            res, jac = kernel(v, z.reshape(-1, z.shape[-1]))
            L_t = np.ascontiguousarray(whiteners.reshape(-1, *whiteners.shape[2:]).transpose(1, 2, 0))
            yield v, jac, L_t, np.einsum("ilm,ml->im", L_t, res)

    def cost(self, x: np.ndarray, data: list) -> np.ndarray:
        """1/2 |L^T r|^2 (p,) of p problems at states x (p, cols)."""
        return sum((_half_square(r, len(x)) for *_, r in self._whitened(x, data)), np.zeros(len(x)))

    def products(self, x: np.ndarray, data: list, second_order: bool = False) -> tuple[list, np.ndarray]:
        """Each factor's blocks at states x (p, cols), and the problems' cost 1/2 |r|^2 (p,).

        J and r are whitened: factor j has J_j = L_j^T H_j and L_j^T r_j.
        Per group, over its M = p m factors: J_j^T J_j at the group's pairs
        (pairs, M), with second_order its second-order block there, sum_l
        (Gamma_j r_j)_l times the Hessian of h_l (None for a linear factor),
        and J_j^T r_j (d, M).
        """
        p = len(x)
        cost, out = np.zeros(p), []
        for (_, curvature, _, _, pairs, _), (v, jac, L_t, r) in zip(self.groups, self._whitened(x, data)):
            cost += _half_square(r, p)
            J = np.einsum("ilm,mla->iam", L_t, jac)
            second = None
            if second_order and curvature is not None:
                second = curvature(v, np.einsum("ilm,im->ml", L_t, r)).transpose(1, 2, 0)[pairs]
            out.append((np.einsum("iam,ibm->abm", J, J)[pairs], second, np.einsum("iam,im->am", J, r)))
        return out, cost

    def sums(self, blocks: Iterable[np.ndarray], p: int, full: bool = False) -> np.ndarray:
        """The lower triangles (p, cols, cols) of p problems' sums of their factors' blocks.

        blocks holds one (pairs, p m) per group. Each is scattered through
        the plan's indices, so no J is formed, and a problem's sums run in
        an order the other problems do not change. The strict upper
        triangles stay zero, or with full are scattered too, at the mirrored
        entries in the same order, so each sum is symmetric bit for bit.
        """
        n = self.n_cols
        out = np.zeros(p * n * n)
        offsets = n * n * np.arange(p)[:, None]
        for (*_, pairs, entries), block in zip(self.groups, blocks):
            np.add.at(out, (entries[:, None] + offsets).ravel(), block.ravel())
            if full:
                off = pairs[0] != pairs[1]
                mirrored = entries[off] % n * n + entries[off] // n
                np.add.at(out, (mirrored[:, None] + offsets).ravel(), block[off].ravel())
        return out.reshape(p, n, n)

    def gradient(self, products: list, p: int) -> np.ndarray:
        """J^T r (p, cols) of p problems from their `products`."""
        n = self.n_cols
        out = np.zeros(p * n)
        for (_, _, _, cols, *_), (_, _, g) in zip(self.groups, products):
            np.add.at(out, (cols[:, None] + n * np.arange(p)[:, None]).ravel(), g.ravel())
        return out.reshape(p, n)

    def normal_equations(self, x: np.ndarray, data: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """J^T J (p, cols, cols), -J^T r (p, cols) and the cost (p,) of p problems at states x."""
        products, cost = self.products(x, data)
        normal = self.sums((jtj for jtj, _, _ in products), len(x), full=True)
        return normal, -self.gradient(products, len(x)), cost


def _half_square(r: np.ndarray, p: int) -> np.ndarray:
    """1/2 |r|^2 (p,) of one group's whitened residuals (k, p m), summed in an order p does not change."""
    return 0.5 * (r * r).reshape(len(r), p, -1).sum(axis=2).sum(axis=0)


def solve_gauss_newton(
    graph: NonlinearGraph,
    subset: Iterable[int],
    init: Values,
    max_iters: int = MAX_ITERS,
) -> GaussNewtonResult:
    """`solve_gauss_newton_block` on one problem: the variables touched by `subset`.

    The subset must include the base factors so the normal equations are
    well posed. Non-convergence within max_iters is reported through the
    flag, never raised; a singular step also just flags failure.
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
    plan: _Plan, data: list, X: np.ndarray, capacity: int, max_iters: int = MAX_ITERS
) -> list[tuple[bool, int, float]]:
    """Minimize 1/2 |r|^2 for p problems that share `plan`, at most `capacity` at a time.

    data holds the problems' stacked whiteners and measurements in
    `_Plan.data`'s layout, and X (p, cols) their initial states; X is
    updated in place to the final states. Each iteration takes the Newton
    step where the cost's Hessian is PD and the step does not raise the
    cost, else the Gauss-Newton step on J^T J. A problem leaves the active
    set when its step's |g . delta|^(1/2) (g the gradient J^T r) falls
    below STEP_TOL, when J^T J fails to factor or after max_iters steps; its
    state is then frozen, and the next pending problem, in index order,
    joins at the next iteration. That measure is |J delta| for a
    Gauss-Newton step and the Newton decrement for a Newton step, in
    measurement SDs; its square is twice the cost decrease the step's model
    predicts.
    Returns each problem's (converged, n_iters, step_norm), step_norm being
    that measure of its last step (NaN if J^T J failed to factor).
    """
    _check_count("capacity", capacity, 1)
    _check_count("max_iters", max_iters, 0)
    n = len(X)
    converged = np.zeros(n, dtype=bool)
    n_iters = np.zeros(n, dtype=int)
    step_norm = np.full(n, np.inf)
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
        products, cost = plan.products(x, active_data, second_order=True)
        minus_grad = -plan.gradient(products, len(x))
        hessian = plan.sums((jtj if second is None else jtj + second for jtj, second, _ in products), len(x))
        delta, failed = solve_pd_stack(hessian, minus_grad, "Newton system")
        del hessian  # before a fallback's normal equations are built
        newton = np.ones(len(active), dtype=bool)
        newton[list(failed)] = False
        trial = _retract(plan, x, np.where(newton[:, None], delta, 0.0))
        # a rise within the cost's rounding, n_rows ulps of it, is no rise
        newton &= plan.cost(trial, active_data) <= cost * (1.0 + plan.n_rows * np.finfo(float).eps)
        fallback, unfactored = np.flatnonzero(~newton), []
        if fallback.size:
            normal = plan.sums(
                (jtj.reshape(len(jtj), len(x), -1)[:, fallback] for jtj, _, _ in products), fallback.size
            )
            delta[fallback], failed = solve_pd_stack(normal, minus_grad[fallback], "normal equations")
            unfactored = fallback[list(failed)]
            trial[fallback] = _retract(plan, x[fallback], delta[fallback])
        step_norm[active] = np.sqrt(np.abs((minus_grad * delta).sum(axis=1)))
        moved = np.ones(len(active), dtype=bool)
        moved[unfactored] = False
        X[active[moved]] = trial[moved]
        converged[active] = step_norm[active] < STEP_TOL
        stay = moved & ~converged[active] & (n_iters[active] < max_iters)
        left = not stay.all()
        active = active[stay]
    return list(zip(converged.tolist(), n_iters.tolist(), step_norm.tolist()))


def _retract(plan: _Plan, x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """States x + delta with the pose angles wrapped."""
    out = x + delta
    out[:, plan.theta] = wrap_angle(out[:, plan.theta])
    return out


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
    info = base.normal_equations(poses, base_data)[0]
    n_sources = landmarks.shape[1]
    x = np.concatenate([poses.repeat(n_sources, axis=0), landmarks.reshape(-1, 2)], axis=1)
    increments = increment.normal_equations(x, increment_data)[0]
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

    An active source problem's traced peak was 2.99 (10 poses) and 2.10
    (30 poses) times its n^2 floats for n columns: its Newton system, the
    normal equations of the problems that fall back, and its factors'
    products, kept for the fallback, with their indices and temporaries.
    1.5 n^2 floats and 5 per product (`_Plan.n_products`) fit both.
    A chunk's traced peak per world, information forms and scoring, was 4.0
    and 5.5 times the floats of its prior and its increments before
    marginalization, so a world counts 5.5 times those.
    """
    base, source, increment = _slam_plans(n_poses)
    problem = 12 * source.n_cols**2 + 40 * source.n_products
    world = 44 * (base.n_cols**2 + N_LANDMARKS * increment.n_cols**2)
    return max(1, _BLOCK_BYTES // problem), max(1, _BLOCK_BYTES // world)


def solve_block(worlds: Sequence[SimWorld]) -> Iterator[tuple]:
    """The source solves of worlds of one config as one solver block, then their chunks.

    The base poses are the base MAP in closed form, `dead_reckoning_init`,
    and each landmark is triangulated there. One `_block_data` call fills
    every stack of the worlds' n_poses' plans (`_slam_plans`), and
    `_block_sizes` bounds the active source problems and the worlds per
    chunk. Yields, per chunk, its slice of the worlds, its priors and
    increments (`pose_information_system` at the base poses and the source
    landmarks), and its source problems' final states (poses, then
    landmark; world-major) and (converged, n_iters, step_norm). An
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
                GaussNewtonResult(base_plan.values(prior.mean), converged=True, n_iters=0, step_norm=0.0),
                dict(enumerate(results[i * N_LANDMARKS : (i + 1) * N_LANDMARKS])),
                prior,
                delta,
            )
            for i, (prior, delta) in enumerate(zip(priors, deltas))
        ]
    return solutions
