"""Nonlinear SLAM factor graph, Gauss-Newton, and linearization.

Variables are keyed ("x", i) for poses (dim 3) and ("l", s) for landmarks
(dim 2). Each factor type has one batched kernel: given the stacked values
of m factors' variables and their stacked measurements, it returns the
residuals r(v) = h(v) - z (m x k, angles wrapped) and the Jacobians H of h
(m x k x d). Each call fills one Jacobian array it allocates; the odometry
and range-bearing kernels store it k x d x m, so that an entry's m values
are one contiguous row, and return its m x k x d view. A factor's
precision Gamma = L L^T is checked and factored once, when the
NonlinearGraph is built; L^T is the factor's whitener.

`linearize` is the one linearization path: the whitened Jacobian J (rows
L^T H) and residual L^T r of a factor subset, one kernel call per factor
type through an index plan built once per subset and state, which writes
each type's whitened blocks into J through precomputed flat indices.
Gauss-Newton keeps the state as one flat vector, solves J^T J dx = -J^T r
and retracts additively (pose angles re-wrapped). The information forms,
the base prior and each source increment, are J^T J = sum_j H_j^T Gamma_j
H_j of the same J.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gauss import GaussianBelief, NotPositiveDefiniteError, cholesky_pd_many, schur_complement, solve_pd
from .se2 import Pose2, se2_compose, wrap_angle
from .sim2d import N_LANDMARKS, SimWorld

VarKey = tuple[str, int]

# Floor applied to measurement variances so noiseless worlds still produce
# finite factor precisions; with exact measurements the MAP is exact anyway.
VAR_FLOOR = 1e-12

# Weak anchor prior keeping the gauge fixed without dominating the estimate.
ANCHOR_SIGMA = 0.3

# Gauss-Newton has converged once no state component moves by this much.
GN_STEP_TOL = 1e-8

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
    Factors that share one `gamma` array (the odometry) share one factor;
    the distinct gammas of one shape are factored in one stacked call.
    """

    variables: tuple[VarKey, ...]
    dims: dict
    factors: tuple
    base: frozenset[int]
    sources: dict
    whiteners: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        first = {}  # id of each distinct gamma -> its first factor
        for j, f in enumerate(self.factors):
            first.setdefault(id(f.gamma), j)
        chols = cholesky_pd_many(
            [self.factors[j].gamma for j in first.values()],
            [f"gamma of factor {j}" for j in first.values()],
        )
        by_gamma = {key: L.T for key, L in zip(first, chols)}
        whiteners = tuple(by_gamma[id(f.gamma)] for f in self.factors)
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
    """Index plan for linearizing a factor subset over a state ordering.

    offsets[v] is variable v's first column. Factors are grouped by type;
    a group holds its factors' rows of J (in subset order), the columns of
    their variables, the flat indices of their blocks in J, and their
    stacked whiteners and measurements.
    """

    def __init__(self, graph: NonlinearGraph, subset: Iterable[int], state: Sequence[VarKey]):
        self.offsets, self.n_cols = {}, 0
        for v in state:
            self.offsets[v] = self.n_cols
            self.n_cols += graph.dims[v]
        groups, self.n_rows = {}, 0
        for j in subset:
            f, Lt = graph.factors[j], graph.whiteners[j]
            try:
                cols = [self.offsets[v] + i for v in f.vars for i in range(graph.dims[v])]
            except KeyError as missing:
                raise ValueError(f"factor touches {missing.args[0]}, outside the state") from None
            groups.setdefault(f.kernel, []).append((self.n_rows, cols, Lt, f.measurement))
            self.n_rows += len(Lt)
        self.groups = []
        for kernel, items in groups.items():
            first_row, cols, whiteners, z = (np.array(part) for part in zip(*items))
            rows = first_row[:, None] + np.arange(whiteners.shape[1])
            flat = rows[:, :, None] * self.n_cols + cols[:, None, :]
            self.groups.append((kernel, rows, cols, flat, whiteners, z))

    def linearize(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whitened J and r at the flat state x: one kernel call per type."""
        J = np.zeros(self.n_rows * self.n_cols)
        r = np.zeros(self.n_rows)
        for kernel, rows, cols, flat, whiteners, z in self.groups:
            res, jac = kernel(x[cols], z)
            r[rows] = (whiteners @ res[:, :, None])[:, :, 0]
            J[flat] = whiteners @ jac
        return J.reshape(self.n_rows, self.n_cols), r


def linearize(
    graph: NonlinearGraph,
    subset: Iterable[int],
    values: Values,
    state: Sequence[VarKey],
) -> tuple[np.ndarray, np.ndarray]:
    """Whitened Jacobian J and residual r of `subset`'s factors at `values`.

    Rows stack the factors in `subset` order, factor j contributing
    L_j^T H_j and L_j^T r_j(values), so J^T J = sum_j H_j^T Gamma_j H_j and
    J^T r is the gradient of half the squared whitened residual. Columns
    follow `state`, which must contain every variable the factors touch.
    """
    plan = _Plan(graph, subset, state)
    return plan.linearize(_stack(values, state))


def solve_gauss_newton(
    graph: NonlinearGraph,
    subset: Iterable[int],
    init: Values,
    max_iters: int = 50,
) -> GaussNewtonResult:
    """Gauss-Newton over the variables touched by `subset`.

    The subset must include the base factors so the normal equations are
    well posed. Non-convergence within max_iters is reported through the
    flag, never raised; a singular step also just flags failure.
    """
    subset = tuple(sorted({int(j) for j in subset}))
    if not graph.base <= set(subset):
        raise ValueError("subset must include every base factor")
    solve_vars = graph.touched_vars(subset)
    values = {k: np.array(v, dtype=float) for k, v in init.items()}
    for v in solve_vars:
        if v not in values:
            raise ValueError(f"initial values missing variable {v}")
    plan = _Plan(graph, subset, solve_vars)
    theta = np.array([plan.offsets[v] + 2 for v in solve_vars if v[0] == "x"], dtype=int)
    x = _stack(values, solve_vars)

    def result(converged: bool, n_iters: int, max_update: float) -> GaussNewtonResult:
        values.update((v, x[plan.offsets[v] : plan.offsets[v] + graph.dims[v]]) for v in solve_vars)
        return GaussNewtonResult(values, converged, n_iters, max_update)

    max_update = np.inf
    for it in range(1, max_iters + 1):
        J, r = plan.linearize(x)
        try:
            delta = solve_pd(J.T @ J, -(J.T @ r), name="normal equations")
        except NotPositiveDefiniteError:
            return result(False, it, float("nan"))
        x += delta
        x[theta] = wrap_angle(x[theta])
        max_update = float(np.abs(delta).max()) if delta.size else 0.0
        if max_update < GN_STEP_TOL:
            return result(True, it, max_update)
    return result(False, max_iters, max_update)


def pose_information_system(
    graph: NonlinearGraph,
    base_values: Values,
    landmarks: Mapping[int, np.ndarray],
) -> tuple[GaussianBelief, dict]:
    """Pose-marginal information forms for redundancy evaluation.

    Every factor is linearized at one point: the poses of `base_values`,
    the converged base solution, and for source s its landmark estimate
    `landmarks[s]`. Sharing the poses keeps the gauge-like directions of
    each Delta_s aligned with the prior's weak directions, so sources are
    compared on measurement content, not on where they were linearized.
    The base factors (anchor + odometry) give Lambda_B = J^T J. They form a
    tree whose MAP fits every factor exactly, so the prior mean is the
    stacked base poses. Each source's range-bearing factors are linearized
    over (poses + its landmark), and Schur-marginalizing the landmark out
    of J^T J leaves an increment Delta_s over the poses.
    """
    pose_vars = tuple(v for v in graph.variables if v[0] == "x")
    J, _ = linearize(graph, sorted(graph.base), base_values, pose_vars)
    prior = GaussianBelief(mean=_stack(base_values, pose_vars), info=J.T @ J)

    deltas = {}
    for s, landmark in landmarks.items():
        point = {**base_values, ("l", s): landmark}
        J, _ = linearize(graph, sorted(graph.sources[s]), point, pose_vars + (("l", s),))
        deltas[s] = schur_complement(J.T @ J, np.arange(prior.dim))
    return prior, deltas


def _floored_precision(cov: np.ndarray) -> np.ndarray:
    """Invert a measurement covariance, flooring eigenvalues at VAR_FLOOR."""
    cov = np.asarray(cov, dtype=float)
    w, V = np.linalg.eigh(0.5 * (cov + cov.T))
    w = np.clip(w, VAR_FLOOR, None)
    return V @ np.diag(1.0 / w) @ V.T


def build_nonlinear_graph(world: SimWorld) -> NonlinearGraph:
    """SLAM graph for a simulated world.

    Base factors: a weak anchor prior on X_0 (measurement = true initial
    pose, sigma = ANCHOR_SIGMA per component) and one odometry factor per
    step. Supplemental factors: n range-bearing measurements per landmark,
    grouped into one source per landmark. Range precisions use the measured
    range (the quantity the robot has), floored away from zero.
    """
    config = world.config
    n = config.n_poses
    variables = tuple(("x", i) for i in range(n + 1)) + tuple(
        ("l", s) for s in range(N_LANDMARKS)
    )
    dims = {v: (3 if v[0] == "x" else 2) for v in variables}

    factors = [PriorFactor(("x", 0), world.truth_poses[0].as_array(), np.eye(3) / ANCHOR_SIGMA**2)]
    odom_gamma = _floored_precision(config.sigma_odom_arr())
    factors += [
        OdometryFactor(("x", i - 1), ("x", i), world.odometry[i - 1].as_array(), odom_gamma)
        for i in range(1, n + 1)
    ]
    bearing_precision = 1.0 / max(config.bearing_var, VAR_FLOOR)
    sources = {}
    for s in range(N_LANDMARKS):
        sources[s] = frozenset(range(len(factors), len(factors) + n))
        for i, z in enumerate(world.rb_measurements[s, :n], start=1):
            range_var = config.range_var_coeff * max(float(z[0]), 1e-3) ** 2
            gamma = np.diag([1.0 / max(range_var, VAR_FLOOR), bearing_precision])
            factors.append(RangeBearingFactor(("x", i), ("l", s), np.array(z), gamma))

    return NonlinearGraph(
        variables=variables,
        dims=dims,
        factors=tuple(factors),
        base=frozenset(range(n + 1)),
        sources=sources,
    )


def dead_reckoning_init(world: SimWorld) -> dict:
    """Initial values: integrate odometry from the anchor measurement."""
    poses = [Pose2.from_array(world.truth_poses[0].as_array())]
    for z in world.odometry:
        poses.append(se2_compose(poses[-1], z))
    return {("x", i): p.as_array() for i, p in enumerate(poses)}


def triangulate_landmark(world: SimWorld, s: int, pose_values: Values) -> np.ndarray:
    """Seed a landmark from its first range-bearing measurement."""
    r, b = world.rb_measurements[s, 0]
    x, y, t = np.asarray(pose_values[("x", 1)], dtype=float)
    heading = t + b
    return np.array([x + r * np.cos(heading), y + r * np.sin(heading)])
