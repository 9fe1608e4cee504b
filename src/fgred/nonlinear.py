"""Nonlinear SLAM factor graph, Gauss-Newton, and linearization.

Variables are keyed ("x", i) for poses (dim 3) and ("l", s) for landmarks
(dim 2). Factors expose a residual r(v) = h(v) - z and the Jacobians H of h
at v. A factor's precision Gamma = L L^T is checked and factored once, when
the NonlinearGraph is built; L^T is the factor's whitener.

`linearize` is the one linearization path: the whitened Jacobian J (rows
L^T H) and residual L^T r of a factor subset. Gauss-Newton solves
J^T J dx = -J^T r and retracts additively (pose angles re-wrapped). The
information forms, the base prior and each source increment, are
J^T J = sum_j H_j^T Gamma_j H_j of the same J.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gauss import GaussianBelief, NotPositiveDefiniteError, cholesky_pd, schur_complement, solve_pd
from .se2 import Pose2, se2_compose, wrap_angle
from .sim2d import N_LANDMARKS, SimConfig, SimWorld

VarKey = tuple[str, int]

# Floor applied to measurement variances so noiseless worlds still produce
# finite factor precisions; with exact measurements the MAP is exact anyway.
VAR_FLOOR = 1e-12

# Weak anchor prior keeping the gauge fixed without dominating the estimate.
ANCHOR_SIGMA = 0.3

Values = Mapping[VarKey, np.ndarray]


def _theta_indices(var: VarKey) -> tuple[int, ...]:
    return (2,) if var[0] == "x" else ()


@dataclass(frozen=True, eq=False)
class PriorFactor:
    """Direct observation of one pose in (x, y, theta) coordinates."""

    var: VarKey
    measurement: np.ndarray
    gamma: np.ndarray

    @property
    def vars(self) -> tuple[VarKey, ...]:
        return (self.var,)

    def residual(self, values: Values) -> np.ndarray:
        v = np.asarray(values[self.var], dtype=float)
        r = v - np.asarray(self.measurement, dtype=float)
        r[2] = wrap_angle(r[2])
        return r

    def jacobians(self, values: Values) -> tuple[np.ndarray, ...]:
        return (np.eye(3),)


@dataclass(frozen=True, eq=False)
class OdometryFactor:
    """Relative-pose measurement h(X_a, X_b) = coords(X_a^-1 X_b)."""

    var_from: VarKey
    var_to: VarKey
    measurement: np.ndarray
    gamma: np.ndarray

    @property
    def vars(self) -> tuple[VarKey, ...]:
        return (self.var_from, self.var_to)

    def _relative(self, values: Values) -> np.ndarray:
        x1, y1, t1 = values[self.var_from]
        x2, y2, t2 = values[self.var_to]
        c, s = np.cos(t1), np.sin(t1)
        dx, dy = x2 - x1, y2 - y1
        return np.array([c * dx + s * dy, -s * dx + c * dy, wrap_angle(t2 - t1)])

    def residual(self, values: Values) -> np.ndarray:
        r = self._relative(values) - np.asarray(self.measurement, dtype=float)
        r[2] = wrap_angle(r[2])
        return r

    def jacobians(self, values: Values) -> tuple[np.ndarray, ...]:
        x1, y1, t1 = values[self.var_from]
        x2, y2, _ = values[self.var_to]
        c, s = np.cos(t1), np.sin(t1)
        dx, dy = x2 - x1, y2 - y1
        h_x = c * dx + s * dy
        h_y = -s * dx + c * dy
        j_from = np.array(
            [[-c, -s, h_y], [s, -c, -h_x], [0.0, 0.0, -1.0]]
        )
        j_to = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        return (j_from, j_to)


@dataclass(frozen=True, eq=False)
class RangeBearingFactor:
    """Range and body-frame bearing from a pose to a landmark."""

    pose_var: VarKey
    landmark_var: VarKey
    measurement: np.ndarray
    gamma: np.ndarray

    @property
    def vars(self) -> tuple[VarKey, ...]:
        return (self.pose_var, self.landmark_var)

    def _geometry(self, values: Values):
        x, y, t = values[self.pose_var]
        lx, ly = values[self.landmark_var]
        dx, dy = lx - x, ly - y
        q = dx * dx + dy * dy
        return x, y, t, dx, dy, q, np.sqrt(q)

    def residual(self, values: Values) -> np.ndarray:
        _, _, t, dx, dy, _, d = self._geometry(values)
        z = np.asarray(self.measurement, dtype=float)
        return np.array(
            [d - z[0], wrap_angle(np.arctan2(dy, dx) - t - z[1])]
        )

    def jacobians(self, values: Values) -> tuple[np.ndarray, ...]:
        _, _, _, dx, dy, q, d = self._geometry(values)
        if d < 1e-12:
            raise ValueError("degenerate range-bearing geometry: zero distance")
        j_pose = np.array(
            [[-dx / d, -dy / d, 0.0], [dy / q, -dx / q, -1.0]]
        )
        j_lm = np.array([[dx / d, dy / d], [-dy / q, dx / q]])
        return (j_pose, j_lm)


@dataclass(frozen=True)
class NonlinearGraph:
    """Factor list plus variable ordering, base set, and source groups.

    Construction checks every factor's `gamma` as symmetric PD and keeps
    L^T of its Cholesky factor as `whiteners[j]` for every later solve.
    Factors that share one `gamma` array (the odometry) share one factor.
    """

    variables: tuple[VarKey, ...]
    dims: dict
    factors: tuple
    base: frozenset[int]
    sources: dict
    whiteners: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_gamma = {}
        for j, f in enumerate(self.factors):
            if id(f.gamma) not in by_gamma:
                by_gamma[id(f.gamma)] = cholesky_pd(f.gamma, name=f"gamma of factor {j}").T
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


def _offsets(variables: Sequence[VarKey], dims: Mapping) -> tuple[dict, int]:
    off, total = {}, 0
    for v in variables:
        off[v] = total
        total += dims[v]
    return off, total


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
    off, total = _offsets(state, graph.dims)
    whitened = [(graph.factors[j], graph.whiteners[j]) for j in subset]
    rows_total = sum(Lt.shape[0] for _, Lt in whitened)
    J = np.zeros((rows_total, total))
    r = np.zeros(rows_total)
    row = 0
    for f, Lt in whitened:
        k = Lt.shape[0]
        r[row : row + k] = Lt @ f.residual(values)
        for var, jac in zip(f.vars, f.jacobians(values)):
            if var not in off:
                raise ValueError(f"factor touches {var}, outside the state")
            J[row : row + k, off[var] : off[var] + graph.dims[var]] = Lt @ jac
        row += k
    return J, r


def solve_gauss_newton(
    graph: NonlinearGraph,
    subset: Iterable[int],
    init: Values,
    max_iters: int = 50,
    tol: float = 1e-8,
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
    off, _ = _offsets(solve_vars, graph.dims)
    values = {k: np.array(v, dtype=float) for k, v in init.items()}
    for v in solve_vars:
        if v not in values:
            raise ValueError(f"initial values missing variable {v}")

    max_update = np.inf
    for it in range(1, max_iters + 1):
        J, r = linearize(graph, subset, values, solve_vars)
        H = J.T @ J
        g = J.T @ r
        try:
            delta = solve_pd(0.5 * (H + H.T), -g, name="normal equations")
        except NotPositiveDefiniteError:
            return GaussNewtonResult(values, False, it, float("nan"))
        for var in solve_vars:
            d = graph.dims[var]
            values[var] = values[var] + delta[off[var] : off[var] + d]
            for t_idx in _theta_indices(var):
                values[var][t_idx] = wrap_angle(values[var][t_idx])
        max_update = float(np.abs(delta).max()) if delta.size else 0.0
        if max_update < tol:
            return GaussNewtonResult(values, True, it, max_update)
    return GaussNewtonResult(values, False, max_iters, max_update)


def pose_information_system(
    graph: NonlinearGraph,
    base_values: Values,
    source_values: Mapping[int, Values],
) -> tuple[GaussianBelief, dict]:
    """Pose-marginal information forms for redundancy evaluation.

    The base factors (anchor + odometry) are linearized at `base_values`:
    Lambda_B = J^T J, and the prior mean is one Gauss-Newton step from
    `base_values`. Each source's range-bearing factors are linearized at
    `source_values[s]` over (poses + its landmark), and Schur-marginalizing
    the landmark out of J^T J leaves an increment Delta_s over the poses.
    Callers that compare sources against the prior should keep the pose
    entries of every linearization point equal, otherwise the gauge-like
    directions of the deltas are misaligned with the prior's weak
    directions.
    """
    pose_vars = tuple(v for v in graph.variables if v[0] == "x")
    J, r = linearize(graph, sorted(graph.base), base_values, pose_vars)
    x0 = np.concatenate([np.asarray(base_values[v], dtype=float) for v in pose_vars])
    lam_b = J.T @ J
    mean = x0 - solve_pd(lam_b, J.T @ r, name="base information")
    prior = GaussianBelief(mean=mean, info=lam_b)

    deltas = {}
    for s, vals in source_values.items():
        J, _ = linearize(graph, sorted(graph.sources[s]), vals, pose_vars + (("l", s),))
        deltas[s] = schur_complement(J.T @ J, np.arange(prior.dim))
    return prior, deltas


def _floored_precision(cov: np.ndarray) -> np.ndarray:
    """Invert a measurement covariance, flooring eigenvalues at VAR_FLOOR."""
    cov = np.asarray(cov, dtype=float)
    w, V = np.linalg.eigh(0.5 * (cov + cov.T))
    w = np.clip(w, VAR_FLOOR, None)
    return V @ np.diag(1.0 / w) @ V.T


def build_nonlinear_graph(world: SimWorld, config: SimConfig | None = None) -> NonlinearGraph:
    """SLAM graph for a simulated world.

    Base factors: a weak anchor prior on X_0 (measurement = true initial
    pose, sigma = ANCHOR_SIGMA per component) and one odometry factor per
    step. Supplemental factors: n range-bearing measurements per landmark,
    grouped into one source per landmark. Range precisions use the measured
    range (the quantity the robot has), floored away from zero.
    """
    config = config or world.config
    n = config.n_poses
    variables = tuple(("x", i) for i in range(n + 1)) + tuple(
        ("l", s) for s in range(N_LANDMARKS)
    )
    dims = {v: (3 if v[0] == "x" else 2) for v in variables}

    factors = [
        PriorFactor(
            var=("x", 0),
            measurement=world.truth_poses[0].as_array(),
            gamma=np.eye(3) / ANCHOR_SIGMA**2,
        )
    ]
    odom_gamma = _floored_precision(config.sigma_odom_arr())
    for i in range(1, n + 1):
        factors.append(
            OdometryFactor(
                var_from=("x", i - 1),
                var_to=("x", i),
                measurement=world.odometry[i - 1].as_array(),
                gamma=odom_gamma,
            )
        )
    sources = {}
    for s in range(N_LANDMARKS):
        start = len(factors)
        for i in range(1, n + 1):
            r_meas, b_meas = world.rb_measurements[s, i - 1]
            r_eff = max(float(r_meas), 1e-3)
            gamma = np.diag(
                [
                    1.0 / max(config.range_var_coeff * r_eff**2, VAR_FLOOR),
                    1.0 / max(config.bearing_var, VAR_FLOOR),
                ]
            )
            factors.append(
                RangeBearingFactor(
                    pose_var=("x", i),
                    landmark_var=("l", s),
                    measurement=np.array([r_meas, b_meas]),
                    gamma=gamma,
                )
            )
        sources[s] = frozenset(range(start, start + n))

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
