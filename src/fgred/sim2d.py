"""2D landmark world simulator.

A trajectory X_0..X_n is a stationary random walk on SE(2): increments
eta_i are i.i.d. Gaussian perturbations of a fixed mean step, composed on
the right. Two landmarks are placed uniformly in a box. Measurements are
odometry (the increment, with additive noise in (x, y, theta)) and
range-bearing observations of each landmark from each non-initial pose,
with range noise variance growing quadratically with true distance.

A world is arrays: the true poses and the odometry as (x, y, theta) rows,
the landmarks and the range-bearing measurements. `simulate_world` draws
all of a world's step noise in one call, in the order a step-by-step draw
takes it, so each world has the bits of the Pose2-at-a-time simulator in
tests/reference.py. The pose recursion is `se2.compose_chain`.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .se2 import Pose2, compose_chain, wrap_angle

N_LANDMARKS = 2


def _psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix; zero matrices are fine."""
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w.min() < -1e-10 * max(1.0, abs(w).max()):
        raise ValueError(f"noise covariance has negative eigenvalue {w.min():.3e}")
    return V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T


def _check_count(name: str, value, minimum: int) -> None:
    """Reject a count or seed that is not an integer (bools included) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_finite(name: str, value, shape: tuple, what: str) -> None:
    """Reject anything but finite real numbers (no bools or strings) of the given shape."""
    try:
        arr = np.asarray(value)
        ok = arr.dtype.kind in "iuf" and arr.shape == shape and np.isfinite(arr).all()
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    n_poses is the number of random-walk steps n: the trajectory has
    n_poses + 1 pose variables X_0..X_n, with one odometry measurement per
    step and one range-bearing measurement per landmark per non-initial
    pose. Noise covariances may be zero (noiseless worlds are legal). The
    walk and odometry noise square roots of the PSD check are kept,
    read-only, for every world drawn from the config. step_mean and the
    noise matrices are checked as given, then kept as tuples.
    """

    n_poses: int = 10
    box_half_width: float = 10.0
    step_mean: tuple[float, float, float] = (1.0, 0.0, 0.1)
    sigma_step: tuple = ((0.04, 0.0, 0.0), (0.0, 0.04, 0.0), (0.0, 0.0, 0.0025))
    sigma_odom: tuple = ((0.04, 0.0, 0.0), (0.0, 0.04, 0.0), (0.0, 0.0, 0.0004))
    range_var_coeff: float = 4e-4
    bearing_var: float = 0.25

    def __post_init__(self):
        _check_count("n_poses", self.n_poses, 2)
        for name in ("box_half_width", "range_var_coeff", "bearing_var"):
            _check_finite(name, getattr(self, name), (), "a finite number")
        _check_finite("step_mean", self.step_mean, (3,), "3 finite numbers")
        for name in ("sigma_step", "sigma_odom"):
            _check_finite(name, getattr(self, name), (3, 3), "a 3 x 3 matrix of finite numbers")
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        object.__setattr__(self, "step_mean", tuple(self.step_mean))
        if self.box_half_width <= 0:
            raise ValueError("box_half_width must be positive")
        if self.range_var_coeff < 0 or self.bearing_var < 0:
            raise ValueError("noise variances must be >= 0")
        for name, sigma in (("_walk_sqrt", self.sigma_step), ("_odom_sqrt", self.sigma_odom)):
            root = _psd_sqrt(np.array(sigma))
            root.setflags(write=False)
            object.__setattr__(self, name, root)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["step_mean"] = list(self.step_mean)
        for key in ("sigma_step", "sigma_odom"):
            out[key] = [list(r) for r in out[key]]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown simulation config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class SimWorld:
    """One simulated world: ground truth plus every drawn measurement, as arrays.

    truth_array[i] is pose X_i as (x, y, theta), i = 0..n_poses, and
    odometry_array[i - 1] the odometry measured from X_{i-1} to X_i, both
    with theta wrapped. rb_measurements[s, i - 1] is the (range, bearing)
    pair for landmark s observed from pose X_i. `truth_poses` holds
    truth_array's rows as Pose2 tuples, built on first use. Carries its
    config and seed, so `simulate_world(world.config, world.seed)`
    regenerates it bit for bit.
    """

    config: SimConfig
    seed: int
    truth_array: np.ndarray
    landmarks: np.ndarray
    odometry_array: np.ndarray
    rb_measurements: np.ndarray

    @cached_property
    def truth_poses(self) -> tuple[Pose2, ...]:
        return tuple(Pose2(*row) for row in self.truth_array.tolist())

    def landmark_distances(self) -> np.ndarray:
        """True pose-to-landmark distances, shape (N_LANDMARKS, n_poses + 1)."""
        xy = self.truth_array[:, :2]
        out = np.empty((N_LANDMARKS, len(xy)))
        for s in range(N_LANDMARKS):
            out[s] = np.linalg.norm(xy - self.landmarks[s][None, :], axis=1)
        return out


def simulate_world(config: SimConfig, seed: int) -> SimWorld:
    """Draw one world of the config from a seed. Same seed, same world, bitwise.

    Draw order is fixed: landmarks, initial pose, then per step the walk
    increment, the odometry noise, and per landmark the range and bearing
    noises; the steps' normals are one (n_poses, 6 + 2 N_LANDMARKS) draw.
    The walk and odometry noises are each step's noise root times its
    normals. The pose recursion is `compose_chain`, which wraps theta at
    each step as Pose2 does; the ranges and bearings are computed as arrays.
    """
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    C = config.box_half_width
    n = config.n_poses

    landmarks = rng.uniform(-C, C, size=(N_LANDMARKS, 2))
    x0 = rng.uniform(-C / 2.0, C / 2.0, size=2)
    theta0 = rng.uniform(-np.pi, np.pi)
    normals = rng.standard_normal((n, 6 + 2 * N_LANDMARKS))

    # one stacked matvec per root: S @ z per step, not z @ S.T, keeps the bits
    walk = (config._walk_sqrt[None] @ normals[:, :3, None])[:, :, 0]
    odom_noise = (config._odom_sqrt[None] @ normals[:, 3:6, None])[:, :, 0]
    eta = Pose2(*config.step_mean).as_array() + walk  # the mean heading wrapped first
    eta[:, 2] = wrap_angle(eta[:, 2])
    odometry = eta + odom_noise
    odometry[:, 2] = wrap_angle(odometry[:, 2])

    truth = compose_chain(np.array([[*x0, wrap_angle(theta0)]]), eta[None])[0]

    dx = landmarks[:, 0, None] - truth[None, 1:, 0]
    dy = landmarks[:, 1, None] - truth[None, 1:, 1]
    d = np.hypot(dx, dy)
    rb = np.empty((N_LANDMARKS, n, 2))
    rb[:, :, 0] = d + np.sqrt(config.range_var_coeff) * d * normals[:, 6::2].T
    rb[:, :, 1] = wrap_angle(
        np.arctan2(dy, dx) - truth[None, 1:, 2] + np.sqrt(config.bearing_var) * normals[:, 7::2].T
    )
    return SimWorld(
        config=config,
        seed=seed,
        truth_array=truth,
        landmarks=landmarks,
        odometry_array=odometry,
        rb_measurements=rb,
    )
