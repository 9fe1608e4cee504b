"""2D landmark world simulator.

A trajectory X_0..X_n is a stationary random walk on SE(2): increments
eta_i are i.i.d. Gaussian perturbations of a fixed mean step, composed on
the right. Two landmarks are placed uniformly in a box. Measurements are
odometry (the increment, with additive noise in (x, y, theta)) and
range-bearing observations of each landmark from each non-initial pose,
with range noise variance growing quadratically with true distance.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .se2 import Pose2, se2_compose, wrap_angle

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
    """One simulated world: ground truth plus every drawn measurement.

    rb_measurements[s, i - 1] is the (range, bearing) pair for landmark s
    observed from pose X_i, i = 1..n_poses. Carries its config and seed, so
    `simulate_world(world.config, world.seed)` regenerates it bit for bit.
    """

    config: SimConfig
    seed: int
    truth_poses: tuple[Pose2, ...]
    landmarks: np.ndarray
    odometry: tuple[Pose2, ...]
    rb_measurements: np.ndarray

    def landmark_distances(self) -> np.ndarray:
        """True pose-to-landmark distances, shape (N_LANDMARKS, n_poses + 1)."""
        xy = np.array([[p.x, p.y] for p in self.truth_poses])
        out = np.empty((N_LANDMARKS, len(self.truth_poses)))
        for s in range(N_LANDMARKS):
            out[s] = np.linalg.norm(xy - self.landmarks[s][None, :], axis=1)
        return out


def simulate_world(config: SimConfig, seed: int) -> SimWorld:
    """Draw one world of the config from a seed. Same seed, same world, bitwise.

    Draw order is fixed: landmarks, initial pose, then per step the walk
    increment, the odometry noise, and per landmark the range and bearing
    noises.
    """
    _check_count("seed", seed, 0)
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

    return SimWorld(
        config=config,
        seed=seed,
        truth_poses=tuple(poses),
        landmarks=landmarks,
        odometry=tuple(odometry),
        rb_measurements=rb,
    )
