"""Minimal SE(2) pose algebra on (x, y, theta) triples."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np


_PI, _TWO_PI = np.pi, 2.0 * np.pi  # bound once: the float path is called per pose step


def wrap_angle(a):
    """Wrap an angle to (-pi, pi]; an array is wrapped elementwise into a new array."""
    if not isinstance(a, np.ndarray) or a.ndim == 0:
        w = (float(a) + _PI) % _TWO_PI - _PI
        return _PI if w == -_PI else w
    w = a + _PI
    w %= _TWO_PI
    w -= _PI
    w[w == -_PI] = _PI
    return w


@dataclass(frozen=True)
class Pose2:
    """Planar pose; theta is stored wrapped to (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])

    @classmethod
    def from_array(cls, v) -> "Pose2":
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape[0] != 3:
            raise ValueError("a pose needs exactly (x, y, theta)")
        return cls(v[0], v[1], v[2])


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


def compose_chain(start: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Poses (w, n + 1, 3) of w chains: start (w, 3), then each of steps (w, n, 3) composed on the right.

    With wrapped step headings, each pose has the bits of `se2_compose`
    chains: the heading, wrapped at each step, runs step by step, then x
    adds c * step_x and -(s * step_y) per step, and y s * step_x and
    c * step_y, in that order, so one cumulative sum gives each.
    """
    w, n = steps.shape[:2]
    poses = np.empty((w, n + 1, 3))
    poses[:, :, 2] = [
        list(accumulate(turns, lambda t, turn: wrap_angle(t + turn), initial=t))
        for t, turns in zip(start[:, 2].tolist(), steps[:, :, 2].tolist())
    ]
    c, s = np.cos(poses[:, :-1, 2]), np.sin(poses[:, :-1, 2])
    ex, ey = steps[:, :, 0], steps[:, :, 1]
    terms = np.empty((w, 2 * n + 1, 2))
    terms[:, 0] = start[:, :2]
    terms[:, 1::2, 0], terms[:, 2::2, 0] = c * ex, -(s * ey)
    terms[:, 1::2, 1], terms[:, 2::2, 1] = s * ex, c * ey
    poses[:, :, :2] = np.cumsum(terms, axis=1)[:, ::2]
    return poses
