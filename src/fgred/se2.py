"""Minimal SE(2) pose algebra on (x, y, theta) triples."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def wrap_angle(a):
    """Wrap an angle to (-pi, pi]; an array is wrapped elementwise into a new array."""
    if not isinstance(a, np.ndarray) or a.ndim == 0:
        w = (float(a) + np.pi) % (2.0 * np.pi) - np.pi
        return np.pi if w == -np.pi else w
    w = a + np.pi
    w %= 2.0 * np.pi
    w -= np.pi
    w[w == -np.pi] = np.pi
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
