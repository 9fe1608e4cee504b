import numpy as np
import pytest

from fgred.se2 import Pose2, wrap_angle
from reference import near_pi_angles, se2_compose, se2_inverse, se2_relative, wrap_scalar


def random_pose(rng):
    return Pose2(*rng.uniform(-5, 5, size=2), rng.uniform(-np.pi, np.pi))


def poses_close(a, b, tol=1e-12):
    return (
        abs(a.x - b.x) < tol
        and abs(a.y - b.y) < tol
        and abs(wrap_angle(a.theta - b.theta)) < tol
    )


def test_wrap_angle_range():
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50, 50, size=200):
        w = wrap_angle(a)
        assert -np.pi < w <= np.pi
        assert abs(np.sin(w - a)) < 1e-12 and np.cos(w - a) > 0.999999


def test_wrap_angle_boundary():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.0) == 0.0


def test_wrap_angle_array_matches_float_path():
    rng = np.random.default_rng(5)
    odd = np.arange(-41, 42, 2) * np.pi  # odd multiples of pi
    a = np.concatenate([
        near_pi_angles(rng, 400),
        odd,
        np.nextafter(odd, np.inf),
        np.nextafter(odd, -np.inf),
        [-0.0, 0.0, 2 * np.pi, -2 * np.pi, 5e-324, -5e-324],
        rng.uniform(-50, 50, 200),
    ])
    before = a.copy()
    w = wrap_angle(a)
    assert a.tobytes() == before.tobytes()  # the input is left unchanged
    want = np.array([wrap_angle(float(x)) for x in a])
    assert w.dtype == want.dtype and w.tobytes() == want.tobytes()
    assert w.tobytes() == np.array([wrap_scalar(x) for x in a]).tobytes()
    assert ((w > -np.pi) & (w <= np.pi)).all()
    # a strided view and a 2-D array are wrapped elementwise, and a 0-d
    # array takes the float path
    assert wrap_angle(a[::3]).tobytes() == want[::3].tobytes()
    assert wrap_angle(a[:400].reshape(20, 20)).tobytes() == want[:400].tobytes()
    assert wrap_angle(np.array(-np.pi)) == np.pi and isinstance(wrap_angle(np.array(1.0)), float)


def test_compose_example():
    # rotate (1,0,0) into the frame of (1,0,pi/2): lands at (1,1) facing pi/2
    c = se2_compose(Pose2(1.0, 0.0, np.pi / 2), Pose2(1.0, 0.0, 0.0))
    assert poses_close(c, Pose2(1.0, 1.0, np.pi / 2), tol=1e-12)


def test_identity_and_inverse_laws():
    rng = np.random.default_rng(1)
    ident = Pose2(0.0, 0.0, 0.0)
    for _ in range(100):
        a, b, c = (random_pose(rng) for _ in range(3))
        assert poses_close(se2_compose(ident, a), a)
        assert poses_close(se2_compose(a, ident), a)
        assert poses_close(se2_compose(a, se2_inverse(a)), ident)
        assert poses_close(se2_compose(se2_inverse(a), a), ident)
        assert poses_close(se2_inverse(se2_inverse(a)), a)
        # associativity
        ab_c = se2_compose(se2_compose(a, b), c)
        a_bc = se2_compose(a, se2_compose(b, c))
        assert poses_close(ab_c, a_bc, tol=1e-11)


def test_relative_consistency():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = random_pose(rng), random_pose(rng)
        rel = se2_relative(a, b)
        assert poses_close(se2_compose(a, rel), b, tol=1e-11)


def test_theta_wrapped_on_construction():
    p = Pose2(0.0, 0.0, 5 * np.pi / 2)
    assert p.theta == pytest.approx(np.pi / 2)
