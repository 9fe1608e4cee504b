import numpy as np
import pytest

from fgred.se2 import Pose2, wrap_angle
from fgred.sim2d import SimConfig, simulate_world
from reference import pose_array, se2_relative, simulate_world_loop


def zero_noise_config(**kw):
    zero3 = ((0.0,) * 3,) * 3
    base = dict(sigma_step=zero3, sigma_odom=zero3, range_var_coeff=0.0, bearing_var=0.0)
    base.update(kw)
    return SimConfig(**base)


def test_determinism_bitwise():
    cfg = SimConfig()
    w1 = simulate_world(cfg, 42)
    w2 = simulate_world(cfg, 42)
    assert w1.landmarks.tobytes() == w2.landmarks.tobytes()
    assert w1.rb_measurements.tobytes() == w2.rb_measurements.tobytes()
    assert all(
        pose_array(a).tobytes() == pose_array(b).tobytes()
        for a, b in zip(w1.truth_poses, w2.truth_poses)
    )
    assert w1.odometry_array.tobytes() == w2.odometry_array.tobytes()
    w3 = simulate_world(SimConfig(), 43)
    assert w3.landmarks.tobytes() != w1.landmarks.tobytes()


def pose_bits(poses):
    return np.array([pose_array(p) for p in poses]).tobytes()


def test_worlds_equal_the_scalar_simulator():
    # the array simulator against the one-draw-at-a-time loop, bit for bit:
    # default worlds, 30-pose worlds whose noise roots are not diagonal (a
    # stacked matvec, unlike z @ S.T, keeps each step's S @ z), a step_mean
    # with an unwrapped heading and integer entries, and noiseless worlds
    zero3 = ((0.0,) * 3,) * 3
    cases = [
        (SimConfig(), range(200)),
        (SimConfig(
            n_poses=30,
            sigma_step=((0.04, 0.01, 0.002), (0.01, 0.05, 0.001), (0.002, 0.001, 0.003)),
            sigma_odom=((0.03, -0.01, 0.001), (-0.01, 0.04, 0.0), (0.001, 0.0, 0.0005)),
        ), range(200, 240)),
        (SimConfig(step_mean=(1, 0, 7)), range(20)),
        (zero_noise_config(), range(20)),
    ]
    for root in (cases[1][0]._walk_sqrt, cases[1][0]._odom_sqrt):
        assert np.count_nonzero(root - np.diag(np.diag(root))) == 6
    for cfg, seeds in cases:
        for seed in seeds:
            w = simulate_world(cfg, seed)
            truth, landmarks, odometry, rb = simulate_world_loop(cfg, seed)
            assert w.truth_array.tobytes() == pose_bits(truth), seed
            assert w.odometry_array.tobytes() == pose_bits(odometry), seed
            assert w.landmarks.tobytes() == landmarks.tobytes(), seed
            assert w.rb_measurements.tobytes() == rb.tobytes(), seed
            # the Pose2 view carries the same bits
            assert pose_bits(w.truth_poses) == pose_bits(truth), seed


def test_world_shapes():
    cfg = SimConfig(n_poses=7)
    w = simulate_world(cfg, 1)
    assert len(w.truth_poses) == 8
    assert w.odometry_array.shape == (7, 3)
    assert w.landmarks.shape == (2, 2)
    assert w.rb_measurements.shape == (2, 7, 2)
    assert w.landmark_distances().shape == (2, 8)


def test_noiseless_odometry_equals_relative_truth():
    w = simulate_world(zero_noise_config(), 3)
    for i, odo in enumerate((Pose2(*row) for row in w.odometry_array)):
        rel = se2_relative(w.truth_poses[i], w.truth_poses[i + 1])
        assert abs(odo.x - rel.x) < 1e-12
        assert abs(odo.y - rel.y) < 1e-12
        assert abs(wrap_angle(odo.theta - rel.theta)) < 1e-12


def test_noiseless_range_bearing_equals_true_polar():
    w = simulate_world(zero_noise_config(), 4)
    for s in range(2):
        for i in range(w.config.n_poses):
            pose = w.truth_poses[i + 1]
            d = w.landmarks[s] - np.array([pose.x, pose.y])
            r_true = np.hypot(*d)
            b_true = wrap_angle(np.arctan2(d[1], d[0]) - pose.theta)
            r, b = w.rb_measurements[s, i]
            assert r == pytest.approx(r_true, abs=1e-12)
            assert wrap_angle(b - b_true) == pytest.approx(0.0, abs=1e-12)


def test_range_noise_scales_with_distance():
    # empirical sd of the range error grows linearly in true distance
    cfg = SimConfig(range_var_coeff=0.01)
    errs, dists = [], []
    for seed in range(300):
        w = simulate_world(cfg, seed)
        for s in range(2):
            for i in range(w.config.n_poses):
                pose = w.truth_poses[i + 1]
                d = np.hypot(*(w.landmarks[s] - [pose.x, pose.y]))
                errs.append(w.rb_measurements[s, i, 0] - d)
                dists.append(d)
    errs, dists = np.array(errs), np.array(dists)
    lo, hi = dists < np.quantile(dists, 0.3), dists > np.quantile(dists, 0.7)
    ratio = errs[hi].std() / errs[lo].std()
    expect = dists[hi].mean() / dists[lo].mean()
    assert ratio == pytest.approx(expect, rel=0.25)


def test_landmark_and_start_bounds():
    for seed in range(50):
        w = simulate_world(SimConfig(box_half_width=6.0), seed)
        assert np.all(np.abs(w.landmarks) <= 6.0)
        p0 = w.truth_poses[0]
        assert abs(p0.x) <= 3.0 and abs(p0.y) <= 3.0


def test_landmark_uniformity():
    # coarse KS check per axis against U(-C, C)
    from scipy import stats

    xs = np.concatenate([simulate_world(SimConfig(), s).landmarks.ravel() for s in range(500)])
    u = (xs + 10.0) / 20.0
    stat = stats.kstest(u, "uniform").statistic
    crit_99 = 1.63 / np.sqrt(len(u))
    assert stat < crit_99


def test_seed_validation():
    # a world's seed is checked as SimConfig checked its own seed field
    cfg = SimConfig()
    for seed, message in ((-1, "must be >= 0, got -1"), (1.5, "must be an integer, got 1.5"),
                          (True, "must be an integer, got True")):
        with pytest.raises(ValueError, match=f"^seed {message}$"):
            simulate_world(cfg, seed)
    w = simulate_world(cfg, 7)
    assert w.seed == 7
    again = simulate_world(w.config, w.seed)
    assert again.rb_measurements.tobytes() == w.rb_measurements.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_poses=1)
    with pytest.raises(ValueError):
        SimConfig(n_poses=4.0)
    with pytest.raises(ValueError):
        SimConfig(n_poses=True)
    with pytest.raises(ValueError):
        SimConfig(box_half_width=0.0)
    with pytest.raises(ValueError):
        SimConfig(range_var_coeff=-1.0)
    with pytest.raises(ValueError):
        SimConfig(sigma_odom=((1.0, 0, 0), (0, -1.0, 0), (0, 0, 1.0)))
    # wrong shapes and non-finite numbers are rejected with the field's name
    zero3 = ((0.0,) * 3,) * 3
    bad = [
        ("step_mean", (1.0, 0.0)),
        ("step_mean", (1.0, 0.0, 0.1, 0.0)),
        ("step_mean", (1.0, 0.0, float("nan"))),
        ("step_mean", 1.0),
        ("sigma_step", ((0.04, 0.0), (0.0, 0.04))),
        ("sigma_step", ((0.04, 0.0, 0.0), (0.0, 0.04))),
        ("sigma_odom", ((0.04, 0.0), (0.0, 0.04))),
        ("sigma_odom", (0.04, 0.04, 0.0004)),
        ("sigma_odom", zero3[:2] + ((0.0, 0.0, float("inf")),)),
        ("box_half_width", float("nan")),
        ("box_half_width", float("inf")),
        ("range_var_coeff", float("nan")),
        ("range_var_coeff", float("inf")),
        ("bearing_var", float("inf")),
        ("bearing_var", float("nan")),
        ("bearing_var", None),
        ("bearing_var", "0.25"),
        ("box_half_width", True),
        ("step_mean", ("1", "0", "0.1")),
    ]
    for name, value in bad:
        with pytest.raises(ValueError, match=f"{name} must be"):
            SimConfig(**{name: value})
    SimConfig(sigma_step=zero3, sigma_odom=zero3, step_mean=[1, 0, 0], bearing_var=0)


def test_config_round_trip():
    cfg = SimConfig(n_poses=5, bearing_var=0.1)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        SimConfig.from_dict({**cfg.to_dict(), "bogus": 1})
