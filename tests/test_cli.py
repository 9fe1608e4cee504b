import json
import logging

import numpy as np
import pytest

import fgred.experiment as experiment
import fgred.gauss as gauss
from fgred.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_TOO_MANY_FAILURES,
    main,
)
from fgred.experiment import ExperimentConfig, SimRecord, run_experiment, write_records_csv
from fgred.sim2d import SimConfig


@pytest.fixture(autouse=True)
def restore_fgred_log_level():
    # main sets the level of the "fgred" logger from --log-level
    logger = logging.getLogger("fgred")
    level = logger.level
    yield
    logger.setLevel(level)


def tiny_config_file(tmp_path, **kw):
    cfg = ExperimentConfig(sim=SimConfig(n_poses=4), n_sims=kw.pop("n_sims", 3), **kw)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg.to_dict()))
    return p


def synthetic_csv(tmp_path, n=40):
    rng = np.random.default_rng(1)
    recs = []
    for i in range(n):
        wc = float(rng.uniform(0.1, 2.0))
        recs.append(
            SimRecord(
                sim_id=i, r_wb=-wc, r_wb_se=0.01, r_wass=-wc, r_wass_se=0.01,
                q_wb=(1.0, 2.0), q_wass=(1.0, 2.0), wc_ate=wc,
                mean_dist=(2.0, 3.0), converged=(True, True),
            )
        )
    write_records_csv(recs, tmp_path / "records.csv")
    return recs


def test_analyze_small_batch(tmp_path, capsys):
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "out"
    rc = main(["analyze", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "records.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    # 3 sims is below the correlation minimum: counts only, flagged
    assert summary["n_valid"] == 3
    assert "note" in summary
    prov = json.loads((out / "experiment-config.json").read_text())
    assert prov["config"]["n_sims"] == 3
    assert "3 simulations, 0 failed" in capsys.readouterr().out


def test_analyze_seed_override(tmp_path):
    cfg = tiny_config_file(tmp_path, n_sims=1)
    out = tmp_path / "out"
    rc = main(["analyze", "--config", str(cfg), "--out", str(out), "--seed", "5"])
    assert rc == EXIT_OK
    prov = json.loads((out / "experiment-config.json").read_text())
    assert prov["config"]["root_seed"] == 5


def test_report_rebuilds_from_csv(tmp_path):
    synthetic_csv(tmp_path)
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["spearman_rwass_wcate"]["rho"] < -0.99
    assert (tmp_path / "redundancy-vs-wcate.svg").exists()
    assert (tmp_path / "redundancy-vs-distance.svg").exists()


def test_report_after_small_analyze(tmp_path):
    # analyze accepts a batch below the correlation minimum, so report must too
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    written = (out / "summary.json").read_bytes()
    assert main(["report", "--out", str(out)]) == EXIT_OK
    assert (out / "summary.json").read_bytes() == written


def test_report_takes_only_out(tmp_path):
    for flag in ("--jobs", "--seed", "--config"):
        with pytest.raises(SystemExit):
            main(["report", "--out", str(tmp_path), flag, "2"])


def test_bad_config_exits_1(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n_sims": 5, "mystery": True}))
    assert main(["analyze", "--config", str(p)]) == EXIT_CONFIG
    p.write_text("{not json")
    assert main(["analyze", "--config", str(p)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"root_seed": 1.5}, []),
        ({}, ["--seed", "-1"]),
        ({"sim": {"n_poses": 4.0}}, []),
        ({"n_sims": True}, []),
        # shapes and non-finite numbers; json writes NaN and Infinity and reads them back
        ({"sim": {"step_mean": [1.0, 0.0]}}, []),
        ({"sim": {"sigma_odom": [[0.04, 0.0], [0.0, 0.04]]}}, []),
        ({"sim": {"sigma_step": [[0.04, 0.0, 0.0], [0.0, 0.04, 0.0]]}}, []),
        ({"sim": {"box_half_width": float("nan")}}, []),
        ({"sim": {"bearing_var": float("inf")}}, []),
        ({"sim": {"range_var_coeff": float("nan")}}, []),
        # per-simulation seeds derive from root_seed; a sim seed would go unused
        ({"sim": {"seed": 7}}, []),
    ],
)
def test_bad_count_or_seed_exits_1(tmp_path, capsys, config, argv):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"n_sims": 1, **config}))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(p), "--out", str(out), *argv]) == EXIT_CONFIG
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "config must be a JSON object, got [1]"),
        ('"abc"', "config must be a JSON object, got 'abc'"),
        ("null", "config must be a JSON object, got None"),
        ('{"sim": {"step_mean": 3}}', "step_mean must be 3 finite numbers, got 3"),
        (
            '{"sim": {"sigma_odom": [1, 2, 3]}}',
            "sigma_odom must be a 3 x 3 matrix of finite numbers, got [1, 2, 3]",
        ),
    ],
)
def test_malformed_config_exits_1_with_reason(tmp_path, capsys, text, message):
    p = tmp_path / "config.json"
    p.write_text(text)
    assert main(["analyze", "--config", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"error: invalid config {p}: {message}"


def test_missing_config_exits_2(tmp_path):
    rc = main(["analyze", "--config", str(tmp_path / "absent.json")])
    assert rc == EXIT_IO


def test_unwritable_out_exits_2(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = tiny_config_file(tmp_path, n_sims=1)
    rc = main(["analyze", "--config", str(cfg), "--out", str(blocker)])
    assert rc == EXIT_IO


def test_report_missing_records_exits_2(tmp_path):
    assert main(["report", "--out", str(tmp_path)]) == EXIT_IO


def test_analyze_failure_fraction_exits_3(tmp_path, monkeypatch, caplog):
    def boom(worlds):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(experiment, "solve_block", boom)
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "out"
    rc = main(["analyze", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_TOO_MANY_FAILURES
    # every sim fails with the synthetic error, not with one of its own
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warned == [f"sim {i} failed: RuntimeError: synthetic failure" for i in range(3)]
    # outputs are still written so the failure can be inspected
    assert (out / "records.csv").exists()



def test_log_level_debug_turns_on_library_debug_lines(tmp_path, caplog):
    cfg = tiny_config_file(tmp_path)
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["analyze", "--config", str(cfg), "--out", str(quiet)]) == EXIT_OK
    assert not [r for r in caplog.records if r.name.startswith("fgred")]
    # the OpenBLAS lookup logs once per process: forget the cached one
    gauss._openblas_setters.cache_clear()
    argv = ["analyze", "--config", str(cfg), "--out", str(loud), "--log-level", "DEBUG"]
    assert main(argv) == EXIT_OK
    debug = {r.name for r in caplog.records if r.levelno == logging.DEBUG}
    assert {"fgred.gauss", "fgred.metrics"} <= debug
    for name in ("records.csv", "summary.json"):
        assert (loud / name).read_bytes() == (quiet / name).read_bytes()
    assert main(["report", "--out", str(loud), "--log-level", "ERROR"]) == EXIT_OK
    assert logging.getLogger("fgred").level == logging.ERROR
    with pytest.raises(SystemExit):
        main(["report", "--out", str(loud), "--log-level", "LOUD"])


def test_log_level_info_reports_the_source_solves(tmp_path, caplog):
    # one INFO line per run gives the source solves' count, the median, p90
    # and largest of their iteration counts and how many were capped, from
    # the records' n_iters; records.csv keeps its bytes at every log level
    # and worker count
    cfg = tiny_config_file(tmp_path, n_sims=4)
    iters = np.array([n for rec in run_experiment(ExperimentConfig.from_dict(json.loads(cfg.read_text())))
                      for n in rec.n_iters])
    assert len(iters) == 8
    want = (f"8 source solves: iterations median {np.median(iters):g}, p90 {np.percentile(iters, 90):g}, "
            f"max {iters.max()}; 0 capped at 50")
    outputs = []
    for level, jobs in (("WARNING", 1), ("INFO", 1), ("DEBUG", 1), ("INFO", 2)):
        caplog.clear()
        out = tmp_path / f"{level}-{jobs}"
        argv = ["analyze", "--config", str(cfg), "--out", str(out), "--log-level", level, "--jobs", str(jobs)]
        assert main(argv) == EXIT_OK
        info = [r.getMessage() for r in caplog.records if r.name == "fgred.experiment" and r.levelno == logging.INFO]
        assert info == ([] if level == "WARNING" else [want]), level
        outputs.append((out / "records.csv").read_bytes())
    assert all(out == outputs[0] for out in outputs)
