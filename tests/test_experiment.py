import concurrent.futures
import contextlib
import json
import logging
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import fgred.experiment as experiment
import fgred.gauss as gauss
import fgred.metrics as metrics
import fgred.nonlinear as nonlinear
import fgred.sim2d as sim2d
from fgred.experiment import (
    ExperimentConfig,
    SimRecord,
    correlation_report,
    emit_outputs,
    read_records_csv,
    run_block,
    run_experiment,
    run_single,
    simulate_batch_world,
    solve_block,
    solve_world,
    solve_worlds,
    write_records_csv,
)
from fgred.metrics import (
    QualityKind,
    _expected_abs,
    redundancy_mc_info,
    redundancy_pair_info,
    wass_coefficients_info,
    wb_coefficients_info,
)
from fgred.sim2d import SimConfig
from reference import blas_thread_counts, expected_abs_quad, spearman_permutation_loop


def small_config(**sim_kw):
    sim = SimConfig(n_poses=4, **sim_kw)
    return ExperimentConfig(sim=sim, n_sims=6, root_seed=7)


def synthetic_records(n=40, seed=0, slope=-1.0):
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n):
        wc = float(rng.uniform(0.1, 2.0))
        r = slope * wc + float(rng.normal(0, 1e-6))
        recs.append(
            SimRecord(
                sim_id=i, r_wb=r, r_wb_se=0.01, r_wass=r, r_wass_se=0.01,
                q_wb=(1.0, 2.0), q_wass=(1.0, 2.0), wc_ate=wc,
                mean_dist=(float(rng.uniform(1, 5)), float(rng.uniform(1, 5))),
                converged=(True, True),
            )
        )
    return recs


def test_per_sim_seeds_distinct_and_stable():
    cfg = small_config()
    w0 = simulate_batch_world(cfg, 0)
    w0b = simulate_batch_world(cfg, 0)
    w1 = simulate_batch_world(cfg, 1)
    assert w0.landmarks.tobytes() == w0b.landmarks.tobytes()
    assert w0.landmarks.tobytes() != w1.landmarks.tobytes()


def test_run_single_produces_usable_record():
    rec = run_single(small_config(), 3)
    assert rec.sim_id == 3
    assert not rec.failed
    assert rec.is_usable()
    # exact redundancies: no sampling error, and E min <= min E holds
    # without a standard-error allowance
    assert rec.r_wb_se == 0.0 and rec.r_wass_se == 0.0
    assert rec.r_wb <= min(rec.q_wb) and rec.r_wass <= min(rec.q_wass)
    assert all(q >= 0 for q in rec.q_wb)
    assert all(d > 0 for d in rec.mean_dist)


def test_run_single_one_blas_thread_same_record(monkeypatch):
    setters = gauss._openblas_setters()
    if not setters:
        pytest.skip("no OpenBLAS copy with openblas_set_num_threads_local is loaded")
    cfg = small_config()
    before = blas_thread_counts(setters)
    with monkeypatch.context() as unscoped_run:
        unscoped_run.setattr(experiment, "_one_blas_thread", contextlib.nullcontext())
        unscoped = run_single(cfg, 2)
    seen = []

    def counting_solve(worlds):
        seen.append(blas_thread_counts(setters))
        return solve_block(worlds)

    monkeypatch.setattr(experiment, "solve_block", counting_solve)
    assert run_single(cfg, 2) == unscoped
    assert seen == [[1] * len(setters)]
    assert blas_thread_counts(setters) == before

    class Stop(BaseException):
        pass

    def stop(worlds):
        raise Stop

    monkeypatch.setattr(experiment, "solve_block", stop)
    with pytest.raises(Stop):
        run_single(cfg, 2)
    assert blas_thread_counts(setters) == before


def study_system(sim_id):
    """(prior, [delta_0, delta_1]) of a default-config study world, root seed 0."""
    sol = solve_world(simulate_batch_world(ExperimentConfig(), sim_id))
    return sol.prior, [sol.deltas[0], sol.deltas[1]]


def test_exact_redundancy_matches_monte_carlo_on_study_worlds():
    for sim_id in (0, 1):
        prior, deltas = study_system(sim_id)
        for kind in QualityKind:
            exact = redundancy_pair_info(prior, deltas, kind)
            mc = redundancy_mc_info(prior, deltas, kind, n_samples=200_000, rng_seed=sim_id)
            assert abs(exact - mc.value) < 4 * mc.std_error


def test_imhof_rule_matches_adaptive_quadrature():
    # the same integral, E|S_a - S_b| over the whitened prior, by the
    # library's rule and by adaptive quadrature; sims 29 and 79 are dominated
    # WB pairs, where a plain 400-node rule is off by ~1e-7
    for sim_id in (0, 29, 79):
        prior, deltas = study_system(sim_id)
        for coefficients in (wb_coefficients_info, wass_coefficients_info):
            sq_a, sq_b = (coefficients(prior, d) for d in deltas)
            L_inv = np.linalg.inv(prior.chol)
            lam = np.linalg.eigvalsh(L_inv @ (sq_a.W - sq_b.W) @ L_inv.T)
            want = expected_abs_quad(sq_a.c - sq_b.c, lam)
            assert _expected_abs(np.array([sq_a.c - sq_b.c]), lam[None])[0] == pytest.approx(want, rel=1e-9)


def imhof_rows():
    """(c, lam) of both kinds' pairs on study worlds 0, 29 and 79, then a
    pair whose D never changes sign and one whose D all but never does."""
    cs, lams = [], []
    for sim_id in (0, 29, 79):
        prior, deltas = study_system(sim_id)
        for coefficients in (wb_coefficients_info, wass_coefficients_info):
            sq_a, sq_b = (coefficients(prior, d) for d in deltas)
            cs.append(sq_a.c - sq_b.c)
            lams.append(np.linalg.eigvalsh(prior.whiten(sq_a.W - sq_b.W)))
    cs += [1.0, -1.0]
    lams += [np.abs(lams[0]), 1e-4 * lams[0] / np.abs(lams[0]).max()]
    return np.array(cs), np.array(lams)


def test_imhof_rows_same_bits_in_any_stack():
    # a stack of pairs gives each pair the bits of its one-pair call, in any
    # order; the last two take the same-sign and the Chernoff exits, whose
    # value is |E D|
    c, lam = imhof_rows()
    alone = np.array([_expected_abs(c[[i]], lam[[i]])[0] for i in range(len(c))])
    exits = alone == np.abs(c + lam.sum(axis=1))
    assert exits.tolist() == [False] * (len(c) - 2) + [True, True]
    assert lam[-1].min() < 0.0 < lam[-1].max()
    n = len(c)
    for order in (np.arange(n), np.arange(n)[::-1], np.random.default_rng(4).permutation(n)):
        assert _expected_abs(c[order], lam[order]).tobytes() == alone[order].tobytes()


def test_exact_redundancy_never_exceeds_min_quality():
    # with no standard error to absorb rounding, E min <= min E must hold
    # bit for bit on every record; sim 37 of this batch is a WB pair whose
    # redundancy equals the smaller quality, where an anchor computed apart
    # from quality_info lands above it by rounding
    cfg = ExperimentConfig(n_sims=40, root_seed=3)
    for rec in run_experiment(cfg, jobs=1):
        assert rec.is_usable()
        assert rec.r_wb <= min(rec.q_wb) and rec.r_wass <= min(rec.q_wass)


def test_noiseless_sim_record():
    zero3 = ((0.0,) * 3,) * 3
    cfg = ExperimentConfig(
        sim=SimConfig(n_poses=4, sigma_step=zero3, sigma_odom=zero3,
                      range_var_coeff=0.0, bearing_var=0.0),
        n_sims=1,
    )
    rec = run_single(cfg, 0)
    assert not rec.failed
    assert rec.wc_ate < 1e-10
    assert all(q > 0 for q in rec.q_wb)
    # noiseless odometry already pins the poses, so the extra variance
    # reduction from a landmark can cancel to exactly 0.0 in floats
    assert all(q >= 0 and math.isfinite(q) for q in rec.q_wass)
    assert all(rec.converged)


def test_run_experiment_deterministic_across_workers():
    cfg = small_config()
    rows1 = [r.csv_row() for r in run_experiment(cfg, jobs=1)]
    rows2 = [r.csv_row() for r in run_experiment(cfg, jobs=2)]
    assert rows1 == rows2


def test_worlds_reuse_the_checked_sim_config(monkeypatch):
    # a world is drawn from (config.sim, seed): no SimConfig is built per
    # world and no noise square root is computed again
    cfg = ExperimentConfig(n_sims=5)
    calls = {"SimConfig": 0, "_psd_sqrt": 0}
    post_init, psd_sqrt = sim2d.SimConfig.__post_init__, sim2d._psd_sqrt

    def counted_post_init(self):
        calls["SimConfig"] += 1
        post_init(self)

    def counted_psd_sqrt(M):
        calls["_psd_sqrt"] += 1
        return psd_sqrt(M)

    monkeypatch.setattr(sim2d.SimConfig, "__post_init__", counted_post_init)
    monkeypatch.setattr(sim2d, "_psd_sqrt", counted_psd_sqrt)
    records = run_experiment(cfg, jobs=1)
    assert [r.sim_id for r in records] == list(range(5))
    assert calls == {"SimConfig": 0, "_psd_sqrt": 0}


def test_failed_sim_recorded_not_raised(monkeypatch, caplog):
    def boom(worlds):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(experiment, "solve_block", boom)
    with caplog.at_level(logging.WARNING, logger="fgred.experiment"):
        recs = run_experiment(small_config(), jobs=1)
    assert len(recs) == 6
    assert all(r.failed for r in recs)
    assert "synthetic failure" in recs[0].fail_reason
    assert not recs[0].is_usable()
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warned == [f"sim {i} failed: RuntimeError: synthetic failure" for i in range(6)]


def solve_outcomes(sol):
    """Bits of a world's solves (iterations, flag, last step, values) and info forms."""
    results = [sol.base_result] + [sol.source_results[s] for s in sorted(sol.source_results)]
    solves = [
        (r.n_iters, r.converged, np.float64(r.max_update).tobytes(),
         {k: np.asarray(v).tobytes() for k, v in r.values.items()})
        for r in results
    ]
    deltas = [sol.deltas[s].tobytes() for s in sorted(sol.deltas)]
    return solves, sol.prior.info.tobytes(), deltas


def source_problem_bytes(sim):
    """What one active source problem counts against nonlinear._BLOCK_BYTES."""
    plan = nonlinear._slam_plans(sim.n_poses)[1]
    return 8 * plan.n_cols * (plan.n_rows + 2 * plan.n_cols)


def world_bytes(sim):
    """What one world of a scoring chunk counts against nonlinear._BLOCK_BYTES.

    2.5 times its dense J and J^T J: the base problem's and both source
    increments', each increment with a symmetrized J^T J.
    """
    n_x = 3 * (sim.n_poses + 1)  # pose columns; the base J has as many rows
    n_s = n_x + 2  # an increment's columns: the poses and one landmark
    return 20 * (2 * n_x * n_x + 2 * (2 * sim.n_poses + 2 * n_s) * n_s)


def test_block_matches_one_world_runs(monkeypatch):
    # one block of 8 worlds, 16 source problems with 3 active at a time;
    # sims 0 and 5 of root seed 5 hold a source solve that stops at the
    # 50-iteration cap, and it stays active while the others are refilled
    # around it: every solve keeps the bits it gets alone
    cfg = ExperimentConfig(n_sims=8, root_seed=5)
    monkeypatch.setattr(nonlinear, "_BLOCK_BYTES", 3 * source_problem_bytes(cfg.sim))
    assert nonlinear._block_sizes(cfg.sim.n_poses) == (3, 1)
    blocks, sizes = [], []
    block, normal_equations = nonlinear.solve_gauss_newton_block, nonlinear._Plan.normal_equations

    def recorded(plan, data, X, *args, **kwargs):
        outcomes = block(plan, data, X, *args, **kwargs)
        blocks.append((kwargs["capacity"], X, outcomes))
        return outcomes

    def counted(self, x, data):
        sizes.append(len(x))
        return normal_equations(self, x, data)

    monkeypatch.setattr(nonlinear, "solve_gauss_newton_block", recorded)
    monkeypatch.setattr(nonlinear._Plan, "normal_equations", counted)
    records = run_experiment(cfg, jobs=1)
    [(capacity, X, outcomes)] = blocks
    iterations = sizes[: -2 * cfg.n_sims]  # then the worlds' base and increment linearizations
    # sim 0's capped solve holds a place through the first 50 iterations,
    # and the other two are refilled the whole time
    assert capacity == 3 and iterations[:50] == [3] * 50 and max(iterations) == 3
    assert sum(iterations) == sum(n for _, n, _ in outcomes)
    worlds = [simulate_batch_world(cfg, i) for i in range(cfg.n_sims)]
    capped = []
    for i, world in enumerate(worlds):
        assert records[i].csv_row() == run_single(cfg, i).csv_row(), i
        alone = solve_world(world)
        for s, res in sorted(alone.source_results.items()):
            k = 2 * i + s
            assert outcomes[k] == (res.converged, res.n_iters, res.max_update), (i, s)
            assert X[k].tobytes() == np.concatenate(list(res.values.values())).tobytes(), (i, s)
            capped += [i] if (res.converged, res.n_iters) == (False, 50) else []
    assert capped == [0, 5]


def test_solve_worlds_chunks_keep_each_lone_solve(monkeypatch):
    # three thirty-pose worlds are two scoring chunks at the default budget,
    # of 2 worlds and 1: each world keeps the solves, prior and increments
    # it gets alone, bit for bit
    worlds = [simulate_batch_world(ExperimentConfig(sim=SimConfig(n_poses=30), root_seed=5), i)
              for i in range(3)]
    alone = [solve_outcomes(solve_world(w)) for w in worlds]
    assert nonlinear._block_sizes(30) == (10, 2)
    chunks, information = [], nonlinear.pose_information_system

    def counted(poses, *args):
        chunks.append(len(poses))
        return information(poses, *args)

    monkeypatch.setattr(nonlinear, "pose_information_system", counted)
    solutions = solve_worlds(worlds)
    assert chunks == [2, 1]
    assert [solve_outcomes(sol) for sol in solutions] == alone


def test_records_csv_same_for_any_block_size(tmp_path, monkeypatch):
    # chunks of 1, 15 and all 20 default worlds or of 1, 2 and 6 of 12
    # thirty-pose ones, with 4, 76 and 243 or 4, 10 and 32 source problems
    # active, in one block or in blocks of at most 7 worlds: records.csv
    # keeps its bytes
    default = nonlinear._BLOCK_BYTES
    for cfg, chunks, active in (
        (ExperimentConfig(n_sims=20), [1, 15, 49], [4, 76, 243]),
        (ExperimentConfig(sim=SimConfig(n_poses=30), n_sims=12), [1, 2, 6], [4, 10, 32]),
    ):
        outputs = []
        for budget in (world_bytes(cfg.sim), default, 1 << 23):
            monkeypatch.setattr(nonlinear, "_BLOCK_BYTES", budget)
            assert nonlinear._block_sizes(cfg.sim.n_poses) == (active.pop(0), chunks.pop(0))
            for block_sims in (100, 7):
                monkeypatch.setattr(experiment, "_BLOCK_SIMS", block_sims)
                path = tmp_path / f"{cfg.sim.n_poses}-{budget}-{block_sims}.csv"
                write_records_csv(run_experiment(cfg, jobs=1), path)
                outputs.append(path.read_bytes())
        assert all(out == outputs[0] for out in outputs)


def test_block_peak_memory_stays_bounded(monkeypatch):
    # a block of 30 worlds keeps its worlds, stacks and solved states, and
    # its solves' active set and its chunks' scoring each fit nonlinear._BLOCK_BYTES:
    # traced peaks were 2.89 MiB (30 poses) and 2.41 MiB (10 poses), against
    # 34.6 and 4.66 MiB for a block that solves and scores all 30 at once.
    # When the first chunk's information forms are taken, the source stacks
    # are freed: 0.35 and 0.14 MiB were live then, against 0.52 and 0.20 MiB
    # for a block that kept them through scoring
    information, live = nonlinear.pose_information_system, []

    def traced(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return information(*args)

    monkeypatch.setattr(nonlinear, "pose_information_system", traced)
    for n_poses, limit, first_chunk in ((30, 3.5, 0.43), (10, 3.0, 0.17)):
        cfg = ExperimentConfig(sim=SimConfig(n_poses=n_poses), n_sims=30, root_seed=5)
        run_block(cfg, [0])  # the layout's plans are built once per process
        live.clear()
        tracemalloc.start()
        try:
            records = run_block(cfg, range(30))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(rec.is_usable() for rec in records)
        assert peak <= limit * 2**20, (n_poses, peak / 2**20)
        assert live[0] <= first_chunk * 2**20, (n_poses, live[0] / 2**20)


def test_raising_world_fails_alone(monkeypatch, caplog):
    # sim 4's landmark starts on pose 1, so its first source linearization
    # meets the range-bearing kernel's zero-distance error; its block falls
    # back to one-world solves and only sim 4 fails
    cfg = ExperimentConfig(n_sims=6)
    clean = run_experiment(cfg, jobs=1)
    seed_4 = experiment.world_seed(cfg.root_seed, 4)
    triangulate = nonlinear.triangulate_landmark

    def onto_pose(worlds, poses):
        seeds = triangulate(worlds, poses)
        for k, world in enumerate(worlds):
            if world.seed == seed_4:
                seeds[k] = poses[k, 1, :2]
        return seeds

    monkeypatch.setattr(nonlinear, "triangulate_landmark", onto_pose)
    reason = "ValueError: degenerate range-bearing geometry: zero distance"
    with caplog.at_level(logging.DEBUG, logger="fgred.experiment"):
        records = run_experiment(cfg, jobs=1)
    assert records[4].failed and records[4].fail_reason == reason
    assert run_single(cfg, 4).fail_reason == reason
    for i in (0, 1, 2, 3, 5):
        assert not records[i].failed and records[i].csv_row() == clean[i].csv_row(), i
    logged = [(r.levelno, r.getMessage()) for r in caplog.records]
    assert (logging.DEBUG, f"sims 0-5: block failed ({reason[12:]}), running one world at a time") in logged
    assert [m for level, m in logged if level == logging.WARNING] == [f"sim 4 failed: {reason}"]


def test_degenerate_range_precision_fails_with_its_reason():
    # at range_var_coeff 1e18 a range precision's square root falls to or
    # below PIVOT_TOL in each of these worlds: each sim fails and names its
    # first such factor, with the reason its NonlinearGraph gives
    cfg = ExperimentConfig(sim=SimConfig(range_var_coeff=1e18), n_sims=3)
    reasons = [
        "NotPositiveDefiniteError: gamma of factor 11 is not positive definite: "
        "leading minor of order 1 is not positive (pivot 1.739e-19)",
        "NotPositiveDefiniteError: gamma of factor 12 is not positive definite: "
        "leading minor of order 1 is not positive (pivot 2.488e-19)",
        "NotPositiveDefiniteError: gamma of factor 16 is not positive definite: "
        "leading minor of order 1 is not positive (pivot 4.274e-19)",
    ]
    records = run_experiment(cfg, jobs=1)
    assert [(r.failed, r.fail_reason) for r in records] == [(True, why) for why in reasons]
    for i, why in enumerate(reasons):
        with pytest.raises(gauss.NotPositiveDefiniteError) as err:
            nonlinear.build_nonlinear_graph(simulate_batch_world(cfg, i))
        assert f"NotPositiveDefiniteError: {err.value}" == why


def test_scoring_failure_fails_alone(monkeypatch, caplog):
    # with Imhof's budget cut to 9,000, one pair of sim 5 is out of reach (it
    # needs 9,240) and every pair of sims 0-4 is not (they need at most
    # 8,580): the block's scoring raises, its worlds are run one at a time,
    # and only sim 5 fails. That holds when sim 5 is scored in one chunk with
    # sims 0-4, and when a budget of five worlds scores it in a later chunk
    # than theirs, after their chunk has been scored
    cfg = ExperimentConfig(n_sims=6)
    clean = run_experiment(cfg, jobs=1)
    monkeypatch.setattr(metrics, "_IMHOF_BUDGET", 9000)
    score_block, scored = experiment._score_block, []

    def recording_score_block(sim_ids, worlds, *solved):
        scored.append(list(sim_ids))
        return score_block(sim_ids, worlds, *solved)

    monkeypatch.setattr(experiment, "_score_block", recording_score_block)
    for block_bytes, chunks in (
        (nonlinear._BLOCK_BYTES, [[0, 1, 2, 3, 4, 5]]),
        (5 * world_bytes(cfg.sim), [[0, 1, 2, 3, 4], [5]]),
    ):
        monkeypatch.setattr(nonlinear, "_BLOCK_BYTES", block_bytes)
        scored.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fgred.experiment"):
            records = run_experiment(cfg, jobs=1)
        assert scored == chunks + [[i] for i in range(6)]
        reason = records[5].fail_reason
        assert records[5].failed and reason.startswith("ValueError: E|D| out of reach: c = ")
        assert run_single(cfg, 5).fail_reason == reason
        for i in range(5):
            assert not records[i].failed and records[i].csv_row() == clean[i].csv_row(), i
        logged = [(r.levelno, r.getMessage()) for r in caplog.records]
        assert (logging.DEBUG, f"sims 0-5: block failed ({reason[12:]}), running one world at a time") in logged


def test_block_builds_one_posterior_per_source(monkeypatch):
    # both quality kinds read each source's posterior: 2 per world, not 4
    cfg = ExperimentConfig(n_sims=5)
    posterior, calls = metrics._posterior, []

    def counting_posterior(prior, delta):
        calls.append(prior)
        return posterior(prior, delta)

    monkeypatch.setattr(metrics, "_posterior", counting_posterior)
    assert all(rec.is_usable() for rec in run_block(cfg, range(5)))
    assert len(calls) == 2 * cfg.n_sims


def test_pool_never_larger_than_the_block_count(monkeypatch):
    # an executor forks all its workers at once, and each takes whole
    # blocks: the batch is cut into even runs of consecutive ids, at most
    # _BLOCK_SIMS each and a multiple of min(jobs, n_sims) of them, and the
    # pool has min(jobs, n_sims) workers; the stand-in pool maps in this
    # process
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, configs, blocks):
            blocks = list(blocks)
            seen.append([len(ids) for ids in blocks])
            assert [i for ids in blocks for i in ids] == list(range(sum(map(len, blocks))))
            return map(fn, configs, blocks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiment, "_BLOCK_SIMS", 8)
    cfg = ExperimentConfig(n_sims=30)
    serial = [rec.csv_row() for rec in run_experiment(cfg, jobs=1)]
    assert seen == []
    for jobs, pool in ((2, [2, [7, 8, 7, 8]]), (3, [3, [5] * 6]), (64, [30, [1] * 30])):
        assert [rec.csv_row() for rec in run_experiment(cfg, jobs=jobs)] == serial
        assert seen == pool
        seen.clear()
    run_experiment(ExperimentConfig(n_sims=1), jobs=64)
    assert seen == []


def test_thirty_sims_at_two_jobs_run_two_blocks(tmp_path, monkeypatch):
    # one block would leave the second worker idle: a 30-sim batch at
    # --jobs 2 runs two blocks of 15, in a real pool, and writes the bytes
    # of --jobs 1, which runs one block of 30
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, configs, blocks):
            blocks = list(blocks)
            pools.append([len(ids) for ids in blocks])
            return super().map(fn, configs, blocks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    cfg = ExperimentConfig(n_sims=30)
    outputs = []
    for jobs in (1, 2):
        path = tmp_path / f"records-{jobs}.csv"
        write_records_csv(run_experiment(cfg, jobs=jobs), path)
        outputs.append(path.read_bytes())
    assert pools == [[15, 15]]
    assert outputs[0] == outputs[1]


def test_records_csv_round_trip(tmp_path):
    recs = [run_single(small_config(), i) for i in range(3)]
    recs.append(SimRecord(sim_id=3, failed=True, fail_reason="it broke"))
    p = tmp_path / "records.csv"
    write_records_csv(recs, p)
    back = read_records_csv(p)
    assert len(back) == 4
    for a, b in zip(recs, back):
        assert a.csv_row() == b.csv_row()
        assert a.failed == b.failed
    # exact float round trip, not approximate
    assert back[0].r_wass == recs[0].r_wass


def test_records_csv_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_records_csv(p)


def test_correlation_report_monotone_construction():
    rep = correlation_report(synthetic_records())
    assert rep["spearman_rwass_wcate"]["rho"] == pytest.approx(-1.0)
    assert rep["spearman_rwass_wcate"]["p_value"] < 0.01
    assert not rep["spearman_rwass_wcate"]["degenerate"]
    q = rep["quartile_medians"]["wass"]
    assert q[0] > q[-1]  # low redundancy quartile has higher wc-ate


def test_correlation_report_constant_degenerate():
    recs = synthetic_records()
    recs = [
        SimRecord(
            sim_id=r.sim_id, r_wb=1.0, r_wb_se=0.01, r_wass=1.0, r_wass_se=0.01,
            q_wb=r.q_wb, q_wass=r.q_wass, wc_ate=r.wc_ate,
            mean_dist=r.mean_dist, converged=r.converged,
        )
        for r in recs
    ]
    rep = correlation_report(recs)
    assert rep["spearman_rwass_wcate"]["degenerate"]
    assert math.isnan(rep["spearman_rwass_wcate"]["rho"])


def test_average_ranks_match_scipy_rankdata():
    from scipy import stats

    rng = np.random.default_rng(3)
    inputs = [
        rng.standard_normal(50),
        rng.integers(0, 6, size=60).astype(float),
        np.array([2.0, -1.0, 2.0, 0.0, -0.0, 2.0, 5.0]),
        np.array([1.0, 1.0, 1.0]),
    ]
    for v in inputs:
        assert np.array_equal(experiment._average_ranks(v), stats.rankdata(v))


def replayed_rank_sums(x, y, n_shuffles):
    """Observed and shuffled sums of 2 rank(x) * 2 rank(y) as Python ints.

    The shuffles replay experiment's draws, one rng.permutation each.
    """
    twice_x = (2 * experiment._average_ranks(x)).astype(int).tolist()
    twice_y = (2 * experiment._average_ranks(y)).astype(int)
    rng = np.random.default_rng(experiment._PERMUTATION_SEED)
    shuffled = [
        sum(a * b for a, b in zip(twice_x, rng.permutation(twice_y).tolist()))
        for _ in range(n_shuffles)
    ]
    return sum(a * b for a, b in zip(twice_x, twice_y.tolist())), shuffled


def test_permutation_count_matches_loop_on_tie_free_data():
    # blocked draws replay the loop's shuffles; when no shuffle's rank sum
    # equals the observed one, the float rho comparison of the loop is
    # right on every shuffle and both counts agree (2,500 shuffles end in a
    # partial block)
    rng = np.random.default_rng(4)
    for n, n_shuffles in ((60, 2500), (200, 1000)):
        x = rng.standard_normal(n)
        y = -0.2 * x + rng.standard_normal(n)
        observed, shuffled = replayed_rank_sums(x, y, n_shuffles)
        assert observed not in shuffled
        got = experiment._spearman_grid([x], [y], n_shuffles)[0][0]
        rho, hits = spearman_permutation_loop(x, y, n_shuffles, experiment._PERMUTATION_SEED)
        assert got["rho"] == rho
        assert got["p_value"] == (1 + hits) / (1 + n_shuffles)


def test_permutation_count_exact_on_ties():
    # every y value occurs once in each x group, so rho is exactly 0 and a
    # shuffle that keeps that balance ties it; the float rho of the observed
    # data is -1.8e-17 and misses such ties, the integer count does not
    x = np.repeat([0.0, 1.0, 2.0], 3)
    y = np.tile([0.0, 1.0, 2.0], 3)
    n_shuffles = 1000
    observed, shuffled = replayed_rank_sums(x, y, n_shuffles)
    hits = sum(v <= observed for v in shuffled)
    got = experiment._spearman_grid([x], [y], n_shuffles)[0][0]
    assert got["p_value"] == (1 + hits) / (1 + n_shuffles)
    _, float_hits = spearman_permutation_loop(x, y, n_shuffles, experiment._PERMUTATION_SEED)
    assert float_hits < hits


def test_correlation_report_shares_shuffles(monkeypatch):
    # the report's 2 x 2 grid is the four one-pair tests, bit for bit, from
    # 10 blocks of shuffles instead of 40
    recs = synthetic_records(n=60)
    for r in recs[::7]:  # ties in the distances
        r.mean_dist = recs[0].mean_dist
    rep = correlation_report(recs)
    r_wass, r_wb, wc, dist = (
        np.array(v) for v in zip(*[(r.r_wass, r.r_wb, r.wc_ate, max(r.mean_dist)) for r in recs])
    )
    pairs = {
        ("spearman_rwass_wcate",): (r_wass, wc),
        ("spearman_rwb_wcate",): (r_wb, wc),
        ("spearman_r_dist", "wass"): (r_wass, dist),
        ("spearman_r_dist", "wb"): (r_wb, dist),
    }
    for keys, (x, y) in pairs.items():
        got = rep[keys[0]] if len(keys) == 1 else rep[keys[0]][keys[1]]
        assert got == experiment._spearman_grid([x], [y])[0][0], keys

    calls = []
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def permuted(self, *args, **kwargs):
            calls.append(args[0].shape)
            return self.rng.permuted(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    assert correlation_report(recs) == rep
    assert calls == [(1000, 60)] * 10


def test_correlation_report_too_few_records():
    with pytest.raises(ValueError, match="30"):
        correlation_report(synthetic_records(n=10))


def test_qualities_decrease_when_box_doubled():
    # range noise grows quadratically with distance, so pushing landmarks
    # out must cost information on average
    n = 100
    qs = {}
    for C in (10.0, 20.0):
        cfg = ExperimentConfig(sim=SimConfig(box_half_width=C), n_sims=1)
        wb, wass = [], []
        for i in range(n):
            rec = run_single(cfg, i)
            if rec.is_usable():
                wb.extend(rec.q_wb)
                wass.extend(rec.q_wass)
        qs[C] = (np.mean(wb), np.mean(wass))
    assert qs[20.0][0] < qs[10.0][0]
    assert qs[20.0][1] < qs[10.0][1]


def test_emit_outputs_files(tmp_path):
    recs = synthetic_records()
    rep = correlation_report(recs)
    cfg = small_config()
    paths = emit_outputs(recs, rep, tmp_path, config=cfg)
    assert paths["records"].exists()
    assert paths["summary"].exists()
    summary = json.loads(paths["summary"].read_text())
    assert summary["n_valid"] == 40
    assert "spearman_rwass_wcate" in summary
    for key in ("wcate_plot", "distance_plot"):
        tree = ET.parse(paths[key])  # well-formed XML
        assert tree.getroot().tag.endswith("svg")
    prov = json.loads((tmp_path / "experiment-config.json").read_text())
    assert prov["config"]["n_sims"] == cfg.n_sims
    back = read_records_csv(paths["records"])
    assert [r.csv_row() for r in back] == [r.csv_row() for r in recs]


def test_experiment_config_round_trip():
    cfg = small_config(bearing_var=0.123)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    # configs saved before mc_samples was removed still load, to the same config
    assert ExperimentConfig.from_dict({**cfg.to_dict(), "mc_samples": 200}) == cfg
    assert "mc_samples" not in cfg.to_dict()
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({**cfg.to_dict(), "mystery": 2})
    for bad in ({"n_sims": 0}, {"n_sims": True}, {"n_sims": 2.0}, {"root_seed": 1.5}, {"root_seed": -1}):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    # configs saved with a sim seed of 0 still load, to the same config;
    # any other seed would be silently unused
    assert "seed" not in cfg.to_dict()["sim"]
    assert ExperimentConfig.from_dict({**cfg.to_dict(), "sim": {**cfg.sim.to_dict(), "seed": 0}}) == cfg
    with pytest.raises(ValueError, match=r"^sim.seed must be 0, got 7: seeds derive from root_seed$"):
        ExperimentConfig.from_dict({**cfg.to_dict(), "sim": {**cfg.sim.to_dict(), "seed": 7}})
    with pytest.raises(ValueError, match=r"^sim must be a JSON object, got \[1, 2\]$"):
        ExperimentConfig.from_dict({"sim": [1, 2]})
