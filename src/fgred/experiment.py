"""Batch simulation study: redundancy versus worst-case trajectory error.

Each simulation draws a world, takes the base (anchor + odometry) MAP in
closed form, solves one SLAM problem per landmark source, linearizes there,
Schur-marginalizes the landmarks, and evaluates both redundancy metrics on
the pose-marginal information forms, exactly for the two landmark sources
(metrics.redundancy_pair_info). Worst-case trajectory error and
trajectory-to-landmark distances are recorded alongside.

Simulations run in blocks of at most _BLOCK_SIMS consecutive sim ids
(`run_block`), each one task of the worker pool; a batch is cut into the
same number of blocks for each worker. A block's source problems are solved
as one Newton solver block (nonlinear.solve_block) that keeps a bounded
number of problems active and lets the next one in as each leaves, so each
iteration makes one kernel call per factor type for the whole active set.
It then hands out the block's worlds in chunks of bounded size with their
information forms, and each chunk is scored together (`_score_block`): one
posterior per source serves both quality kinds, and the coefficient
products, the spectra, Imhof's rule and the WC-ATE alignments run on
stacks over the chunk. `nonlinear` sizes both from one byte budget, so a
block holds only its worlds, stacks and solved states beyond it. If
anything in a block raises, its worlds are run again one at a time, so
only the world at fault fails. `run_single` and `solve_world` are the
one-world cases of the same code.

Per-simulation seeds are derived from the root seed and the simulation id
only, and a world's numbers are the same bits in any block, so results are
independent of block size, worker count and scheduling.
"""
from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .alignment import wc_ates
from .gauss import _one_blas_thread
from .metrics import QualityKind, _pair_scores
from .nonlinear import MAX_ITERS, SlamSolution, solve_block, solve_worlds
from .sim2d import N_LANDMARKS, SimConfig, SimWorld, _check_count, simulate_world
from .svgplot import scatter_svg

logger = logging.getLogger(__name__)

# SimRecord fields written to records.csv, in column order: (name, cell type,
# per landmark). A per-landmark field holds one value per landmark and
# expands to the columns name_0 .. name_{N_LANDMARKS - 1}.
_CSV_FIELDS = (
    ("sim_id", int, False),
    ("r_wb", float, False),
    ("r_wb_se", float, False),
    ("r_wass", float, False),
    ("r_wass_se", float, False),
    ("q_wb", float, True),
    ("q_wass", float, True),
    ("wc_ate", float, False),
    ("mean_dist", float, True),
    ("converged", bool, True),
)
RECORD_COLUMNS = [
    f"{name}_{s}" if per_landmark else name
    for name, _, per_landmark in _CSV_FIELDS
    for s in (range(N_LANDMARKS) if per_landmark else [None])
]

# Fixed internal seed for permutation tests: p-values are part of the
# deterministic output and must not depend on worker count or call order.
_PERMUTATION_SEED = 715517
# Shuffles drawn at once: at 500 records a block of 1,000 index rows is 4 MB,
# and the two y series' shuffled ranks 8 MB.
_PERMUTATION_BLOCK = 1000
# Most worlds one block holds. It keeps their worlds, stacks and solved
# states until it is scored: about 12 kB per thirty-pose world, traced.
_BLOCK_SIMS = 100
MIN_VALID_FOR_CORRELATION = 30


@dataclass(frozen=True)
class ExperimentConfig:
    """Batch parameters wrapping the simulation config.

    Simulation sim_id draws its world from the seed world_seed(root_seed,
    sim_id). from_dict accepts two keys that older saved configs carry:
    mc_samples, ignored because the study's redundancies are exact, and a
    sim.seed of 0; any other sim.seed is rejected, as it would go unused.
    """

    sim: SimConfig = field(default_factory=SimConfig)
    n_sims: int = 500
    root_seed: int = 0

    def __post_init__(self):
        _check_count("n_sims", self.n_sims, 1)
        _check_count("root_seed", self.root_seed, 0)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["sim"] = self.sim.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        kwargs = dict(data)
        kwargs.pop("mc_samples", None)
        unknown = set(kwargs) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
        if "sim" in kwargs:
            if not isinstance(kwargs["sim"], dict):
                raise ValueError(f"sim must be a JSON object, got {kwargs['sim']!r}")
            sim = dict(kwargs["sim"])
            seed = sim.pop("seed", 0)
            _check_count("sim.seed", seed, 0)
            if seed != 0:
                raise ValueError(f"sim.seed must be 0, got {seed}: seeds derive from root_seed")
            kwargs["sim"] = SimConfig.from_dict(sim)
        return cls(**kwargs)


@dataclass
class SimRecord:
    """Per-simulation outcome row. Failed rows carry NaNs and a reason.

    r_wb_se and r_wass_se are the redundancies' standard errors; run_single
    writes 0.0 because its redundancies are exact. fail_reason and each
    source solve's iteration count, n_iters, stay out of records.csv.
    """

    sim_id: int
    r_wb: float = math.nan
    r_wb_se: float = math.nan
    r_wass: float = math.nan
    r_wass_se: float = math.nan
    q_wb: tuple = (math.nan,) * N_LANDMARKS
    q_wass: tuple = (math.nan,) * N_LANDMARKS
    wc_ate: float = math.nan
    mean_dist: tuple = (math.nan,) * N_LANDMARKS
    converged: tuple = (False,) * N_LANDMARKS
    failed: bool = False
    fail_reason: str = ""
    n_iters: tuple = ()

    def is_usable(self) -> bool:
        vals = [self.r_wb, self.r_wass, self.wc_ate, *self.mean_dist]
        return not self.failed and all(math.isfinite(v) for v in vals)

    def csv_row(self) -> list[str]:
        cells = []
        for name, cell_type, per_landmark in _CSV_FIELDS:
            value = getattr(self, name)
            for v in value if per_landmark else (value,):
                cells.append(repr(float(v)) if cell_type is float else str(int(v)))
        return cells


def world_seed(root_seed: int, sim_id: int) -> int:
    """Deterministic per-simulation world seed."""
    ss = np.random.SeedSequence([int(root_seed), int(sim_id), 0])
    return int(ss.generate_state(1, np.uint64)[0])


def simulate_batch_world(config: ExperimentConfig, sim_id: int) -> SimWorld:
    """The world that run_single(config, sim_id) would analyze."""
    return simulate_world(config.sim, world_seed(config.root_seed, sim_id))


def solve_world(world: SimWorld) -> SlamSolution:
    """Solve base + per-source SLAM and build pose-marginal info forms."""
    return solve_worlds([world])[0]


def run_single(config: ExperimentConfig, sim_id: int) -> SimRecord:
    """One full simulation -> record: the one-world block of `run_block`."""
    return run_block(config, [sim_id])[0]


def run_block(config: ExperimentConfig, sim_ids: Sequence[int]) -> list[SimRecord]:
    """Records of a block of simulations, solved together. Exceptions become failed records.

    The block's source problems are one Newton solver block
    (`nonlinear.solve_block`), and each chunk of worlds it hands out is
    scored together. If any of that raises, each world is run again as a
    block of one, so only the world at fault fails, with its own reason.
    The block's linear algebra runs on one BLAS thread: its matrices are
    too small to gain from more, and `run_experiment`'s workers are the way
    to use more cores.
    """
    with _one_blas_thread:
        try:
            worlds = [simulate_batch_world(config, i) for i in sim_ids]
            return [
                rec
                for chunk, *solved in solve_block(worlds)
                for rec in _score_block(sim_ids[chunk], worlds[chunk], *solved)
            ]
        except Exception as exc:  # per-sim failures must never abort the batch
            if len(sim_ids) == 1:
                return [_failed_record(sim_ids[0], exc)]
            logger.debug("sims %d-%d: block failed (%s), running one world at a time",
                         sim_ids[0], sim_ids[-1], exc)
            return [rec for i in sim_ids for rec in run_block(config, [i])]


def _score_block(
    sim_ids: Sequence[int], worlds: Sequence[SimWorld], priors: list, deltas: list, states: np.ndarray, outcomes: list
) -> list[SimRecord]:
    """Records of a chunk of `solve_block`: its worlds' priors, increments, source states and outcomes.

    Both kinds' pair redundancies and source qualities come from one
    `metrics._pair_scores` call, and the WC-ATEs from one `wc_ates` call on
    the source solves' poses, so each world's numbers are the bits it gets
    in a block of one.
    """
    scores = _pair_scores(priors, [[delta[s] for s in range(N_LANDMARKS)] for delta in deltas])
    truths = np.array([world.truth_array[:, :2] for world in worlds])
    source_poses = states[:, :-2].reshape(len(worlds), N_LANDMARKS, -1, 3)
    wc = wc_ates(truths, source_poses[..., :2].copy())
    (r_wb, q_wb), (r_wass, q_wass) = scores[QualityKind.WB], scores[QualityKind.WASS]
    records = []
    for k, (sim_id, world) in enumerate(zip(sim_ids, worlds)):
        records.append(SimRecord(
            sim_id=sim_id,
            r_wb=float(r_wb[k]),
            r_wb_se=0.0,
            r_wass=float(r_wass[k]),
            r_wass_se=0.0,
            q_wb=tuple(float(q) for q in q_wb[k]),
            q_wass=tuple(float(q) for q in q_wass[k]),
            wc_ate=float(wc[k]),
            mean_dist=tuple(float(d) for d in world.landmark_distances().mean(axis=1)),
            converged=tuple(c for c, _, _ in outcomes[k * N_LANDMARKS : (k + 1) * N_LANDMARKS]),
            n_iters=tuple(n for _, n, _ in outcomes[k * N_LANDMARKS : (k + 1) * N_LANDMARKS]),
        ))
    return records


def _failed_record(sim_id: int, exc: Exception) -> SimRecord:
    return SimRecord(sim_id=sim_id, failed=True, fail_reason=f"{type(exc).__name__}: {exc}")


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[SimRecord]:
    """Run the whole batch; output is identical for any worker count.

    Sims run in blocks of consecutive ids (`run_block`), each one task of
    the pool. The blocks are as even as can be, hold at most _BLOCK_SIMS
    worlds, and come in a multiple of the worker count, min(jobs, n_sims),
    so every worker gets as many. Each failed sim is logged at WARNING with
    its reason, and the run's source solves at INFO: their count, the
    median, p90 and largest iteration count, and how many were capped.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    n = config.n_sims
    workers = min(jobs, n)
    n_blocks = workers * -(-n // (_BLOCK_SIMS * workers))
    blocks = [list(range(n * k // n_blocks, n * (k + 1) // n_blocks)) for k in range(n_blocks)]
    if workers == 1:
        records = [rec for ids in blocks for rec in run_block(config, ids)]
    else:
        # imported here, so a one-process run does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks_done = pool.map(run_block, itertools.repeat(config), blocks)
            records = [rec for recs in blocks_done for rec in recs]
    records.sort(key=lambda r: r.sim_id)
    for rec in records:
        if rec.failed:
            logger.warning("sim %d failed: %s", rec.sim_id, rec.fail_reason)
    solves = [(n, c) for rec in records for n, c in zip(rec.n_iters, rec.converged)]
    if solves:
        iters = np.array([n for n, _ in solves])
        logger.info(
            "%d source solves: iterations median %g, p90 %g, max %d; %d capped at %d",
            len(solves), np.median(iters), np.percentile(iters, 90), iters.max(),
            sum(n == MAX_ITERS and not c for n, c in solves), MAX_ITERS,
        )
    return records


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of v; tied values share the mean of their ranks."""
    _, group, counts = np.unique(v, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the highest rank in each tie group
    return (last - 0.5 * (counts - 1))[group]


def _spearman_grid(
    xs: Sequence[np.ndarray], ys: Sequence[np.ndarray], n_shuffles: int = 10_000
) -> list[list[dict]]:
    """Spearman rho of each (xs[i], ys[j]) pair with a one-sided (negative) permutation p-value.

    A shuffle of y's ranks is a hit when its rank sum sum_i rank(x)_i
    rank(y)_perm(i) is at most the observed one; average ranks are
    half-integers, so the sums are exact and ties count. Every pair sees
    the same shuffles: each block draws the index permutations that one
    rng.permutation per shuffle would, and applies them to every y's ranks.

    Constant inputs make the correlation undefined: reported as NaN with the
    degenerate flag set, never silently dropped.
    """
    n = len(xs[0])
    # (n, x) and contiguous: a transposed view made the products 6x slower on two BLAS threads
    ax = np.stack([_average_ranks(x) for x in xs], axis=1)
    ay = np.array([_average_ranks(y) for y in ys])
    observed = ay @ ax
    rng = np.random.default_rng(_PERMUTATION_SEED)
    hits = np.zeros(observed.shape, dtype=int)
    for start in range(0, n_shuffles, _PERMUTATION_BLOCK):
        block = np.tile(np.arange(n), (min(_PERMUTATION_BLOCK, n_shuffles - start), 1))
        shuffled = np.take(ay, rng.permuted(block, axis=1), axis=1) @ ax  # (y, shuffle, x)
        hits += np.count_nonzero(shuffled <= observed[:, None], axis=1)
    z = [(a - a.mean()) / a.std() if a.min() < a.max() else None for a in (*ax.T, *ay)]
    grid = []
    for i, zx in enumerate(z[: len(xs)]):
        row = []
        for j, zy in enumerate(z[len(xs) :]):
            if zx is None or zy is None:
                row.append({"rho": math.nan, "p_value": math.nan, "degenerate": True})
                continue
            p = (1 + int(hits[j, i])) / (1 + n_shuffles)
            row.append({"rho": float(zx @ zy / n), "p_value": p, "degenerate": False})
        grid.append(row)
    return grid


def _quartile_medians(r_values: np.ndarray, scores: np.ndarray) -> list[float]:
    """Median score within each quartile of r_values, lowest quartile first."""
    edges = np.quantile(r_values, [0.25, 0.5, 0.75])
    groups = np.digitize(r_values, edges, right=True)
    out = []
    for g in range(4):
        sel = scores[groups == g]
        out.append(float(np.median(sel)) if sel.size else math.nan)
    return out


def correlation_report(records: Sequence[SimRecord]) -> dict:
    """Summary statistics for a batch of records.

    Needs at least MIN_VALID_FOR_CORRELATION usable records. WC-ATE is
    z-scored within the batch before quartile medians are taken.
    """
    valid = [r for r in records if r.is_usable()]
    n_valid = len(valid)
    if n_valid < MIN_VALID_FOR_CORRELATION:
        raise ValueError(
            f"correlation analysis needs >= {MIN_VALID_FOR_CORRELATION} usable "
            f"records, got {n_valid}"
        )
    r_wb = np.array([r.r_wb for r in valid])
    r_wass = np.array([r.r_wass for r in valid])
    wc = np.array([r.wc_ate for r in valid])
    max_dist = np.array([max(r.mean_dist) for r in valid])

    wc_std = wc.std()
    wc_z = (wc - wc.mean()) / wc_std if wc_std > 0 else np.zeros_like(wc)
    (wass_wc, wass_dist), (wb_wc, wb_dist) = _spearman_grid([r_wass, r_wb], [wc, max_dist])

    return {
        "n_records": len(records),
        "n_failed": sum(1 for r in records if r.failed),
        "n_valid": n_valid,
        "spearman_rwass_wcate": wass_wc,
        "spearman_rwb_wcate": wb_wc,
        "spearman_r_dist": {"wass": wass_dist, "wb": wb_dist},
        "quartile_medians": {
            "wass": _quartile_medians(r_wass, wc_z),
            "wb": _quartile_medians(r_wb, wc_z),
        },
    }


def _jsonify(obj):
    """Replace NaN/inf with None recursively so the JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (int, np.integer, str, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_records_csv(records: Sequence[SimRecord], path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        for rec in sorted(records, key=lambda r: r.sim_id):
            writer.writerow(rec.csv_row())


def _parse_flag(cell: str) -> bool:
    return bool(int(cell))


def read_records_csv(path) -> list[SimRecord]:
    """Parse records.csv back; rows with non-finite key metrics are failed."""
    records = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != RECORD_COLUMNS:
            raise ValueError(f"unexpected records.csv header: {header}")
        for row in reader:
            if len(row) != len(RECORD_COLUMNS):
                raise ValueError(f"records.csv row has {len(row)} cells")
            cells = iter(row)
            fields = {}
            for name, cell_type, per_landmark in _CSV_FIELDS:
                parse = _parse_flag if cell_type is bool else cell_type
                values = tuple(
                    parse(next(cells)) for _ in range(N_LANDMARKS if per_landmark else 1)
                )
                fields[name] = values if per_landmark else values[0]
            rec = SimRecord(**fields)
            rec.failed = not rec.is_usable()
            records.append(rec)
    return records


def emit_outputs(
    records: Sequence[SimRecord],
    summary: dict,
    out_dir,
    config: ExperimentConfig | None = None,
) -> dict:
    """Write records.csv, summary.json and the two scatter figures."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out / "records.csv",
        "summary": out / "summary.json",
        "wcate_plot": out / "redundancy-vs-wcate.svg",
        "distance_plot": out / "redundancy-vs-distance.svg",
    }
    write_records_csv(records, paths["records"])
    paths["summary"].write_text(
        json.dumps(_jsonify(summary), indent=2, sort_keys=True) + "\n"
    )

    valid = [r for r in records if r.is_usable()]
    r_wb = [r.r_wb for r in valid]
    r_wass = [r.r_wass for r in valid]
    wc = [r.wc_ate for r in valid]
    dist = [max(r.mean_dist) for r in valid]
    scatter_svg(
        paths["wcate_plot"],
        [
            ("information", r_wb, wc, "#1f77b4"),
            ("wasserstein", r_wass, wc, "#d62728"),
        ],
        xlabel="redundancy",
        ylabel="worst-case ATE [m^2]",
        title="Redundancy vs worst-case trajectory error",
    )
    scatter_svg(
        paths["distance_plot"],
        [
            ("information", r_wb, dist, "#1f77b4"),
            ("wasserstein", r_wass, dist, "#d62728"),
        ],
        xlabel="redundancy",
        ylabel="max mean landmark distance [m]",
        title="Redundancy vs landmark distance",
    )
    if config is not None:
        provenance = {"config": config.to_dict(), "version": __version__}
        (out / "experiment-config.json").write_text(
            json.dumps(provenance, indent=2, sort_keys=True) + "\n"
        )
        paths["config"] = out / "experiment-config.json"
    return paths
