"""The benchmark's workloads: inputs made from a seed, timed rounds, checks.

A workload is prepared once, then run_round(k) is called for k = 0, 1, ...
until the run's time is up, and check() judges every output afterwards.
Every call into fgred goes through a module attribute, so the wrappers that
tracing.Tracer installs see it.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

import fgred.cli as cli
import fgred.experiment as experiment
import fgred.lattice as lattice
import fgred.metrics as metrics
import fgred.nonlinear as nonlinear
import graphs
import oracles

# Simulations per `fgred analyze` call. correlation_report needs at least 30
# usable records, so every round also exercises the correlation stage.
STUDY_BLOCK = 30
# Simulations of the first round that the checks solve again from scratch.
RECHECKED_SIMS = 2
# Largest whitened residual, in measurement standard deviations, that one
# more Gauss-Newton step could remove at a converged solve.
STATIONARITY_TOL = 1e-4
# Agreement asked of closed forms evaluated two ways in float64.
REL_TOL = 1e-8
# Samples of the independent reference estimator, as a multiple of the
# program's sample count and as a floor.
REFERENCE_FACTOR = 4
REFERENCE_MIN_SAMPLES = 20_000

KINDS = ("wb", "wass")

SETUP_STUDY = """
import json, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import fgred.cli
from fgred.experiment import ExperimentConfig
ExperimentConfig.from_dict(json.loads(Path(sys.argv[2]).read_text()))
print(time.monotonic() - float(sys.argv[-1]))
"""

SETUP_LATTICE = """
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import fgred
from graphs import lattice_graph
graphs = [lattice_graph(int(sys.argv[3]), i) for i in range(int(sys.argv[4]))]
fgred.enumerate_antichains(3)
print(time.monotonic() - float(sys.argv[-1]))
"""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _reference_checks(gate, label, lam_b, deltas, values, n_samples, seed) -> None:
    """Compare redundancy estimates with the independent reference estimator.

    values maps kind -> (estimate, reported standard error).
    """
    n_ref = max(REFERENCE_FACTOR * n_samples, REFERENCE_MIN_SAMPLES)
    for i, kind in enumerate(KINDS):
        value, se = values[kind]
        ref = oracles.redundancy_reference(lam_b, deltas, kind, n_ref, [*seed, i])
        gate.add(
            f"{label} {kind}: estimate vs reference",
            value - ref["value"], math.hypot(se, ref["std_error"]), one_sided=False,
        )
        gate.add(
            f"{label} {kind}: reported SE vs plain Monte Carlo SE",
            se - ref["sd"] / math.sqrt(n_samples),
            oracles.se_difference_spread(ref["sd"], ref["kurtosis"], n_samples, n_ref),
            one_sided=True,
        )


class Study:
    """`fgred analyze` over a block of simulations, one CLI call per round.

    Round k analyzes sim ids 0..STUDY_BLOCK-1 with root seed 1000 * seed + k,
    so every round draws new worlds and a run covers as many worlds as it
    has time for.
    """

    def __init__(self, sim: dict, mc_samples: int, parallel: bool = False, stationarity: bool = False):
        self.sim = sim
        self.mc_samples = mc_samples
        self.jobs = len(os.sched_getaffinity(0)) if parallel else 1
        self.stationarity = stationarity

    def prepare(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.out = out
        self.config_path = out / "config.json"
        self.config = {"sim": self.sim, "n_sims": STUDY_BLOCK, "mc_samples": self.mc_samples}
        self.config_path.write_text(json.dumps(self.config))
        self.rounds: list[tuple[int, Path, int]] = []

    def setup_argv(self) -> list[str]:
        return ["-c", SETUP_STUDY, str(cli_src()), str(self.config_path)]

    def _analyze(self, root_seed: int, out: Path, jobs: int) -> int:
        argv = [
            "analyze", "--config", str(self.config_path), "--seed", str(root_seed),
            "--out", str(out), "--jobs", str(jobs),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def run_round(self, k: int) -> int:
        root_seed = 1000 * self.seed + k
        out = self.out / f"round-{k}"
        self.rounds.append((root_seed, out, self._analyze(root_seed, out, self.jobs)))
        return STUDY_BLOCK

    def _records(self, out: Path):
        path = out / "records.csv"
        return experiment.read_records_csv(path) if path.exists() else None

    def failed(self) -> int:
        total = 0
        for _, out, _ in self.rounds:
            records = self._records(out)
            total += STUDY_BLOCK if records is None else sum(r.failed for r in records)
        return total

    def check(self, gate: oracles.StatGate) -> list[str]:
        problems = []
        for k, (root_seed, out, rc) in enumerate(self.rounds):
            if rc != 0:
                problems.append(f"round {k}: fgred analyze exited with {rc}")
            records = self._records(out)
            if records is None:
                continue
            if [r.sim_id for r in records] != list(range(STUDY_BLOCK)):
                problems.append(f"round {k}: records.csv does not hold sims 0..{STUDY_BLOCK - 1}")
            usable = [r for r in records if r.is_usable()]
            for r in usable:
                for kind, value, se, q in (("wb", r.r_wb, r.r_wb_se, r.q_wb), ("wass", r.r_wass, r.r_wass_se, r.q_wass)):
                    gate.add(f"round {k} sim {r.sim_id} {kind}: E min <= min E", value - min(q), se, one_sided=True)
            if len(usable) >= experiment.MIN_VALID_FOR_CORRELATION:
                summary = json.loads((out / "summary.json").read_text())
                wc = [r.wc_ate for r in usable]
                for key, attr in (("spearman_rwass_wcate", "r_wass"), ("spearman_rwb_wcate", "r_wb")):
                    rho = oracles.spearman_rho([getattr(r, attr) for r in usable], wc)
                    if not abs(summary[key]["rho"] - rho) <= 1e-12:
                        problems.append(f"round {k}: {key} {summary[key]['rho']!r} != spearmanr {rho!r}")
        if self.rounds and self._records(self.rounds[0][1]) is not None:
            problems += self._recheck_sims(gate)
        if self.jobs > 1 and self.rounds:
            root_seed, out, _ = self.rounds[0]
            serial = self.out / "serial"
            self._analyze(root_seed, serial, 1)
            if (serial / "records.csv").read_bytes() != (out / "records.csv").read_bytes():
                problems.append(f"records.csv at --jobs {self.jobs} differs from --jobs 1")
        return problems

    def _recheck_sims(self, gate: oracles.StatGate) -> list[str]:
        """Solve a few sims of the first round again and check them in depth."""
        problems = []
        root_seed, out, _ = self.rounds[0]
        records = self._records(out)
        config = experiment.ExperimentConfig.from_dict({**self.config, "root_seed": root_seed})
        rng = np.random.default_rng([self.seed, 1])
        for sim_id in sorted(int(i) for i in rng.choice(STUDY_BLOCK, RECHECKED_SIMS, replace=False)):
            rec = records[sim_id]
            if not rec.is_usable():
                continue
            world = experiment.simulate_batch_world(config, sim_id)
            sol = experiment.solve_world(world)
            lam_b = np.asarray(sol.prior.info)
            deltas = [np.asarray(sol.deltas[s]) for s in sorted(sol.deltas)]
            label = f"sim {sim_id}"
            for s, delta in enumerate(deltas):
                q_wb, q_wass = oracles.qualities(lam_b, delta)
                if not (_close(rec.q_wb[s], q_wb) and _close(rec.q_wass[s], q_wass)):
                    problems.append(
                        f"{label} source {s}: qualities ({rec.q_wb[s]!r}, {rec.q_wass[s]!r}) "
                        f"!= closed form ({q_wb!r}, {q_wass!r})"
                    )
            values = {"wb": (rec.r_wb, rec.r_wb_se), "wass": (rec.r_wass, rec.r_wass_se)}
            _reference_checks(gate, label, lam_b, deltas, values, self.mc_samples, [self.seed, 2, sim_id])

            n_all = len(world.truth_poses)
            truth = np.array([[p.x, p.y] for p in world.truth_poses])
            trajectories = [
                np.array([res.values[("x", i)][:2] for i in range(n_all)])
                for _, res in sorted(sol.source_results.items())
            ]
            wc, ates = oracles.worst_case_ate(truth, trajectories)
            if not _close(rec.wc_ate, wc):
                problems.append(f"{label}: wc_ate {rec.wc_ate!r} != Procrustes oracle {wc!r}")
            if max(ates) > rec.wc_ate * (1.0 + REL_TOL):
                problems.append(f"{label}: wc_ate {rec.wc_ate!r} below a source's ATE {max(ates)!r}")
            if self.stationarity:
                problems += _stationarity_problems(label, world, sol)
        return problems


def _whitened_residual(graph, subset: list[int], values: dict):
    """r(x) over the solve's variables, each factor whitened by its precision."""
    variables = graph.touched_vars(subset)
    splits = np.cumsum([np.asarray(values[v]).shape[0] for v in variables])[:-1]
    whiten = [np.linalg.cholesky(np.asarray(graph.factors[j].gamma)).T for j in subset]

    def residual(x: np.ndarray) -> np.ndarray:
        at = dict(values)
        at.update(zip(variables, np.split(x, splits)))
        return np.concatenate([w @ graph.factors[j].residual(at) for j, w in zip(subset, whiten)])

    return residual, np.concatenate([np.asarray(values[v], dtype=float) for v in variables])


def _stationarity_problems(label: str, world, sol) -> list[str]:
    """Every converged solve of a world must sit at a stationary point."""
    graph = nonlinear.build_nonlinear_graph(world)
    solves = [("base", sorted(graph.base), sol.base_result)] + [
        (f"source {s}", sorted(graph.base | graph.sources[s]), res)
        for s, res in sorted(sol.source_results.items())
    ]
    problems = []
    for name, subset, result in solves:
        if not result.converged:
            continue
        step = oracles.stationarity(*_whitened_residual(graph, subset, result.values))
        if not step <= STATIONARITY_TOL:
            problems.append(f"{label} {name} solve: not stationary, |P_J r| = {step:.2e}")
    return problems


class Lattice:
    """Every antichain of three sources, both kinds, on seeded random graphs.

    Predictor p of an antichain stands for source p's factors, and a source
    {p, q} for the union of both. Every round evaluates the same graphs with
    the same sampling seeds, so all rounds must agree exactly.
    """

    GRAPHS = 4
    jobs = 1
    N_SAMPLES = 10_000
    PAIRS = ((1, 2), (1, 3), (2, 3))

    def prepare(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.graphs = [graphs.lattice_graph(seed, i) for i in range(self.GRAPHS)]
        self.antichains = lattice.enumerate_antichains(graphs.N_SOURCES)
        self.subsets = sorted({s for ac in self.antichains for s in ac.sources}, key=lambda s: (len(s), sorted(s)))
        self.rounds: list[list[dict]] = []
        self.errors: list[str] = []

    def setup_argv(self) -> list[str]:
        return ["-c", SETUP_LATTICE, str(cli_src()), str(Path(__file__).parent), str(self.seed), str(self.GRAPHS)]

    @staticmethod
    def _factors(sources, subset) -> frozenset:
        return frozenset(j for p in subset for j in sources[p - 1])

    def run_round(self, k: int) -> int:
        results = []
        for g, (graph, sources) in enumerate(self.graphs):
            est = {}
            for a, ac in enumerate(self.antichains):
                alpha = lattice.Antichain(tuple(self._factors(sources, s) for s in ac.sources))
                for i, kind in enumerate(KINDS):
                    try:
                        est[ac, kind] = metrics.redundancy_mc(
                            graph, alpha, kind, n_samples=self.N_SAMPLES, rng_seed=[self.seed, g, a, i]
                        )
                    except Exception as exc:  # a failed item is counted, the round goes on
                        self.errors.append(f"round {k} graph {g} {ac} {kind}: {type(exc).__name__}: {exc}")
            quality = {
                (s, kind): metrics.quality(graph, self._factors(sources, s), kind)
                for s in self.subsets for kind in KINDS
            }
            atoms = {}
            for a, b in self.PAIRS:
                for kind in KINDS:
                    keys = {
                        ((1,), (2,)): lattice.validate_antichain([[a], [b]]),
                        ((1,),): lattice.validate_antichain([[a]]),
                        ((2,),): lattice.validate_antichain([[b]]),
                        ((1, 2),): lattice.validate_antichain([[a, b]]),
                    }
                    if all((ac, kind) in est for ac in keys.values()):
                        atoms[(a, b), kind] = lattice.bivariate_atoms(
                            {key: est[ac, kind].value for key, ac in keys.items()}
                        )
            results.append({"est": est, "quality": quality, "atoms": atoms})
        self.rounds.append(results)
        return self.GRAPHS * len(self.antichains) * len(KINDS)

    def failed(self) -> int:
        return len(self.errors)

    def check(self, gate: oracles.StatGate) -> list[str]:
        problems = list(self.errors)
        first = self.rounds[0]
        for k, results in enumerate(self.rounds[1:], start=1):
            for g, (a, b) in enumerate(zip(first, results)):
                if any(
                    (a["est"][key].value, a["est"][key].std_error) != (b["est"][key].value, b["est"][key].std_error)
                    for key in a["est"]
                ):
                    problems.append(f"round {k} graph {g}: estimates differ from round 0 for the same seeds")
        for g, ((graph, sources), res) in enumerate(zip(self.graphs, first)):
            info = [f.A.T @ f.gamma @ f.A for f in graph.factors]
            lam_b = sum(info[j] for j in graph.base)
            delta = {s: sum(info[j] for j in self._factors(sources, s)) for s in self.subsets}
            closed = {s: dict(zip(KINDS, oracles.qualities(lam_b, delta[s]))) for s in self.subsets}
            for (s, kind), q in res["quality"].items():
                if not _close(q, closed[s][kind]):
                    problems.append(f"graph {g} source {sorted(s)} {kind}: quality {q!r} != closed form {closed[s][kind]!r}")
            for (ac, kind), est in res["est"].items():
                bound = min(closed[s][kind] for s in ac.sources)
                label = f"graph {g} {ac} {kind}"
                if len(ac.sources) == 1:
                    gate.add(f"{label}: single source vs its quality", est.value - bound, est.std_error, one_sided=False)
                else:
                    gate.add(f"{label}: E min <= min E", est.value - bound, est.std_error, one_sided=True)
            for ((a, b), kind), atoms in res["atoms"].items():
                joint = res["est"][lattice.validate_antichain([[a, b]]), kind].value
                if abs(sum(atoms) - joint) > 1e-12 * max(1.0, abs(joint)):
                    problems.append(f"graph {g} pair {a},{b} {kind}: atoms sum {sum(atoms)!r} != joint {joint!r}")
        # The widest antichain and one more, chosen by the seed, against the
        # independent estimator on the first graph.
        graph, sources = self.graphs[0]
        info = [f.A.T @ f.gamma @ f.A for f in graph.factors]
        lam_b = sum(info[j] for j in graph.base)
        rng = np.random.default_rng([self.seed, 3])
        widest = max(self.antichains, key=len)
        for ac in {widest, self.antichains[int(rng.integers(len(self.antichains)))]}:
            if not all((ac, kind) in first[0]["est"] for kind in KINDS):
                continue
            deltas = [sum(info[j] for j in self._factors(sources, s)) for s in ac.sources]
            values = {kind: (first[0]["est"][ac, kind].value, first[0]["est"][ac, kind].std_error) for kind in KINDS}
            _reference_checks(gate, f"graph 0 {ac}", lam_b, deltas, values, self.N_SAMPLES, [self.seed, 4, self.antichains.index(ac)])
        return problems


def cli_src() -> Path:
    return Path(cli.__file__).resolve().parent.parent


WORKLOADS = {
    "study-default": lambda: Study(sim={}, mc_samples=10_000),
    "long-trajectory": lambda: Study(sim={"n_poses": 30}, mc_samples=200, stationarity=True),
    "lattice-3src": Lattice,
    "study-parallel": lambda: Study(sim={}, mc_samples=10_000, parallel=True),
}
