"""Benchmark of fgred, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run builds the workload's inputs from
the seed, runs whole rounds of it for S seconds, checks every output, and
prints one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run wraps fgred's public
functions, writes the spans under .perfbench-trace/ and prints the per-layer
metrics. Outputs of fgred go to .perfbench-out/.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
TRACES = ROOT / ".perfbench-trace"
WORKLOAD_NAMES = ("study-default", "long-trajectory", "lattice-3src", "study-parallel")

# Fresh interpreters timed per run for setup_s and cli.import_s. They start
# after the run's own imports, which write the bytecode they load, because
# users pay the import on every CLI call but compile once per checkout.
SETUP_STARTS = 3
IMPORT_STARTS = 3

IMPORT_CLI = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import fgred.cli
print(time.perf_counter() - t)
"""


def fresh_start_seconds(argv: list[str], starts: int) -> float:
    """Median over fresh interpreters of the seconds each prints last.

    The spawn time is passed as the last argument, for children that report
    how long after it they were ready.
    """
    times = []
    for _ in range(starts):
        proc = subprocess.run(
            [sys.executable, *argv, repr(time.monotonic())],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"fresh interpreter failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_oracle_tests() -> None:
    """Refuse to measure with an oracle that fails its hand-made cases."""
    import test_oracles

    for name, test in vars(test_oracles).items():
        if name.startswith("test_") and callable(test):
            test()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "fgred" / "__init__.py").is_file():
        print(f"error: no fgred sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_oracle_tests()
    import oracles
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(TRACES / args.workload)
        shutil.rmtree(tracer.trace_dir, ignore_errors=True)
        tracer.trace_dir.mkdir(parents=True)
        tracer.install()
    workload.prepare(args.seed, out)

    # Per round: items, wall seconds, CPU seconds of the process, CPU seconds
    # of its reaped children. Rates are medians over rounds, which keeps a
    # short stall of the machine from moving a run's figure.
    rounds = []
    start = now = time.perf_counter_ns()
    cpu_self = cpu_seconds(resource.RUSAGE_SELF)
    cpu_children = cpu_seconds(resource.RUSAGE_CHILDREN)
    while now - start < args.seconds * 1e9:
        items = workload.run_round(len(rounds))
        end = time.perf_counter_ns()
        self1 = cpu_seconds(resource.RUSAGE_SELF)
        children1 = cpu_seconds(resource.RUSAGE_CHILDREN)
        rounds.append((items, (end - now) / 1e9, self1 - cpu_self, children1 - cpu_children))
        now, cpu_self, cpu_children = end, self1, children1
    first_round_end = start + int(rounds[0][1] * 1e9)
    # Read before the checks and the setup interpreters, which would
    # otherwise count as the largest child.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.jobs > 1:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        tracer.write()

    attempted = sum(r[0] for r in rounds)
    failed = workload.failed()
    completed = attempted - failed
    done = max(completed, 1) / attempted
    items_per_s = statistics.median(items / secs for items, secs, _, _ in rounds) * done
    gate = oracles.StatGate()
    problems = workload.check(gate)
    problems += gate.failures()
    if completed == 0:
        problems.append("no item completed")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is None:
        cpu_per_item = statistics.median((cs + cc) / items for items, _, cs, cc in rounds) / done
        metrics = {
            "items_per_s": (items_per_s, "1/s"),
            "setup_s": (fresh_start_seconds(workload.setup_argv(), SETUP_STARTS), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "cpu_s_per_item": (cpu_per_item, "s"),
        }
    else:
        metrics = tracing.layer_metrics(
            tracing.read_spans(tracer.trace_dir), start, first_round_end, rounds[0][0]
        )
        worker_cpu = sum(cc for _, _, _, cc in rounds)
        metrics["experiment.worker_cpu_s_per_item"] = (worker_cpu / max(completed, 1), "s")
        metrics["cli.import_s"] = (fresh_start_seconds(["-c", IMPORT_CLI, str(SRC)], IMPORT_STARTS), "s")
        metrics["trace.items_per_s"] = (items_per_s, "1/s")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
