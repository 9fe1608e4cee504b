"""Timing wrappers installed around fgred's public functions from outside.

Tracer.install() replaces each name in TARGETS with a wrapper that records a
span (id, parent span, name, start, end, attributes) in memory. A function
that other fgred modules import by name is replaced in every module that
holds it, so no call bypasses the wrapper. Nothing inside fgred changes, and
uninstall() puts every original back.

Spans are written out when the run ends. Worker processes forked from a
traced process inherit the wrappers; each worker appends its spans to its own
file after every top-level call, because pool workers exit without running
exit handlers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from pathlib import Path

# (module, public name, span name). "Class.method" wraps a method.
TARGETS = [
    ("fgred.cli", "main", "cli.main"),
    ("fgred.experiment", "run_experiment", "experiment.run_experiment"),
    ("fgred.experiment", "run_single", "experiment.run_single"),
    ("fgred.experiment", "solve_world", "experiment.solve_world"),
    ("fgred.experiment", "correlation_report", "experiment.correlation_report"),
    ("fgred.experiment", "emit_outputs", "experiment.emit_outputs"),
    ("fgred.sim2d", "simulate_world", "sim2d.simulate_world"),
    ("fgred.nonlinear", "build_nonlinear_graph", "nonlinear.build_nonlinear_graph"),
    ("fgred.nonlinear", "solve_gauss_newton", "nonlinear.solve_gauss_newton"),
    ("fgred.nonlinear", "pose_information_system", "nonlinear.pose_information_system"),
    ("fgred.metrics", "redundancy_mc", "metrics.redundancy_mc"),
    ("fgred.metrics", "redundancy_mc_info", "metrics.redundancy"),
    ("fgred.metrics", "wb_coefficients_info", "metrics.coefficients"),
    ("fgred.metrics", "wass_coefficients_info", "metrics.coefficients"),
    ("fgred.metrics", "quality", "metrics.quality"),
    ("fgred.metrics", "quality_info", "metrics.quality_info"),
    ("fgred.gauss", "GaussianBelief.sample", "gauss.sample"),
    ("fgred.gauss", "cholesky_pd", "gauss.cholesky_pd"),
    ("fgred.gauss", "check_symmetric", "gauss.check_symmetric"),
    ("fgred.alignment", "wc_ate", "alignment.wc_ate"),
    ("fgred.factor_graph", "SupplementedGraph.__init__", "factor_graph.build"),
    ("fgred.factor_graph", "SupplementedGraph.stack_subgraph", "factor_graph.stack_subgraph"),
    ("fgred.lattice", "enumerate_antichains", "lattice.enumerate_antichains"),
    ("fgred.lattice", "bivariate_atoms", "lattice.bivariate_atoms"),
]


class MissingName(RuntimeError):
    """A traced public name is not in fgred any more."""


def _kind_suffix(args, kwargs) -> str:
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    return "_" + str(getattr(kind, "value", kind)).lower()


def _gn_attrs(signature):
    def attrs(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        capped = not result.converged and result.n_iters >= bound.arguments["max_iters"]
        return {"iters": int(result.n_iters), "capped": bool(capped)}

    return attrs


def _output_bytes(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result.values())}


class Tracer:
    """Spans of the calls into fgred made while installed."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []
        self._worker_file: Path | None = None
        self._fork_hook = False

    def install(self) -> None:
        import fgred.cli  # noqa: F401  (loads every fgred module)

        modules = [m for n, m in sys.modules.items() if n == "fgred" or n.startswith("fgred.")]
        for modname, attr, span_name in TARGETS:
            mod = importlib.import_module(modname)
            cls_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            orig = vars(owner).get(meth) if owner is not None else None
            if orig is None:
                raise MissingName(f"fgred has no public name {modname}.{attr}")
            wrapper = self._wrap(orig, span_name)
            holders = [owner] if cls_name else [
                m for m in modules if any(v is orig for v in vars(m).values())
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._restore.append((holder, key, orig))
                        setattr(holder, key, wrapper)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    def _wrap(self, orig, span_name: str):
        suffix = _kind_suffix if orig.__name__ == "redundancy_mc_info" else None
        if orig.__name__ == "solve_gauss_newton":
            attrs_fn = _gn_attrs(inspect.signature(orig))
        elif orig.__name__ == "emit_outputs":
            attrs_fn = _output_bytes
        else:
            attrs_fn = None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name = span_name + suffix(args, kwargs) if suffix else span_name
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else None
            self.spans.append((sid, parent, name, t0, t1, attrs))
            if self._worker_file is not None and not self._stack:
                self._write(self._worker_file, append=True)
                self.spans = []
            return result

        return wrapper

    def _after_fork(self) -> None:
        if self._restore:
            self.spans = []
            self._stack = []
            self._worker_file = self.trace_dir / f"spans-{os.getpid()}.jsonl"

    def _write(self, path: Path, append: bool) -> None:
        pid = os.getpid()
        with open(path, "a" if append else "w") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({
                    "pid": pid, "id": sid, "parent": parent, "name": name,
                    "start_ns": t0, "end_ns": t1, "attrs": attrs,
                }) + "\n")

    def write(self) -> Path:
        """Write this process's spans; return the trace directory."""
        self._write(self.trace_dir / "spans.jsonl", append=False)
        return self.trace_dir


def read_spans(trace_dir: Path) -> list[dict]:
    """Every span of a traced run: the main process's and its workers'."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict], round_start_ns: int, round_end_ns: int, round_items: int) -> dict:
    """Per-layer figures from a traced run's spans, as {name: (value, unit)}.

    Times are medians per call over the whole run. Counts are taken over the
    first timed round, so they repeat exactly for a seed. A layer that the
    workload never calls reads 0.
    """
    by_name: dict[str, list[dict]] = {}
    children: dict[tuple, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault((s["pid"], s["parent"]), []).append(s)

    def dur(s) -> float:
        return (s["end_ns"] - s["start_ns"]) / 1e6

    def ms(name: str) -> float:
        return _median([dur(s) for s in by_name.get(name, [])])

    def first_round(name: str) -> list[dict]:
        return [
            s for s in by_name.get(name, [])
            if s["start_ns"] >= round_start_ns and s["end_ns"] <= round_end_ns
        ]

    def per_item(name: str) -> float:
        return len(first_round(name)) / round_items

    redundancy = by_name.get("metrics.redundancy_wb", []) + by_name.get("metrics.redundancy_wass", [])
    self_ms = [
        dur(s) - sum(
            dur(c) for c in children.get((s["pid"], s["id"]), [])
            if c["name"] in ("metrics.coefficients", "gauss.sample")
        )
        for s in redundancy
    ]
    solves = first_round("nonlinear.solve_gauss_newton")
    return {
        "metrics.redundancy_wb_ms": (ms("metrics.redundancy_wb"), "ms"),
        "metrics.redundancy_wass_ms": (ms("metrics.redundancy_wass"), "ms"),
        "metrics.coefficients_ms": (ms("metrics.coefficients"), "ms"),
        "metrics.redundancy_self_ms": (_median(self_ms), "ms"),
        "metrics.quality_ms": (ms("metrics.quality_info"), "ms"),
        "gauss.sample_ms": (ms("gauss.sample"), "ms"),
        "gauss.cholesky_pd_calls_per_item": (per_item("gauss.cholesky_pd"), "count"),
        "gauss.check_symmetric_calls_per_item": (per_item("gauss.check_symmetric"), "count"),
        "alignment.wc_ate_ms": (ms("alignment.wc_ate"), "ms"),
        "sim2d.simulate_world_ms": (ms("sim2d.simulate_world"), "ms"),
        "nonlinear.solve_gauss_newton_ms": (ms("nonlinear.solve_gauss_newton"), "ms"),
        "nonlinear.gn_iters_total": (sum(s["attrs"]["iters"] for s in solves), "count"),
        "nonlinear.gn_capped": (sum(s["attrs"]["capped"] for s in solves), "count"),
        "nonlinear.pose_information_system_ms": (ms("nonlinear.pose_information_system"), "ms"),
        "nonlinear.build_nonlinear_graph_ms": (ms("nonlinear.build_nonlinear_graph"), "ms"),
        "experiment.solve_world_ms": (ms("experiment.solve_world"), "ms"),
        "factor_graph.build_ms": (ms("factor_graph.build"), "ms"),
        "factor_graph.stack_subgraph_ms": (ms("factor_graph.stack_subgraph"), "ms"),
        "factor_graph.stack_subgraph_calls_per_item": (per_item("factor_graph.stack_subgraph"), "count"),
        "lattice.enumerate_antichains_ms": (ms("lattice.enumerate_antichains"), "ms"),
        "experiment.run_single_ms": (ms("experiment.run_single"), "ms"),
        "experiment.correlation_report_ms": (ms("experiment.correlation_report"), "ms"),
        "experiment.emit_outputs_ms": (ms("experiment.emit_outputs"), "ms"),
        "experiment.output_bytes": (
            _median([s["attrs"]["bytes"] for s in by_name.get("experiment.emit_outputs", [])]), "count"
        ),
        "experiment.pool_wall_s": (ms("experiment.run_experiment") / 1e3, "s"),
    }
