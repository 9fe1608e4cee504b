"""Which functions of src/fgred the benchmark's traffic never runs.

Runs two rounds of each workload that BENCHMARK.json gates, each with its
checks, then `fgred report` on the first study round's records, all under
a sys.settrace call trace of src/fgred, and writes every output to a
temporary directory. Then prints each function and method defined in
src/fgred that never ran, with its file, line and length, and marks with
[TARGETS] the names that perfbench/tracing.py wraps. A function that runs
only while fgred is imported counts as run. perfbench/ is imported, not
changed. Run it from the repository root:

    python3 scripts/traffic.py
"""
import ast
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fgred"
PERFBENCH = ROOT / "perfbench"
ROUNDS = 2
SEED = 1


def defined_functions() -> dict:
    """(file, first line) -> (qualified name, lines) of each def in src/fgred.

    The first line is the code object's: the first decorator's, if any.
    """
    found = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = (prefix + child.name, child.end_lineno - first + 1)
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), "")
    return found


def run_traffic(tmp: Path) -> list[str]:
    """Run the gated workloads with their checks and `fgred report`; return the problems."""
    import fgred.cli as cli
    import oracles
    import workloads

    problems = []
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        name = workload["name"]
        bench = workloads.WORKLOADS[name]()
        out = tmp / name
        out.mkdir()
        bench.prepare(SEED, out)
        for k in range(ROUNDS):
            bench.run_round(k)
        gate = oracles.StatGate()
        problems += [f"{name}: {p}" for p in bench.check(gate) + gate.failures()]
    for records in sorted(tmp.glob("*/round-0/records.csv"))[:1]:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["report", "--out", str(records.parent)]) != 0:
                problems.append(f"fgred report on {records.parent.name} failed")
    return problems


def main() -> int:
    start = time.perf_counter()
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path[:0] = [str(SRC), str(PERFBENCH)]
    prefix = str(PACKAGE) + "/"
    ran = set()

    def record(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            ran.add((code.co_filename, code.co_firstlineno))

    sys.settrace(record)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            problems = run_traffic(Path(tmp))
    finally:
        sys.settrace(None)
    import tracing

    targets = {(str(PACKAGE / f"{mod.split('.')[-1]}.py"), attr) for mod, attr, _ in tracing.TARGETS}
    defined = defined_functions()
    unrun = sorted(key for key in defined if key not in ran)
    lines = sum(defined[key][1] for key in unrun)
    print(f"never ran: {len(unrun)} of {len(defined)} functions, {lines} lines")
    for path, first in unrun:
        name, length = defined[path, first]
        mark = "  [TARGETS]" if (path, name) in targets else ""
        print(f"  {Path(path).name}:{first}  {name}  ({length} lines){mark}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"traced in {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
