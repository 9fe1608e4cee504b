"""Check the study's outputs against the behaviour reference.

Runs `fgred analyze` on the default batch and on the 30-pose batch (40
sims, root seed 5), each at --jobs 1 and --jobs 2 in a fresh process, and
compares the sha256 of each output file below with its reference. Prints
one line per file and run, and exits 1 if any differs. The reference
outputs themselves are kept in scripts/reference/, one file per hash. A
file that differs is explained against its reference: for records.csv,
each changed column's largest absolute and relative difference, the rows
it changed and the converged and failed flags that flipped; for
summary.json, every rho and p before and after, and any other value that
moved. The hashes alone decide pass or fail. Run it from the repository
root:

    python3 scripts/check_reference.py
"""
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
LONG_CONFIG = {"sim": {"n_poses": 30}, "n_sims": 40, "root_seed": 5}
# (batch name, config or None for the default, {output file: sha256}); the
# reference output is REFERENCE_DIR / f"{batch name}-{output file}"
REFERENCE = (
    ("default", None, {
        "records.csv": "67c54c8a0f28f72f30b61602059da602e18cd4794e3267f5a260026b1d76f4b7",
        "summary.json": "a3b3d82c706e52db9ec219309bd189ea038d271fa384c48b47df52373cdbb08f",
    }),
    ("30-pose", LONG_CONFIG, {
        "records.csv": "2492b4b462455e4223b6af23b1217f5ba4618b5cb16166383a35b512ae59f93d",
    }),
)
JOBS = (1, 2)
# sims listed in full up to this many, then cut short
MAX_LISTED = 10


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sims(ids) -> str:
    ids = list(ids)
    shown = ", ".join(map(str, ids[:MAX_LISTED]))
    return shown if len(ids) <= MAX_LISTED else f"{shown}, ... ({len(ids)} in all)"


def _failed(path: Path) -> dict:
    """Each sim's failed flag, as `fgred.experiment.read_records_csv` sets it."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from fgred.experiment import read_records_csv

    return {str(r.sim_id): r.failed for r in read_records_csv(path)}


def diff_records(want_path: Path, got_path: Path) -> list[str]:
    """Lines explaining how records.csv at got_path differs from the reference at want_path."""
    tables = []
    for path in (want_path, got_path):
        with path.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        tables.append((header, {row[0]: row for row in rows}))
    (header, want), (got_header, got) = tables
    if header != got_header:
        return [f"header: {header} -> {got_header}"]
    lines = [f"sims only in the {side}: {_sims(ids)}"
             for side, ids in (("reference", want.keys() - got.keys()), ("new run", got.keys() - want.keys())) if ids]
    sims = [i for i in want if i in got]
    for j, column in enumerate(header[1:], start=1):
        changed = [i for i in sims if want[i][j] != got[i][j]]
        if not changed:
            continue
        if column.startswith("converged"):
            lines.append(f"{column} flipped: sims {_sims(f'{i} ({want[i][j]} -> {got[i][j]})' for i in changed)}")
            continue
        sizes = []
        for i in changed:
            a, b = float(want[i][j]), float(got[i][j])
            diff = math.inf if math.isnan(a) or math.isnan(b) else abs(a - b)
            sizes.append((diff, diff / abs(a) if a else math.inf, i))
        (diff, _, at), (_, rel, rel_at) = max(sizes), max(sizes, key=lambda d: d[1])
        lines.append(f"{column}: {len(changed)} rows changed, largest |diff| {diff:.3g} (sim {at}), "
                     f"largest relative {rel:.3g} (sim {rel_at}); sims {_sims(changed)}")
    before, after = _failed(want_path), _failed(got_path)
    flipped = [f"{i} ({before[i]} -> {after[i]})" for i in sims if before[i] != after[i]]
    if flipped:
        lines.append(f"failed flipped: sims {_sims(flipped)}")
    return lines


def _leaves(obj, path: str = ""):
    """(path, value) of every leaf of a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, obj


def diff_summary(want_path: Path, got_path: Path) -> list[str]:
    """Lines giving every rho and p of summary.json before and after, then any other value that moved."""
    before, after = (dict(_leaves(json.loads(p.read_text()))) for p in (want_path, got_path))
    lines = []
    for path in sorted(before.keys() | after.keys()):
        if path.endswith(".rho"):
            stem = path[: -len(".rho")]
            p_path = stem + ".p_value"
            lines.append(f"{stem}: rho {before.get(path)} -> {after.get(path)}, "
                         f"p {before.get(p_path)} -> {after.get(p_path)}")
        elif not path.endswith(".p_value") and before.get(path) != after.get(path):
            lines.append(f"{path}: {before.get(path)} -> {after.get(path)}")
    return lines


def main() -> int:
    start = time.perf_counter()
    stale = [(name, file) for name, _, expected in REFERENCE for file, want in expected.items()
             if _sha256(REFERENCE_DIR / f"{name}-{file}") != want]
    for name, file in stale:
        print(f"{REFERENCE_DIR / f'{name}-{file}'} does not have the {name} {file} hash")
    if stale:
        return 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, expected in REFERENCE:
            analyze = [sys.executable, "-m", "fgred.cli", "analyze"]
            if config is not None:
                config_path = Path(tmp, f"{name}.json")
                config_path.write_text(json.dumps(config))
                analyze += ["--config", str(config_path)]
            for jobs in JOBS:
                out = Path(tmp, f"{name}-jobs{jobs}")
                command = analyze + ["--jobs", str(jobs), "--out", str(out)]
                subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
                for file, want in expected.items():
                    got = _sha256(out / file)
                    ok = got == want
                    mismatches += not ok
                    print(f"{'ok  ' if ok else 'DIFF'} {name} --jobs {jobs} {file} {got}")
                    if not ok:
                        explain = diff_records if file.endswith(".csv") else diff_summary
                        for line in explain(REFERENCE_DIR / f"{name}-{file}", out / file):
                            print(f"     {line}")
    print(f"{mismatches} mismatches in {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
