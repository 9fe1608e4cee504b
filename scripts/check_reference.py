"""Check the study's outputs against the behaviour reference.

Runs `fgred analyze` on the default batch and on the 30-pose batch (40
sims, root seed 5), each at --jobs 1 and --jobs 2 in a fresh process, and
compares the sha256 of each output file below with its reference. Prints
one line per file and run, and exits 1 if any differs. Run it from the
repository root:

    python3 scripts/check_reference.py
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LONG_CONFIG = {"sim": {"n_poses": 30}, "n_sims": 40, "root_seed": 5}
# (batch name, config or None for the default, {output file: sha256})
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


def main() -> int:
    start = time.perf_counter()
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
                    got = hashlib.sha256((out / file).read_bytes()).hexdigest()
                    ok = got == want
                    mismatches += not ok
                    print(f"{'ok  ' if ok else 'DIFF'} {name} --jobs {jobs} {file} {got}")
    print(f"{mismatches} mismatches in {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
