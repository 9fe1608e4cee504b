"""scripts/check_reference.py explains a hash mismatch against its committed reference."""
import hashlib
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_reference.py"


def load_script():
    spec = importlib.util.spec_from_file_location("check_reference", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_files_have_their_hashes():
    script = load_script()
    for name, _, expected in script.REFERENCE:
        for file, want in expected.items():
            path = script.REFERENCE_DIR / f"{name}-{file}"
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want, path


def test_records_diff_names_column_rows_and_flips(tmp_path):
    # sim 17's r_wass moves in its last digit, sim 3's converged_1 flips to
    # 0, and sim 8's wc_ate becomes nan, which fails its record
    script = load_script()
    want = script.REFERENCE_DIR / "default-records.csv"
    lines = want.read_text().split("\n")
    header = lines[0].split(",")
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:] if line}
    assert rows["17"][3] == "0.6235399627737181"
    rows["17"][3] = "0.6235399627737183"
    rows["3"][header.index("converged_1")] = "0"
    rows["8"][header.index("wc_ate")] = "nan"
    got = tmp_path / "records.csv"
    got.write_text("\n".join([lines[0], *(",".join(row) for row in rows.values()), ""]))
    assert script.diff_records(want, got) == [
        "r_wass: 1 rows changed, largest |diff| 1.11e-16 (sim 17), largest relative 1.78e-16 (sim 17); sims 17",
        "wc_ate: 1 rows changed, largest |diff| inf (sim 8), largest relative inf (sim 8); sims 8",
        "converged_1 flipped: sims 3 (1 -> 0)",
        "failed flipped: sims 8 (False -> True)",
    ]
    assert script.diff_records(want, want) == []


def test_summary_diff_gives_every_rho_and_p(tmp_path):
    script = load_script()
    want = script.REFERENCE_DIR / "default-summary.json"
    summary = json.loads(want.read_text())
    summary["spearman_rwass_wcate"]["rho"] = -0.25
    summary["n_valid"] = 499
    got = tmp_path / "summary.json"
    got.write_text(json.dumps(summary))
    lines = script.diff_summary(want, got)
    assert lines[0] == "n_valid: 500 -> 499"
    p = "9.999000099990002e-05"
    assert f"spearman_rwass_wcate: rho -0.19739512558050232 -> -0.25, p {p} -> {p}" in lines
    # all four rho and p pairs are listed, changed or not
    assert sum(": rho " in line for line in lines) == 4 and len(lines) == 5
