import ast
import os
import subprocess
import sys
from pathlib import Path

import fgred

SRC = Path(__file__).resolve().parents[1] / "src"


def test_public_names_resolve():
    for name in fgred.__all__:
        assert hasattr(fgred, name), f"fgred.__all__ names missing {name}"
    namespace = {}
    exec("from fgred import *", namespace)
    assert set(fgred.__all__) <= set(namespace)


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats and scipy.integrate are slow to import and the CLI has no
    # use for either.
    code = (
        "import sys, fgred.cli; "
        "print('scipy.stats' in sys.modules or 'scipy.integrate' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_only_gauss_imports_scipy_linalg():
    # gauss is the one entry into the dense linear algebra: every other
    # module reaches scipy.linalg through its checked helpers
    for path in sorted((SRC / "fgred").glob("*.py")):
        if path.name == "gauss.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            bad = [n for n in names if n == "scipy.linalg" or n.startswith("scipy.linalg.")]
            assert not bad, f"{path.name} line {node.lineno} uses {bad}"
