import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fgred

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

# README's "Public API" list: a new public name is a deliberate edit here
PUBLIC_NAMES = {
    "GaussianBelief", "NotPositiveDefiniteError", "check_symmetric", "cholesky_pd",
    "schur_complement",
    "LinearFactor", "SupplementedGraph",
    "Antichain", "antichain_leq", "bivariate_atoms", "enumerate_antichains", "validate_antichain",
    "QualityKind", "RedundancyEstimate", "SpecificQuality", "quality", "quality_info",
    "redundancy_mc", "redundancy_mc_info", "redundancy_pair_info", "wb_coefficients_info",
    "wass_coefficients_info",
    "Pose2", "wrap_angle", "SimConfig", "SimWorld", "simulate_world", "wc_ate",
}


def test_public_names_are_pinned():
    assert sorted(fgred.__all__) == sorted(PUBLIC_NAMES)
    # README lists them one module group per bullet: "- `module`: `Name`, ..."
    bullets = README.read_text().split("## Public API\n")[1].split("\n\n")[1]
    listed = {name for item in bullets.split("\n- ") for name in item.split(":", 1)[1].split("`")[1::2]}
    assert listed == PUBLIC_NAMES


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


def fresh_python(code: str) -> str:
    """What a new interpreter, with fgred on its path, prints running code."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_cli_import_leaves_out_unused_packages():
    # the scipy.linalg package clones numpy's namespace, with numpy.f2py,
    # numpy.ma and numpy.testing; xml.sax pulls in urllib, http and email;
    # multiprocessing serves only a pool of more than one worker
    unused = [
        "scipy.linalg", "numpy.f2py", "numpy.ma", "xml.sax", "urllib.request", "multiprocessing",
    ]
    code = f"import sys, fgred.cli; print([m for m in {unused!r} if m in sys.modules])"
    assert fresh_python(code) == "[]"
    assert fresh_python("import sys, fgred; print('scipy.linalg' in sys.modules)") == "False"


LAPACK_IDENTITY = """
import sys
{setup}
import numpy as np
import fgred.gauss as gauss
package = "scipy.linalg" in sys.modules
import scipy.linalg
want = scipy.linalg.get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=np.float64)
print(package, all(a is b for a, b in zip((gauss._potrf, gauss._potrs, gauss._trtrs), want)))
"""

# The first lookup of scipy.linalg._flapack finds nothing, as on an install
# without the file where gauss looks for it.
LOOKUP_FAILS = """
import importlib.machinery
find, missed = importlib.machinery.PathFinder.find_spec, []
def find_spec(name, path=None, target=None):
    if name == "scipy.linalg._flapack" and not missed:
        missed.append(name)
        return None
    return find(name, path, target)
importlib.machinery.PathFinder.find_spec = find_spec
"""


@pytest.mark.parametrize(
    "setup, want",
    [
        ("", "False True"),  # loaded from its file, no package
        ("import scipy.linalg", "True True"),  # already imported
        (LOOKUP_FAILS, "True True"),  # imported through its package
    ],
    ids=["fgred-first", "scipy-linalg-first", "lookup-fails"],
)
def test_lapack_routines_are_get_lapack_funcs(setup, want):
    # every route binds the objects scipy.linalg.get_lapack_funcs returns,
    # so each result keeps the wrappers' bits
    assert fresh_python(LAPACK_IDENTITY.format(setup=setup)) == want


def test_blas_thread_limit_finds_scipy_openblas():
    # the scipy.linalg package, and with it _fblas, is not imported, but
    # _flapack maps scipy's OpenBLAS, so the limit covers as many copies
    code = (
        "import sys, fgred, fgred.gauss as gauss; "
        "alone = len(gauss._openblas_setters()); "
        "assert 'scipy.linalg' not in sys.modules; "
        "gauss._openblas_setters.cache_clear(); "
        "import scipy.linalg; "
        "print(alone, len(gauss._openblas_setters()))"
    )
    alone, with_package = fresh_python(code).split()
    assert alone == with_package


def test_only_gauss_imports_scipy_linalg():
    # gauss is the one entry into the dense linear algebra: it binds scipy's
    # LAPACK routines from scipy.linalg._flapack without importing the
    # scipy.linalg package, and every other module reaches them through its
    # checked helpers
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
