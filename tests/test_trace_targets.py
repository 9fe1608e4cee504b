"""The benchmark's traced run (perfbench/tracing.py) wraps fgred's public
names from outside; a rename or signature change there breaks `--trace 1`."""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_targets():
    # tracing.py imports only the standard library at module level.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_trace_targets_resolve():
    targets = trace_targets()
    assert targets
    for modname, attr, _ in targets:
        owner = importlib.import_module(modname)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        # The tracer looks names up in the owner's own namespace.
        assert callable(vars(owner).get(name)), f"{modname}.{attr} is missing"


def test_traced_parameters_in_place():
    from fgred.metrics import redundancy_mc_info
    from fgred.nonlinear import solve_gauss_newton

    # The tracer reads kind as the third positional argument and max_iters
    # from the bound arguments of a Gauss-Newton solve.
    assert list(inspect.signature(redundancy_mc_info).parameters)[2] == "kind"
    assert "max_iters" in inspect.signature(solve_gauss_newton).parameters
