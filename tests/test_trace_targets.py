"""The benchmark's traced run (perfbench/tracing.py) wraps fgred's public
names from outside; a rename or signature change there breaks `--trace 1`.
Its untraced checks read solver results directly, and its study workloads
write configs that fgred must load, so those are guarded here too."""
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_solution_fields_read_by_checks():
    # The untraced run re-solves sampled worlds and reads these attributes
    # directly (perfbench/workloads.py: _recheck_sims, _whitened_residual,
    # _stationarity_problems), so none may be renamed or dropped.
    import numpy as np

    from fgred.experiment import solve_world
    from fgred.nonlinear import build_nonlinear_graph
    from fgred.sim2d import SimConfig, simulate_world

    world = simulate_world(SimConfig(n_poses=4), 0)
    sol = solve_world(world)
    assert np.asarray(sol.prior.info).shape == (15, 15)
    assert all(np.asarray(sol.deltas[s]).shape == (15, 15) for s in sorted(sol.deltas))
    graph = build_nonlinear_graph(world)
    solves = [(sorted(graph.base), sol.base_result)] + [
        (sorted(graph.base | graph.sources[s]), res)
        for s, res in sorted(sol.source_results.items())
    ]
    for subset, result in solves:
        assert isinstance(result.converged, bool)
        variables = graph.touched_vars(subset)
        assert all(v in result.values for v in variables)
        for j in subset:
            factor = graph.factors[j]
            r = factor.residual(result.values)
            assert np.asarray(factor.gamma).shape == (r.shape[0], r.shape[0])


def load_workloads(monkeypatch):
    # workloads.py imports its sibling modules graphs and oracles by name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_study_configs_load(tmp_path, monkeypatch):
    # Study.prepare writes the config that the setup interpreter and every
    # `fgred analyze` round load; _recheck_sims adds a root seed to it.
    from fgred.experiment import ExperimentConfig

    workloads = load_workloads(monkeypatch)
    studies = [make() for make in workloads.WORKLOADS.values()]
    studies = [w for w in studies if isinstance(w, workloads.Study)]
    assert studies
    for i, study in enumerate(studies):
        out = tmp_path / str(i)
        out.mkdir()
        study.prepare(1, out)
        config = ExperimentConfig.from_dict(json.loads(study.config_path.read_text()))
        assert config.n_sims == workloads.STUDY_BLOCK
        assert ExperimentConfig.from_dict({**study.config, "root_seed": 5}).root_seed == 5


def test_base_and_source_solves_pass_stationarity_gate(monkeypatch):
    # The stationarity gate of the re-solved worlds checks every converged
    # solve, the closed-form base poses included.
    from fgred.experiment import ExperimentConfig, simulate_batch_world, solve_world
    from fgred.sim2d import SimConfig

    workloads = load_workloads(monkeypatch)
    worlds = [simulate_batch_world(ExperimentConfig(), i) for i in range(3)]
    worlds.append(simulate_batch_world(ExperimentConfig(sim=SimConfig(n_poses=30)), 0))
    for i, world in enumerate(worlds):
        assert workloads._stationarity_problems(f"world {i}", world, solve_world(world)) == []
