"""Every cohwalk name a benchmark run calls still exists and still runs.

``cohbench/tracer.py`` looks each name of its ``LAYERS`` table up on the
``cohwalk`` module it names, and ``cohbench/worker.py`` calls cohwalk
directly for its ``LIBRARY`` routes; a renamed or deleted function, or a
changed signature, would only fail a benchmark run.  Both tables are read
from the files themselves.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

COHBENCH = Path(__file__).resolve().parent.parent / "cohbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"cohbench_{name}", COHBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, function", [
    (module_name, function)
    for module_name, functions in _load("tracer").LAYERS.items() for function in functions
])
def test_traced_function_exists(module_name, function):
    module = importlib.import_module(f"cohwalk.{module_name}")
    assert callable(getattr(module, function, None))


# tiny inputs of the shapes cohbench/workloads.py gives each library route
LIBRARY_PARAMS = {
    "coherence": {"promise": "balanced", "epsilon": None, "signs": [1, -1, -1, 1],
                  "alphas": [[0.6, 0.0], [0.0, 0.8], [1.0, 0.0], [0.0, 0.0]],
                  "betas": [0.8, 0.6, 0.0, 1.0]},
    "tails": {"m": 10, "epsilon": "0.2", "n": 100},
    "uniforms": {"range": {"seed": 3, "start": 5, "count": 20}, "partitions": [[9], [7, 15]]},
}


@pytest.mark.parametrize("kind", sorted(LIBRARY_PARAMS))
def test_library_route_runs(kind):
    worker = _load("worker")
    assert set(worker.LIBRARY) == set(LIBRARY_PARAMS)
    # run_op turns an exception escaping cohwalk into exit code 3
    code, result = worker.run_op(None, {"kind": kind, "params": LIBRARY_PARAMS[kind]}, None)
    assert code == 0, result
    if kind == "coherence":
        assert 0 <= result["p"] <= result["bound"]
    elif kind == "tails":
        assert all(0 < result[key] < 1 for key in ("false_eps", "false_bal"))
    else:
        assert result["parts"] == [result["whole"]] * 2
