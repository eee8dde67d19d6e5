"""Every function a traced benchmark run wraps still exists in cohwalk.

``cohbench/tracer.py`` looks each name of its ``LAYERS`` table up on the
``cohwalk`` module it names; a renamed or deleted function would only
fail a ``--trace 1`` run.  The table is read from the file itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "cohbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("cohbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("module_name, function", [
    (module_name, function)
    for module_name, functions in _layers().items() for function in functions
])
def test_traced_function_exists(module_name, function):
    module = importlib.import_module(f"cohwalk.{module_name}")
    assert callable(getattr(module, function, None))
