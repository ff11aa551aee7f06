"""The bench tracer wraps engine functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED_FUNCTIONS
    for label in tracer.TRACED_FUNCTIONS:
        mod_name, fn_name = label.split(".")
        module = importlib.import_module(f"hodgeatoms.{mod_name}")
        assert callable(getattr(module, fn_name, None)), label
    runners = importlib.import_module("hodgeatoms.pipeline")._STAGE_RUNNERS
    assert set(tracer.STAGES) == set(runners)
