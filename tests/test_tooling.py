"""Guards for the benchmark's tracer, which patches qcorr functions by name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "layer, name", [(layer, fn) for layer, fns in _layers().items() for fn in fns]
)
def test_traced_function_exists(layer, name):
    fn = getattr(importlib.import_module(f"qcorr.{layer}"), name, None)
    assert callable(fn), f"bench/spans.py traces qcorr.{layer}.{name}, which is missing"
