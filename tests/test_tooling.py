"""Guards for the benchmark: its tracer patches qcorr functions by name, and
its audit checks hold the oracles to independent closed forms."""

import importlib
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import qcorr.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


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


def _load_bench_module(name, monkeypatch):
    """Import bench/<name>.py under its own name, as bench/run.py sees it."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_one_audit_cycle_passes_the_benchmark_checks(monkeypatch, tmp_path):
    # One seeded cycle: a Werner state, then asymmetric triples whose largest
    # |c| lies on x, y, z, x, y, each through `verify` at 64 steps and checked
    # against bench/reference.py, which includes f(max|c|) for the classical
    # oracle.
    _load_bench_module("reference", monkeypatch)  # workloads imports it by name
    audit = _load_bench_module("workloads", monkeypatch).Audit(qcorr, tmp_path)
    ops = list(itertools.islice(audit.ops(np.random.default_rng(1)), len(audit.CYCLE)))
    assert len(ops) == 6
    results = [(op.label, *audit.check(op, audit.run(op))) for op in ops]
    assert [r for r in results if r[1]] == []
