"""Guards for the benchmark: its tracer patches qcorr functions by name and
keeps one span stack, so importing qcorr and running any search must start
no thread, and its workload checks (audit, grid, kraus) hold qcorr to
independent closed forms. One source rule is checked here too: only
qstate._readonly clears an array's writeable flag."""

import ast
import functools
import importlib
import importlib.util
import itertools
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import qcorr.cli
from qcorr.bases import QubitBasis
from qcorr.oracle import (
    GridSpec,
    brute_force_discord,
    maximize_laqc,
    minimize_relative_entropy_basis,
)
from qcorr.qstate import bell_diagonal_state

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer, name", [(layer, fn) for layer, fns in _spans().LAYERS.items() for fn in fns]
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


def test_a_batch_of_kraus_ops_passes_the_benchmark_checks(monkeypatch, tmp_path):
    # Seeded evolutions of both channel kinds, each held by the workload's own
    # check to the analytically mapped triple (Bloch parameters within 1e-12)
    # and to Wootters' concurrence.
    _load_bench_module("reference", monkeypatch)
    kraus = _load_bench_module("workloads", monkeypatch).Kraus(qcorr, tmp_path)
    ops = list(itertools.islice(kraus.ops(np.random.default_rng(1)), 200))
    assert {op.kind for op in ops} == set(kraus.KRAUS)
    results = [(op.label, *kraus.check(op, kraus.run(op))) for op in ops]
    assert [r for r in results if r[1]] == []


def test_a_batch_of_grid_ops_passes_the_benchmark_checks(monkeypatch, tmp_path):
    # Two seeded cycles of channel tables (both kinds, 31x31 to 51x51) and
    # sweeps (201 to 401 points), each written under tmp_path and held row by
    # row by the workload's own check to the closed forms, Wootters' included.
    _load_bench_module("reference", monkeypatch)
    grid = _load_bench_module("workloads", monkeypatch).Grid(qcorr, tmp_path)
    ops = list(itertools.islice(grid.ops(np.random.default_rng(1)), 8))
    assert {op.kind for op in ops} == {"depolarizing", "phase-damping", "sweep"}
    results = [(op.label, *grid.check(op, grid.run(op))) for op in ops]
    assert [r for r in results if r[1]] == []
    assert list(tmp_path.iterdir()) == []


def test_one_audit_cycle_evaluates_at_most_two_coarse_relative_entropy_rows(monkeypatch, tmp_path):
    # The entropy bound leaves at most two rows of the 2048-row coarse table
    # and one row of a refinement window for every state of a cycle: the
    # Werner state stops early after its seed row, the asymmetric triples
    # skip every other row. The Holevo bound leaves one row of the 64-row
    # LAQC table, its seed, and rules out the LAQC window.
    _load_bench_module("reference", monkeypatch)
    audit = _load_bench_module("workloads", monkeypatch).Audit(qcorr, tmp_path)
    ops = list(itertools.islice(audit.ops(np.random.default_rng(1)), len(audit.CYCLE)))
    counts = {"_dephased_entropy_rows": [], "_laqc_rows": []}

    def counting(name):
        evaluate = getattr(qcorr.oracle, name)

        def evaluator(bloch, *args):
            rows = evaluate(bloch, *args)
            grids = args[-2:]  # the LAQC evaluator takes its two planes first
            count = [grids[0].size * grids[1].size, 0]  # rows of the table, rows evaluated
            counts[name].append(count)

            def counted(lo, hi):
                count[1] += hi - lo
                return rows(lo, hi)

            counted.bound = rows.bound
            return counted

        monkeypatch.setattr(qcorr.oracle, name, evaluator)

    for name in counts:
        counting(name)
    for op in ops:
        assert audit.run(op)[0] in (0, 3)
    dephased, laqc = counts["_dephased_entropy_rows"], counts["_laqc_rows"]
    coarse = [n for size, n in dephased if size == 2048]
    assert coarse[0] == 1 and len(coarse) == len(audit.CYCLE)
    assert max(coarse) <= 2
    assert max(n for size, n in dephased if size < 2048) <= 1
    laqc_coarse = [n for size, n in laqc if size == 64 * 64]
    assert len(laqc_coarse) == len(audit.CYCLE) and max(laqc_coarse) <= 1
    assert [n for size, n in laqc if size != 64 * 64] == [0] * len(audit.CYCLE)


def test_import_starts_no_thread():
    probe = (
        "import sys, threading\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import qcorr, qcorr.cli\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == ["1", "False"]


def _verify(*argv):
    assert qcorr.cli.main(["verify", *argv]) in (0, 3)


def _searches():
    """Every kind of search, as (label, call): Bell-diagonal `verify` runs,
    the LAQC and discord searches up to the largest grid, and a full-rank
    relative-entropy search, whose bound leaves rows all over its table alive."""
    for steps in ("64", "65"):
        for state in ("--werner=0.5", "--bd=0.7,-0.3,0.5"):
            yield f"verify-{state[2:]}-{steps}", functools.partial(_verify, state, "--steps", steps)
    rho = bell_diagonal_state((0.7, -0.3, 0.5))
    standard = (QubitBasis.standard(), QubitBasis.standard())
    for label, grid in (
        ("64", GridSpec(64, 64, 64)),
        ("128", GridSpec(128, 128, 128)),
        ("128-odd-phi", GridSpec(128, 127, 127)),
    ):
        yield f"laqc-{label}", functools.partial(maximize_laqc, rho, standard, grid)
        yield f"discord-{label}", functools.partial(brute_force_discord, rho, grid)
    g = np.random.default_rng(0).normal(size=(4, 4, 2)) @ (1.0, 1j)
    general = g @ g.conj().T
    general /= np.trace(general).real
    for steps in (64, 65):
        yield (
            f"relative-entropy-full-rank-{steps}",
            functools.partial(minimize_relative_entropy_basis, general, GridSpec(steps, steps, 2)),
        )


@pytest.mark.parametrize("search", [pytest.param(call, id=label) for label, call in _searches()])
def test_searches_start_no_thread(search, monkeypatch, capsys):
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    search()
    assert started == []


def test_tracer_sees_verify_after_the_parser_is_built(capsys):
    # main shares one parser per process; a tracer installed after it was
    # built must still see the command it wraps and every oracle under it.
    _verify("--werner=0.5", "--steps", "8")
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        _verify("--werner=0.5", "--steps", "8")
    finally:
        tracer.uninstall()
    tracer.absorb()
    calls = dict(zip(spans.SPAN_NAMES, tracer.calls.tolist()))
    assert calls["cli.cmd_verify"] == 1
    for name in spans.LAYERS["oracle"]:
        assert calls[f"oracle.{name}"] == 1, name
    # The LAQC planes are cached; only the two bases of the reported optimum are built.
    assert calls["bases.complementary_qubit_basis"] == 2


def test_tracer_sees_one_check_per_verify(capsys):
    # bell_diagonal_state certifies the matrix it builds without a call, and the
    # oracles share one check, a memo hit, and one decomposition of it, still
    # one span each.
    _verify("--werner=0.5", "--steps", "8")
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        _verify("--bd=0.7,-0.3,0.5", "--steps", "8")  # a state the memo has not seen
    finally:
        tracer.uninstall()
    tracer.absorb()
    calls = dict(zip(spans.SPAN_NAMES, tracer.calls.tolist()))
    assert calls["qstate.validate_density"] == 1
    assert calls["qstate.bloch_decompose"] == 0
    assert calls["qstate.bell_diagonal_state"] == 1
    for name in spans.LAYERS["oracle"]:
        assert calls[f"oracle.{name}"] == 1, name


def _freezing_sites():
    """(module, enclosing function) of every `.flags.writeable` assignment and
    `.setflags` call in src/qcorr."""
    sites = []
    for path in sorted((ROOT / "src" / "qcorr").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            assigns = (
                isinstance(node, ast.Attribute)
                and node.attr == "writeable"
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "flags"
            )
            calls = isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setflags"
            if assigns or calls:
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                sites.append((path.name, getattr(scope, "name", "<module>")))
    return sites


def test_only_readonly_freezes_an_array():
    # Every value and cache holds its arrays through qstate._readonly, a copy
    # that is then frozen; freezing in place elsewhere would keep an alias.
    assert _freezing_sites() == [("qstate.py", "_readonly")]
