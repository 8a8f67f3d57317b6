"""Values own their arrays, and concurrent calls agree with serial ones.

A qcorr value that checks its input does so once, when it is built, and
keeps a read-only copy of each array it was given: an edit the caller
makes later through any alias of that array cannot reach a checked value. The caches
and memos are keyed by content, all through one key function, so threads sharing
them get the answers a single thread gets.
"""

import ast
import dataclasses
import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from qcorr import oracle
from qcorr.bases import JointDistribution, QubitBasis
from qcorr.channels import KrausChannel, phase_damped_werner_params
from qcorr.correlations import CorrelationReport, full_report, mutual_information
from qcorr.oracle import (
    GridSpec,
    audit_closed_forms,
    brute_force_discord,
    maximize_laqc,
    minimize_relative_entropy_basis,
)
from qcorr.qstate import BellDiagonalParams, BlochParams, validate_density


def _kets():
    kets = np.eye(2, dtype=complex)
    return kets, (kets[0], kets[1]), QubitBasis(kets[0], kets[1]), lambda b: np.vdot(*b.kets)


def _kraus_ops():
    base = np.stack([np.eye(2, dtype=complex)] * 2) * np.sqrt(0.5)
    ops = tuple(base)  # views of the writable base
    return base, ops, KrausChannel(ops, 0.0, "depolarizing"), KrausChannel.completeness_defect


def _triple_fields():
    c = np.array([[0.5, 0.1], [-0.5, -0.1], [0.5, 0.1]])
    return c, tuple(c), BellDiagonalParams(*c), lambda p: repr(full_report(p))


def _phase_damped_z():
    z = np.array([0.2, 0.8])
    gammas = np.array([0.0, 0.5])
    return z, (z,), phase_damped_werner_params(z, gammas), lambda p: repr(full_report(p))


def _bloch_vectors():
    v = np.zeros((2, 3))
    return v, tuple(v), BlochParams(v[0], v[1], 0.5 * np.eye(3)), BlochParams.is_bell_diagonal


def _outcome_table():
    p = np.full((2, 2), 0.25)
    return p, (p,), JointDistribution(p), mutual_information


def _report_fields():
    a = np.array([0.1, 0.2])
    return a, (a,), CorrelationReport(a, a, a, a, a, a), repr


def _held(value):
    """Every array a value holds in its fields, tuples of arrays included."""
    fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
    items = [a for f in fields for a in (f if isinstance(f, tuple) else (f,))]
    return [a for a in items if isinstance(a, np.ndarray)]


@pytest.mark.parametrize(
    "case",
    [
        _kets,
        _kraus_ops,
        _triple_fields,
        _phase_damped_z,
        _bloch_vectors,
        _outcome_table,
        _report_fields,
    ],
    ids=lambda case: case.__name__.strip("_"),
)
def test_a_value_keeps_a_read_only_copy_of_the_callers_arrays(case):
    caller, given, value, observe = case()
    before = observe(value), [a.tobytes() for a in _held(value)]
    caller[...] = 0.9  # reaches every array in `given`, which all view `caller`
    assert (observe(value), [a.tobytes() for a in _held(value)]) == before
    assert _held(value)
    for a in _held(value):
        assert not a.flags.writeable
        assert not np.shares_memory(a, caller)
    assert caller.flags.writeable and all(a.flags.writeable for a in given)


def _full_rank(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return validate_density(rho / np.trace(rho).real)


def _jobs():
    """Audits, reports and full-rank oracle calls over mixed states and grids."""
    rng = np.random.default_rng(26)
    standard = (QubitBasis.standard(), QubitBasis.standard())
    grid_triple = BellDiagonalParams(*np.array([[0.7, 0.2], [-0.3, -0.2], [0.5, 0.2]]))
    triples = [(0.6, -0.6, 0.6), (0.7, -0.3, 0.5), (-0.2, 0.4, 0.1), (0.3, 0.2, -0.1)]
    jobs = []
    for steps, triple in zip((8, 9, 16, 17), triples):
        grid = GridSpec(steps, steps, steps)
        rho = _full_rank(rng)
        jobs += [
            functools.partial(audit_closed_forms, triple, grid),
            functools.partial(full_report, triple),
            functools.partial(full_report, grid_triple),
            functools.partial(minimize_relative_entropy_basis, rho, grid),
            functools.partial(maximize_laqc, rho, standard, grid),
            functools.partial(brute_force_discord, rho, grid),
        ]
    return jobs


def _clear_caches():
    for f in vars(oracle).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def test_threads_sharing_the_caches_agree_with_serial_runs():
    jobs = _jobs()
    _clear_caches()
    serial = [repr(job()) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _clear_caches()
        with ThreadPoolExecutor(max_workers=4) as pool:
            # Each job twice, so cache fills and cache hits of one key overlap.
            futures = [pool.submit(job) for job in jobs + jobs[::-1]]
            threaded = [repr(f.result()) for f in futures]  # re-raises a thread's exception
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial + serial[::-1]


SRC = Path(__file__).resolve().parent.parent / "src" / "qcorr"


def _sites(names):
    """(module, top-level definition, name) of every use of one of ``names`` in
    src/qcorr: an attribute, a bare name or an imported name."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(stmt):
                name = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
                if not isinstance(node, ast.stmt) and name in names:
                    sites.append((path.name, getattr(stmt, "name", "<module>"), name))
    return sorted(sites)


def test_clear_caches_reaches_every_content_keyed_cache():
    # Every _by_content cache lives in oracle, and an audit fills each one.
    decorated = [site for site in _sites({"_by_content"}) if site[1] != "<module>"]  # not imports
    assert len(decorated) >= 5 and {module for module, _, _ in decorated} == {"oracle.py"}
    audit_closed_forms((0.6, -0.6, 0.6), GridSpec(8, 8, 8))
    caches = [getattr(oracle, name) for _, name, _ in decorated]
    assert all(cache.cache_info().currsize for cache in caches)
    _clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)


def test_only_the_content_key_touches_raw_bytes():
    # One key function spells a cache key, and only _by_content decodes one.
    assert _sites({"tobytes", "frombuffer"}) == [
        ("qstate.py", "_by_content", "frombuffer"),
        ("qstate.py", "_content_key", "tobytes"),
    ]
