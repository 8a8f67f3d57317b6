"""The grid scan evaluates its chunks in two thread stripes; these tests hold
it to the same chunks evaluated in order on one thread."""

import functools
import sys
import threading

import numpy as np
import pytest

from qcorr.oracle import (
    _CHUNK_ROWS,
    TIE_TOL,
    GridSpec,
    _dephased_entropy_rows,
    _phi_grid,
    _scan,
    _search_thetas,
    _theta_grid,
)
from qcorr.qstate import bell_diagonal_state, bloch_decompose


def _states():
    """Three Bell-diagonal states, then three random full-rank ones."""
    rng = np.random.default_rng(10)
    triples = ((0.5, -0.5, 0.5), (0.7, -0.3, 0.5), (0.3, 0.2, -0.1))
    states = [bell_diagonal_state(c) for c in triples]
    for _ in range(3):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    return states


BLOCHS = [bloch_decompose(rho) for rho in _states()]


def _one_thread_scan(grids, n_row_angles, rows):
    """What _scan returns, from every chunk evaluated in order on the calling thread."""
    shape = tuple(g.size for g in grids)
    n_rows = int(np.prod(shape[:n_row_angles]))

    def chunk(lo):
        return rows(lo, min(lo + _CHUNK_ROWS, n_rows))

    row_best = np.concatenate([chunk(lo).min(axis=1) for lo in range(0, n_rows, _CHUNK_ROWS)])
    value = row_best.min()
    row = int(np.argmax(row_best <= value + TIE_TOL))
    lo = row - row % _CHUNK_ROWS
    table = chunk(lo)
    col = int(np.argmax(table[row - lo] <= value + TIE_TOL))
    idx = np.unravel_index(row * table.shape[1] + col, shape)
    return tuple(g[i] for g, i in zip(grids, idx)), value


@pytest.mark.parametrize("chunk, on_helper", [(3, True), (2, False)], ids=["helper", "caller"])
def test_a_failing_stripe_raises_after_the_helper_is_joined(chunk, on_helper):
    table = np.ones((6 * _CHUNK_ROWS, 3))
    failure = MemoryError(f"chunk {chunk}")
    raised_on = []

    def rows(lo, hi):
        # Raise once only, so that no later call for this chunk can stand in
        # for an error the scan lost.
        if lo == chunk * _CHUNK_ROWS and not raised_on:
            raised_on.append(threading.get_ident())
            raise failure
        return table[lo:hi]

    before = threading.active_count()
    with pytest.raises(MemoryError) as info:
        _scan((np.arange(float(table.shape[0])), np.arange(3.0)), 1, lambda *_: rows)
    assert info.value is failure
    assert (raised_on[0] != threading.get_ident()) is on_helper
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "thetas, phis",
    [
        (_theta_grid(16), _phi_grid(16)),  # two chunks
        (_theta_grid(17), _phi_grid(17)),  # a partial last chunk
        (_search_thetas(GridSpec()), _phi_grid(64)),  # the 64-step search's sixteen chunks
    ],
    ids=["16", "17", "64"],
)
def test_striped_scans_equal_one_thread_scans_under_contention(thetas, phis):
    # Two workers each run striped scans, so four threads share two cores,
    # and the interpreter switches threads every microsecond. A buffer
    # shared between threads would corrupt some chunk's row minima.
    grids = (thetas, phis, thetas, phis)
    expected = [
        repr(_one_thread_scan(grids, 2, _dephased_entropy_rows(bloch, *grids))) for bloch in BLOCHS
    ]
    repeats = 2
    results = {}

    def worker(name):
        results[name] = [
            repr(_scan(grids, 2, functools.partial(_dephased_entropy_rows, bloch)))
            for _ in range(repeats)
            for bloch in BLOCHS
        ]

    workers = [threading.Thread(target=worker, args=(name,)) for name in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert results == {name: expected * repeats for name in range(2)}
