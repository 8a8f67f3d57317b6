"""The searches scan half of the theta grid; these tests hold them to the full grid.

Measuring along -a is the measurement along a with its outcomes relabelled,
so every search objective takes the same value at a grid point and at its
antipodal image, which has a smaller theta index whenever steps_phi is
even. The half-grid searches must therefore pick exactly the angles the
full-grid searches pick.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qcorr import oracle
from qcorr.cli import main
from qcorr.oracle import (
    _CHUNK_ROWS,
    GridSpec,
    _bloch_axes,
    _dephased_entropy_rows,
    _grid_search,
    _phi_grid,
    _search_thetas,
    _theta_grid,
    brute_force_discord,
    minimize_relative_entropy_basis,
)
from qcorr.qstate import bell_diagonal_state, bloch_decompose, werner_state, xlog2

DATA = Path(__file__).parent / "data"

NAMED_TRIPLES = [
    (0.0, 0.0, 0.0),
    (1.0, -1.0, 1.0),
    (0.7, -0.3, 0.5),
    tuple(0.586625 * np.array([1.0, -1.0, 1.0])),
    (0.5, -0.5, 0.5),
    (-1.0, -1.0, -1.0),
    (0.25, -0.25, 0.5),
    (0.3, 0.2, -0.1),
]


def _states(n_triples=21, n_general=21, seed=8):
    """The named triples, then random physical triples, then random full-rank states."""
    rng = np.random.default_rng(seed)
    states = [bell_diagonal_state(c) for c in NAMED_TRIPLES]
    while len(states) < len(NAMED_TRIPLES) + n_triples:
        try:
            states.append(bell_diagonal_state(tuple(rng.uniform(-1.0, 1.0, size=3))))
        except ValueError:  # outside the physical tetrahedron
            continue
    for _ in range(n_general):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    return states


STATES = _states()


def _full_grid_twin(grid, monkeypatch, states=STATES):
    """Run the public searches, and each recorded _grid_search call again over the full theta grid.

    Returns a list of (half-grid best, full-grid best) pairs.
    """
    calls = []

    def spy(grids, bounds, n_row_angles, table, refine):
        best = _grid_search(grids, bounds, n_row_angles, table, refine)
        calls.append((grids, bounds, n_row_angles, table, refine, best))
        return best

    monkeypatch.setattr(oracle, "_grid_search", spy)
    thetas = _theta_grid(grid.steps_theta)
    pairs = []
    for rho in states:
        minimize_relative_entropy_basis(rho, grid)
        brute_force_discord(rho, grid)
    for grids, bounds, n_row_angles, table, refine, best in calls:
        # theta grids sit at the even positions: (theta, phi) or (theta_a, phi_a, theta_b, phi_b)
        full = tuple(thetas if i % 2 == 0 else g for i, g in enumerate(grids))
        for half, whole in zip(grids[::2], full[::2]):
            assert np.array_equal(half, whole[: half.size])
        pairs.append((best, _grid_search(full, bounds, n_row_angles, table, refine)))
    return pairs


@pytest.mark.parametrize("refine", [True, False], ids=["refine", "coarse"])
@pytest.mark.parametrize("steps", [2, 3, 4, 16, 17, 32])
def test_half_grid_search_equals_full_grid(steps, refine, monkeypatch):
    pairs = _full_grid_twin(GridSpec(steps, steps, 2, refine), monkeypatch)
    assert len(pairs) == 2 * len(STATES) == 100
    assert [repr(half) for half, _ in pairs] == [repr(full) for _, full in pairs]


@pytest.mark.parametrize(
    "theta_phi", [(2, 4), (3, 4), (5, 6), (7, 7)], ids=lambda tp: "%dx%d" % tp
)
def test_half_grid_search_equals_full_grid_on_mixed_grids(theta_phi, monkeypatch):
    pairs = _full_grid_twin(GridSpec(*theta_phi, 2, refine=False), monkeypatch)
    assert [repr(half) for half, _ in pairs] == [repr(full) for _, full in pairs]


def test_half_grid_search_equals_full_grid_at_64_steps(monkeypatch):
    pairs = _full_grid_twin(GridSpec(), monkeypatch, [STATES[2], STATES[-1]])
    assert [repr(half) for half, _ in pairs] == [repr(full) for _, full in pairs]


@pytest.mark.parametrize(
    "grid, rows",
    [
        (GridSpec(64, 64, 2, refine=False), 32),
        (GridSpec(64, 17, 2, refine=False), 64),
        (GridSpec(2, 64, 2, refine=False), 2),
        (GridSpec(3, 4, 2, refine=False), 2),
    ],
    ids=["64x64", "odd-phi", "two-theta", "3x4"],
)
def test_searches_scan_half_theta_grid_when_phi_steps_even(grid, rows, monkeypatch):
    seen = []

    def spy(evaluator):
        def wrapped(bloch, *grids):
            seen.append((evaluator.__name__, tuple(g.size for g in grids)))
            return evaluator(bloch, *grids)

        return wrapped

    for name in ("_dephased_entropy_rows", "_conditional_entropy_rows"):
        monkeypatch.setattr(oracle, name, spy(getattr(oracle, name)))
    rho = werner_state(0.5)
    minimize_relative_entropy_basis(rho, grid)
    brute_force_discord(rho, grid)
    phis = grid.steps_phi
    assert seen == [
        ("_dephased_entropy_rows", (rows, phis, rows, phis)),
        ("_conditional_entropy_rows", (rows, phis)),
    ]


def _parent_dephased_entropy_rows(bloch, theta_a, phi_a, theta_b, phi_b):
    """The row evaluator as it was before its buffers were reused: the reference."""
    axes_a, axes_b = _bloch_axes(theta_a, phi_a), _bloch_axes(theta_b, phi_b)
    xa_all = axes_a @ bloch.x
    yb = axes_b @ bloch.y
    tb = bloch.T @ axes_b.T

    def rows(lo, hi):
        k = axes_a[lo:hi] @ tb
        xa = xa_all[lo:hi, None]
        h = np.zeros((hi - lo, axes_b.shape[0]))
        for s in (1.0, -1.0):
            for t in (1.0, -1.0):
                p = 0.25 * (1.0 + s * xa + t * yb[None, :] + (s * t) * k)
                np.clip(p, 0.0, 1.0, out=p)
                h -= xlog2(p)
        return h

    return rows


@pytest.mark.parametrize(
    "thetas, phis",
    [
        (_theta_grid(16), _phi_grid(16)),
        (_theta_grid(17), _phi_grid(17)),  # a partial last chunk
        (_search_thetas(GridSpec()), _phi_grid(64)),  # every chunk a 64-step search scans
    ],
    ids=["16", "17", "64"],
)
def test_dephased_entropy_chunks_bitwise_equal_to_reference(thetas, phis):
    n_rows = thetas.size * phis.size
    for rho in STATES[:6] + STATES[-6:]:
        bloch = bloch_decompose(rho)
        grids = (thetas, phis, thetas, phis)
        rows = _dephased_entropy_rows(bloch, *grids)
        reference = _parent_dephased_entropy_rows(bloch, *grids)
        for lo in range(0, n_rows, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n_rows)
            assert rows(lo, hi).tobytes() == reference(lo, hi).tobytes(), (lo, hi)


VERIFY_64 = json.loads((DATA / "cli_verify_64.json").read_text())


@pytest.mark.parametrize("pinned", VERIFY_64, ids=[" ".join(c["argv"]) for c in VERIFY_64])
def test_verify_at_64_steps_is_byte_identical(pinned, capsys):
    code = main(pinned["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (pinned["exit"], pinned["stdout"], pinned["stderr"])
