"""The searches scan half of the theta grid and skip the rows an entropy
bound rules out; these tests hold them to exhaustive full-grid searches.

Measuring along -a is the measurement along a with its outcomes relabelled,
so every search objective takes the same value at a grid point and at its
antipodal image, which has a smaller theta index whenever steps_phi is
even. The half-grid searches must therefore pick exactly the angles the
full-grid searches pick. The reference evaluates every row of every scan
in index order and ignores the bound, so it shares no code with the pruned
scan beyond the row evaluators.
"""

import functools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcorr import oracle
from qcorr.bases import QubitBasis, local_qubit_basis
from qcorr.cli import main
from qcorr.oracle import (
    _BOUND_SLACK,
    _CHUNK_ROWS,
    _REFINE_POINTS,
    _RUN_BYTES,
    TIE_TOL,
    GridSpec,
    _bloch_axes,
    _conditional_entropy,
    _conditional_entropy_of,
    _conditional_entropy_rows,
    _dephased_entropy_rows,
    _grid_search,
    _holevo_gate,
    _laqc_plane,
    _laqc_rows,
    _phi_grid,
    _scan,
    _search_thetas,
    _theta_grid,
    brute_force_discord,
    maximize_laqc,
    minimize_relative_entropy_basis,
)
from qcorr.qstate import (
    BlochParams,
    bell_diagonal_state,
    bloch_compose,
    bloch_decompose,
    werner_state,
    xlog2,
)

DATA = Path(__file__).parent / "data"
_STD = QubitBasis.standard()

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


def _full_rank(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _full_rank_states(n, seed):
    rng = np.random.default_rng(seed)
    return [_full_rank(rng) for _ in range(n)]


def _states(n_triples=21, n_general=21, seed=8):
    """The named triples, then random physical triples, then random full-rank states."""
    rng = np.random.default_rng(seed)
    states = [bell_diagonal_state(c) for c in NAMED_TRIPLES]
    while len(states) < len(NAMED_TRIPLES) + n_triples:
        try:
            states.append(bell_diagonal_state(tuple(rng.uniform(-1.0, 1.0, size=3))))
        except ValueError:  # outside the physical tetrahedron
            continue
    return states + [_full_rank(rng) for _ in range(n_general)]


STATES = _states()


def _exhaustive_scan(grids, n_row_angles, rows):
    """What _scan returns, from every row evaluated in index order."""
    shape = tuple(g.size for g in grids)
    n_rows = int(np.prod(shape[:n_row_angles]))

    def block(lo):
        return rows(lo, min(lo + _CHUNK_ROWS, n_rows))

    row_best = np.concatenate([block(lo).min(axis=1) for lo in range(0, n_rows, _CHUNK_ROWS)])
    value = row_best.min()
    row = int(np.argmax(row_best <= value + TIE_TOL))
    line = block(row - row % _CHUNK_ROWS)[row % _CHUNK_ROWS]
    col = int(np.argmax(line <= value + TIE_TOL))
    idx = np.unravel_index(row * line.size + col, shape)
    return tuple(g[i] for g, i in zip(grids, idx)), value


def _exhaustive_search(grids, bounds, n_row_angles, table, refine):
    """What _grid_search returns, from exhaustive scans of the grid and the window."""
    best, value = _exhaustive_scan(grids, n_row_angles, table(*grids))
    if refine:
        windows = tuple(
            np.linspace(max(lo, c - (g[1] - g[0])), min(hi, c + (g[1] - g[0])), _REFINE_POINTS)
            for g, c, (lo, hi) in zip(grids, best, bounds)
        )
        refined, r_value = _exhaustive_scan(windows, n_row_angles, table(*windows))
        if r_value < value - TIE_TOL:
            best = refined
    return best


def _full_grid_twin(grid, monkeypatch, states=STATES):
    """Run the public searches, and each recorded _grid_search call again as
    an exhaustive search over the full theta grid.

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
        pairs.append((best, _exhaustive_search(full, bounds, n_row_angles, table, refine)))
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


def _recorded_scans(grid, monkeypatch, states=STATES):
    """Run the public searches and record every _scan call: its arguments,
    its result and the row blocks it evaluated."""
    records = []

    def spy(grids, n_row_angles, table, **options):
        blocks = []

        def counted_table(*args):
            rows = table(*args)

            def counted(lo, hi):
                blocks.append((lo, hi))
                return rows(lo, hi)

            if hasattr(rows, "bound"):
                counted.bound = rows.bound
            return counted

        result = _scan(grids, n_row_angles, counted_table, **options)
        records.append((grids, n_row_angles, table, options, result, blocks))
        return result

    monkeypatch.setattr(oracle, "_scan", spy)
    for rho in states:
        minimize_relative_entropy_basis(rho, grid)
        brute_force_discord(rho, grid)
    return records


def _blocks(grids, n_row_angles):
    return -(-int(np.prod([g.size for g in grids[:n_row_angles]])) // _CHUNK_ROWS)


def _live_blocks(rows, minimum):
    """The blocks of _CHUNK_ROWS rows that hold a row the skip alone leaves live at the
    minimum: fewer runs fetched than that is taken as the early stop cutting a scan short."""
    bound = np.minimum.reduceat(rows.bound, np.arange(0, rows.bound.size, _CHUNK_ROWS))
    return int(np.sum(bound - _BOUND_SLACK <= minimum + TIE_TOL))


@pytest.mark.parametrize("steps", [3, 16, 17, 32])
def test_pruned_scan_equals_exhaustive_scan(steps, monkeypatch):
    records = _recorded_scans(GridSpec(steps, steps, 2), monkeypatch)
    skipped = stopped = windows_ruled_out = 0
    for grids, n_row_angles, table, options, result, blocks in records:
        rows = table(*grids)
        exact = _exhaustive_scan(grids, n_row_angles, rows)
        if result is None:  # the window's bound rules out adopting any point
            assert exact[1] >= options["below"]
            windows_ruled_out += 1
        elif options.get("stop_early"):
            assert result[0] == exact[0]
            assert exact[1] <= result[1] <= exact[1] + TIE_TOL
            stopped += hasattr(rows, "bound") and len(blocks) < _live_blocks(rows, exact[1])
        else:
            assert repr(result) == repr(exact)
            skipped += len(blocks) < _blocks(grids, n_row_angles)
    assert skipped and windows_ruled_out
    assert stopped or steps < 17  # below 17 steps no coarse table has more than _CHUNK_ROWS rows


def test_bound_leaves_at_most_two_coarse_rows_for_bell_diagonal_states(monkeypatch):
    # Werner: every row's bound is the same up to ulps, so only the early
    # stop can end the scan, right after the seed row; the window bound then
    # rules out refinement. Asymmetric: the skip leaves two coarse rows and
    # the seed row of the window. A full-rank state leaves rows all over the
    # table alive, but the scan evaluates only those still live when reached.
    states = [werner_state(0.5), bell_diagonal_state((0.7, -0.3, 0.5)), STATES[-1]]
    records = _recorded_scans(GridSpec(), monkeypatch, states)
    counts = [sum(hi - lo for lo, hi in blocks) for grids, n, *_, blocks in records if n == 2]
    assert counts[:4] == [1, 0, 2, 1]
    assert 2 < counts[4] < _CHUNK_ROWS  # 26 of 2048, in 8 runs
    grids, _, table, *_ = records[0]
    assert np.ptp(table(*grids).bound) < TIE_TOL


def test_refinement_rescans_an_early_stopped_grid_it_cannot_decide():
    # The coarse scan stops after its seed row 0 at U = 0, but row 200, with
    # the next lowest bound, holds the minimum, -0.5 TIE_TOL, whatever order
    # the rows are evaluated in. The window's minimum, -1.45 TIE_TOL, lies more
    # than TIE_TOL below U and less than TIE_TOL below the minimum, so only
    # the exact coarse value shows that refinement must not adopt it.
    rng = np.random.default_rng(1)
    coarse = rng.uniform(1.0, 2.0, size=(700, 5))
    coarse[0, 0], coarse[200, 1] = 0.0, -0.5 * TIE_TOL
    coarse_bound = np.ones(700)
    coarse_bound[:128], coarse_bound[200] = -0.6 * TIE_TOL, -0.5 * TIE_TOL
    window = rng.uniform(1.0, 2.0, size=(21, 21))
    window[3, 4] = -1.45 * TIE_TOL

    def table(rows_grid, cols_grid):
        values, bound = (coarse, coarse_bound) if rows_grid.size == 700 else (window, window.min(1))

        def rows(lo, hi):
            return values[lo:hi]

        rows.bound = bound
        return rows

    grids = (np.arange(700.0), np.arange(5.0))
    bounds = ((-np.inf, np.inf),) * 2
    expected = _exhaustive_search(grids, bounds, 1, table, True)
    assert expected == (0.0, 0.0)
    assert _grid_search(grids, bounds, 1, table, True) == expected


# Tables of 256, 289 and 2048 rows: more than one run of _CHUNK_ROWS rows,
# so the result must not depend on the order the runs are evaluated in.
SCAN_GRIDS = {
    "16": (_theta_grid(16), _phi_grid(16)),
    "17": (_theta_grid(17), _phi_grid(17)),  # not a multiple of _CHUNK_ROWS
    "64": (_search_thetas(GridSpec()), _phi_grid(64)),  # the 64-step search's table
}


@pytest.mark.parametrize(
    "rho, steps",
    [pytest.param(werner_state(0.9), "64", id="werner-0.9-64")]
    + [
        pytest.param(rho, steps, id=f"full-rank-{i}-{steps}")
        for steps in SCAN_GRIDS
        for i, rho in enumerate(_full_rank_states(3, seed=10))
    ],
)
def test_pruned_scan_keeps_a_minimum_an_ulp_below_the_first_chunk(rho, steps):
    # For Werner z = 0.9 the bound is flat within ulps, and the 64-step
    # table's minimum lies in row 1751, 1e-15 below the minimum of the seed
    # row 0: a bound raised by a hair would skip row 1751 and report row 0's.
    # The full-rank states leave live rows in many runs, evaluated out of
    # index order.
    thetas, phis = SCAN_GRIDS[steps]
    grids = (thetas, phis, thetas, phis)
    table = functools.partial(_dephased_entropy_rows, bloch_decompose(rho))
    assert repr(_scan(grids, 2, table)) == repr(_exhaustive_scan(grids, 2, table(*grids)))


@pytest.mark.parametrize("steps", [64, 65])
def test_scan_evaluates_only_rows_live_when_reached(steps, monkeypatch):
    # A row is live while its bound - _BOUND_SLACK is at most U + TIE_TOL,
    # with U the smallest entry its scan has evaluated so far, and not yet
    # evaluated; only the answer's row may be fetched again, alone.
    dead, twice, evaluated = [], [], []

    def spy(grids, n_row_angles, table, **options):
        def watched_table(*args):
            rows = table(*args)
            least, seen = [np.inf], np.zeros(rows.bound.size, dtype=bool)

            def watched(lo, hi):
                floor = rows.bound[lo:hi] - _BOUND_SLACK
                dead.extend(lo + np.flatnonzero(floor > least[0] + TIE_TOL))
                if hi - lo > 1:
                    twice.extend(lo + np.flatnonzero(seen[lo:hi]))
                seen[lo:hi] = True
                block = rows(lo, hi)
                least[0] = min(least[0], block.min())
                evaluated.append(hi - lo)
                return block

            watched.bound = rows.bound
            return watched

        return _scan(grids, n_row_angles, watched_table, **options)

    monkeypatch.setattr(oracle, "_scan", spy)
    for rho in STATES[-4:]:
        minimize_relative_entropy_basis(rho, GridSpec(steps, steps, 2))
    assert sum(evaluated) > 4 * _CHUNK_ROWS
    assert dead == [] and twice == []


# Offsets from the minimum for planted entries: ties, the tolerance's edge
# and entries just outside it.
_PLANTED = tuple(TIE_TOL * np.array([0.0, 1e-6, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0]))


@st.composite
def _bounded_tables(draw):
    """(table, bound or None), with per row a lower bound that is tight, a few
    ulps low or loose: up to 300x6 random entries with planted ties, or up to
    12x6 entries each drawn from the planted offsets."""
    n_cols = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n_rows = draw(st.integers(1, 300))
        scale = draw(st.sampled_from([1e-9, 1e-3, 1.0]))
        values = rng.uniform(-1.0, 1.0, size=(n_rows, n_cols)) * scale
        for _ in range(draw(st.integers(0, 12))):
            values[rng.integers(n_rows), rng.integers(n_cols)] = values.min() + rng.choice(_PLANTED)
        kind = rng.integers(3, size=n_rows)
    else:
        n_rows = draw(st.integers(1, 12))
        offsets = st.sampled_from(_PLANTED + (1.5 * TIE_TOL, 1e-3))
        entries = draw(st.lists(offsets, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
        values = draw(st.sampled_from([0.0, -0.3, 0.7])) + np.reshape(entries, (n_rows, n_cols))
        kind = np.full(n_rows, draw(st.integers(0, 2)))
    if draw(st.booleans()):
        return values, None
    row_min = values.min(axis=1)
    ulps = np.nextafter(np.nextafter(row_min, -np.inf), -np.inf)
    loose = row_min - rng.exponential(draw(st.sampled_from([TIE_TOL, 1e-6, 1.0])), size=n_rows)
    return values, np.choose(kind, [row_min, ulps, loose])


@settings(max_examples=500, deadline=None)
@given(_bounded_tables(), st.floats(-2.0, 2.0), st.integers(-3, 3))
@example((np.array([[1.5, 0.5], [0.0, 1e7]]) * TIE_TOL, np.array([0.5, 0.0]) * TIE_TOL), 0.0, 0)
def test_scan_returns_the_exhaustive_first_tie_on_any_bounded_table(case, below, near):
    # Whatever order the scan evaluates rows in, it returns the first entry
    # within TIE_TOL of the minimum, the exact minimum without the early stop
    # and a value at most TIE_TOL above it with it. In the example the seed
    # row's first entry within TIE_TOL of U lies 1.5 TIE_TOL above the
    # minimum, so the early stop must not return it.
    values, bound = case
    grids = (np.arange(float(values.shape[0])), np.arange(float(values.shape[1])))

    def table(*_):
        def rows(lo, hi):
            return values[lo:hi]

        if bound is not None:
            rows.bound = bound
        return rows

    least = values.min()
    first = int((values <= least + TIE_TOL).argmax())
    expected = (grids[0][first // values.shape[1]], grids[1][first % values.shape[1]])
    assert repr(_scan(grids, 1, table)) == repr((expected, least))
    point, value = _scan(grids, 1, table, stop_early=True)
    assert point == expected and least <= value <= least + TIE_TOL
    if bound is None:
        return
    # below: at random, at the smallest bound less the slack, or some ulps off it.
    floor = bound - _BOUND_SLACK
    if near:
        below = floor.min()
        for _ in range(abs(near) - 1):
            below = np.nextafter(below, np.inf if near > 0 else -np.inf)
    found = _scan(grids, 1, table, below=below)
    assert (found is None) == bool(np.all(floor >= below))
    assert found is None or repr(found) == repr((expected, least))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
    st.integers(1, 4),
    st.integers(2, 9),
    st.integers(2, 9),
)
def test_row_minima_never_fall_below_the_entropy_bound(entries, rank, steps_theta, steps_phi):
    # Rounding puts an entry at most a few 1e-15 below its bound, pure
    # states included: far inside the slack the scan allows.
    a = np.reshape(entries, (4, 4, 2))[:, :rank]
    g = a[..., 0] + 1j * a[..., 1]
    rho = g @ g.conj().T
    if np.trace(rho).real < 1e-6:
        return
    thetas, phis = _theta_grid(steps_theta), _phi_grid(steps_phi)
    bloch = bloch_decompose(rho / np.trace(rho).real)
    rows = _dephased_entropy_rows(bloch, thetas, phis, thetas, phis)
    row_min = rows(0, thetas.size * phis.size).min(axis=1)
    assert np.all(row_min >= rows.bound - _BOUND_SLACK / 100)


def _without_b_vector(bloch, w):
    """(1 - w) (rho + spin-flipped rho) / 2 + w rho_A (x) I/2: y = 0 exactly,
    x = w x, T = (1 - w) T, a state whenever bloch is one."""
    return BlochParams(w * bloch.x, np.zeros(3), (1.0 - w) * bloch.T)


def _laqc_table(bloch, planes, phi_a, phi_b):
    """The LAQC row evaluator as maximize_laqc builds it, gated on the planes."""
    return _laqc_rows(bloch, *planes, _holevo_gate(bloch, *planes), phi_a, phi_b)


def _holevo_bound(bloch, plane, phis):
    """sum_s p_s S(rho_B | s) - S(rho_B) along each axis of the plane."""
    axes = np.cos(phis)[:, None] * plane[0] + np.sin(phis)[:, None] * plane[1]
    lam = 0.5 * (1.0 + np.linalg.norm(bloch.y))
    return _conditional_entropy(bloch, axes) - (-xlog2(lam) - xlog2(1.0 - lam))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
    st.integers(1, 4),
    st.lists(st.floats(0.0, 3.14), min_size=2, max_size=2),
    st.lists(st.floats(0.0, 6.28), min_size=2, max_size=2),
    st.integers(2, 9),
    st.integers(2, 9),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_laqc_row_minima_never_fall_below_the_holevo_bound(
    entries, rank, thetas, phis, n_a, n_b, w
):
    # For every b, I(A_a : B_b) <= S(rho_B) - sum_s p_s S(rho_B | s): minus
    # the mutual information is never below the bound, by more than
    # rounding, on full-rank and rank-deficient states in any bases, with
    # and without B's Bloch vector.
    a = np.reshape(entries, (4, 4, 2))[:, :rank]
    g = a[..., 0] + 1j * a[..., 1]
    rho = g @ g.conj().T
    if np.trace(rho).real < 1e-6:
        return
    bloch = bloch_decompose(rho / np.trace(rho).real)
    if w is not None:
        bloch = _without_b_vector(bloch, w)
    planes = [_laqc_plane(local_qubit_basis(t, p)) for t, p in zip(thetas, phis)]
    rows = _laqc_table(bloch, planes, _phi_grid(n_a), _phi_grid(n_b))
    holevo = _holevo_bound(bloch, planes[0], _phi_grid(n_a))
    assert np.all(rows(0, n_a).min(axis=1) >= holevo - _BOUND_SLACK / 100)


def _attained_cases(seed):
    """(Bloch parameters, planes) pairs where the bound is attained, and where not."""
    rng = np.random.default_rng(seed)
    bell = [bloch_decompose(rho) for rho in STATES[:29]]  # y = 0, T diagonal
    general = [bloch_decompose(rho) for rho in STATES[29:]]
    mixed = [_without_b_vector(b, rng.uniform()) for b in general]
    # Half a Bell-diagonal state, half rho_A (x) I/2 of a general state.
    with_x = [BlochParams(0.5 * g.x, np.zeros(3), 0.5 * b.T) for g, b in zip(general, bell)]
    std = [_laqc_plane(_STD)] * 2
    attained = [(b, std) for b in bell + with_x]
    loose = [(b, std) for b in general + mixed]
    for b in bell[1:]:  # the first has T = 0, which every plane maps into every other
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        turn = q * np.sign(np.linalg.det(q))  # a rotation: a unitary on A
        loose.append((BlochParams(b.x, b.y, turn @ b.T), std))
        bases = rng.uniform((0.0, 0.0), (np.pi, 2.0 * np.pi), size=(2, 2))
        loose.append((b, [_laqc_plane(local_qubit_basis(*tp)) for tp in bases]))
    return attained, loose


def test_laqc_bound_is_set_only_where_it_is_attained():
    # The bound is set when y = 0 to within TIE_TOL and T^T maps A's plane
    # into B's: then it is every row's minimum. Bell-diagonal states in the
    # standard bases, also with an x, have that; states with a larger y, a T
    # turned out of the planes or random bases do not, and carry no bound.
    attained, loose = _attained_cases(seed=3)
    phis = _phi_grid(64)
    for bloch, planes in attained:
        rows = _laqc_table(bloch, planes, phis, phis)
        assert rows.bound.tobytes() == _holevo_bound(bloch, planes[0], phis).tobytes()
        least = rows(0, 64).min(axis=1)
        assert np.abs(least - rows.bound)[[0, 16, 32, 48]].max() < 1e-14
    for bloch, planes in loose:
        assert not hasattr(_laqc_table(bloch, planes, phis, phis), "bound")


def _laqc_search(bloch, planes, phis, bounded):
    """repr of the LAQC grid search with the Holevo bound set on every table, or on none."""

    def table(phi_a, phi_b):
        rows = _laqc_rows(bloch, *planes, False, phi_a, phi_b)
        if bounded:
            rows.bound = _holevo_bound(bloch, planes[0], phi_a)
        return rows

    return repr(_grid_search((phis, phis), (oracle._PHI_BOUNDS,) * 2, 1, table, refine=True))


@pytest.mark.parametrize("steps", [8, 13, 24, 40])
def test_bounded_laqc_search_equals_unbounded_search(steps):
    # The Holevo bound only skips work: a search with it, set on every
    # state, also where it is loose, equals the search without it, bit for
    # bit, on Bell-diagonal, y = 0 and full-rank states in any bases.
    attained, loose = _attained_cases(seed=steps)
    cases = attained[::3] + loose[::3]
    phis = _phi_grid(steps)
    assert [_laqc_search(b, p, phis, True) for b, p in cases] == [
        _laqc_search(b, p, phis, False) for b, p in cases
    ]


def test_reduced_entropy_rounds_to_one_inside_the_gate():
    # The bound subtracts 1 for S(rho_B) = h((1 + |y|) / 2): exact wherever the gate opens.
    y = np.concatenate((np.geomspace(1e-300, TIE_TOL, 4001), np.linspace(0.0, TIE_TOL, 4001)))
    lam = 0.5 * (1.0 + y)
    assert np.all(-xlog2(lam) - xlog2(1.0 - lam) == 1.0)


def test_laqc_bound_is_set_on_rounding_residue_in_y():
    # States y-free in exact arithmetic keep rounding residue in y once built
    # by bloch_compose: rho_A (x) I/2 mixed into a Bell-diagonal state. The
    # gate allows |y| up to TIE_TOL, where S(rho_B) rounds to 1, so the bound
    # is set on each, lies under every row and leaves the search as is.
    rng = np.random.default_rng(46)
    std, phis = [_laqc_plane(_STD)] * 2, _phi_grid(24)
    residue = []
    for _ in range(200):
        x, w = bloch_decompose(_full_rank(rng)).x, rng.uniform()
        c = np.diag(bloch_decompose(STATES[rng.integers(29)]).T)
        mixed = BlochParams(w * x, np.zeros(3), (1.0 - w) * np.diag(c))
        bloch = bloch_decompose(bloch_compose(mixed))
        if bloch.y.any():
            residue.append(bloch)
    assert len(residue) >= 50
    for bloch in residue:
        assert 0.0 < np.abs(bloch.y).max() <= TIE_TOL
        rows = _laqc_table(bloch, std, phis, phis)
        assert rows.bound.tobytes() == _holevo_bound(bloch, std[0], phis).tobytes()
        assert np.all(rows(0, phis.size).min(axis=1) >= rows.bound - _BOUND_SLACK)
    for bloch in residue[::4]:
        assert _laqc_search(bloch, std, phis, True) == _laqc_search(bloch, std, phis, False)


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


def _reference_dephased_entropy_rows(bloch, theta_a, phi_a, theta_b, phi_b, product):
    """The row evaluator with fresh arrays per run: the reference. ``product``
    forms the correlation term k of the rows from axes_a[lo:hi] and T b."""
    axes_a, axes_b = _bloch_axes(theta_a, phi_a), _bloch_axes(theta_b, phi_b)
    xa_all = axes_a @ bloch.x
    yb = axes_b @ bloch.y
    tb = bloch.T @ axes_b.T

    def rows(lo, hi):
        k = product(axes_a[lo:hi], tb)
        xa = xa_all[lo:hi, None]
        h = np.zeros((hi - lo, axes_b.shape[0]))
        for s in (1.0, -1.0):
            for t in (1.0, -1.0):
                p = 0.25 * (1.0 + s * xa + t * yb[None, :] + (s * t) * k)
                np.clip(p, 0.0, 1.0, out=p)
                h -= xlog2(p)
        return h

    return rows


ROW_LOCAL_PRODUCT = functools.partial(np.einsum, "ij,jk->ik")


@pytest.mark.parametrize(
    "thetas, phis",
    [
        (_theta_grid(16), _phi_grid(16)),
        (_theta_grid(17), _phi_grid(17)),  # a partial last block
        (_search_thetas(GridSpec()), _phi_grid(64)),  # every block a 64-step search scans
        (np.linspace(0.3, 0.4, _REFINE_POINTS), np.linspace(1.0, 1.2, _REFINE_POINTS)),
    ],
    ids=["16", "17", "64", "window"],
)
def test_dephased_entropy_chunks_bitwise_equal_to_reference(thetas, phis):
    # Reusing the buffers must not move a bit: every block of _CHUNK_ROWS
    # rows, and random runs inside it from a second evaluator, match the
    # fresh-array reference whose k comes from the same row-local product.
    # A k from one BLAS product per block, an independent route, rounds a
    # few ulps apart. Each single row, as the scan re-fetches it, carries
    # its block's bits.
    rng = np.random.default_rng(3)
    n_rows = thetas.size * phis.size
    for rho in STATES[:6] + STATES[-6:]:
        bloch = bloch_decompose(rho)
        grids = (thetas, phis, thetas, phis)
        rows, other = (_dephased_entropy_rows(bloch, *grids) for _ in range(2))
        reference = _reference_dephased_entropy_rows(bloch, *grids, ROW_LOCAL_PRODUCT)
        matmul_reference = _reference_dephased_entropy_rows(bloch, *grids, np.matmul)
        for lo in range(0, n_rows, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n_rows)
            block = rows(lo, hi)
            assert block.tobytes() == reference(lo, hi).tobytes(), (lo, hi)
            assert np.abs(block - matmul_reference(lo, hi)).max() <= 1e-14, (lo, hi)
            for row in range(lo, hi):
                assert rows(row, row + 1).tobytes() == block[row - lo].tobytes(), row
            for _ in range(2):
                a, b = sorted(rng.choice(hi - lo + 1, 2, replace=False) + lo)
                assert other(a, b).tobytes() == block[a - lo : b - lo].tobytes(), (a, b)


def _row_evaluators(bloch):
    """(name, evaluator, row count) of each oracle's row evaluator on grids
    of more than two blocks of _CHUNK_ROWS rows."""
    thetas, phis = _theta_grid(17), _phi_grid(17)
    comp = (QubitBasis.standard(), local_qubit_basis(0.9, 1.3))
    laqc_phis = np.linspace(0.0, 6.0, 300)
    return [
        ("dephased", _dephased_entropy_rows(bloch, thetas, phis, thetas, phis), 17 * 17),
        ("laqc", _laqc_table(bloch, [*map(_laqc_plane, comp)], laqc_phis, _phi_grid(17)), laqc_phis.size),
        ("discord", _conditional_entropy_rows(bloch, np.linspace(0.0, 3.0, 300), phis), 300),
    ]


def test_any_run_of_rows_equals_its_single_rows():
    # The scan fetches single rows, runs of up to _CHUNK_ROWS rows and whole
    # bound-less tables; each row must carry the same bits in all of them.
    # The dephased evaluator's buffers hold runs of up to _CHUNK_ROWS rows.
    rng = np.random.default_rng(5)
    for rho in STATES[:4] + STATES[-4:]:
        for name, rows, n_rows in _row_evaluators(bloch_decompose(rho)):
            single = np.concatenate([rows(i, i + 1) for i in range(n_rows)])
            crossing = [(c - 1, c + 1) for c in range(_CHUNK_ROWS, n_rows, _CHUNK_ROWS)]
            crossing += [(c - 60, c + 68) for c in range(_CHUNK_ROWS, n_rows - 68, _CHUNK_ROWS)]
            starts = rng.integers(0, n_rows - 1, size=8)
            ends = np.minimum(n_rows, starts + rng.integers(1, _CHUNK_ROWS + 1, size=8))
            runs = crossing + list(zip(starts, ends))
            for lo, hi in runs:
                assert rows(lo, hi).tobytes() == single[lo:hi].tobytes(), (name, lo, hi)


def _direct_bloch_axes(thetas, phis):
    tt, pp = np.repeat(thetas, phis.size), np.tile(phis, thetas.size)
    return np.column_stack((np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)))


@pytest.mark.parametrize(
    "thetas, phis",
    [(_search_thetas(GridSpec(n, n, n)), _phi_grid(n)) for n in (16, 17, 64, 65)]
    + [(np.linspace(0.3, 0.4, _REFINE_POINTS), np.linspace(1.0, 1.2, _REFINE_POINTS))],
    ids=["16", "17", "64", "65", "window"],
)
def test_bloch_axes_are_exact_shared_and_read_only(thetas, phis):
    axes = _bloch_axes(thetas, phis)
    assert axes.shape == (thetas.size * phis.size, 3)
    assert axes.tobytes() == _direct_bloch_axes(thetas, phis).tobytes()
    assert _bloch_axes(thetas.copy(), phis.copy()) is axes
    with pytest.raises(ValueError, match="read-only"):
        axes[0, 0] = 0.0


def test_bloch_axes_cache_stays_bounded(capsys):
    # Every verify builds new refinement windows; the coarse axes, scanned by
    # both sides of the relative-entropy search and by the discord search,
    # are found in the cache each time, as is the coarse conditional-entropy
    # table the discord search shares with the relative-entropy bound, and
    # neither cache ever outgrows its maxsize.
    caches = (oracle._bloch_axes, oracle._conditional_entropy_of)
    before = [cache.cache_info() for cache in caches]
    rng = np.random.default_rng(21)
    for c in rng.uniform(-1.0 / 3.0, 1.0 / 3.0, size=(30, 3)):  # sum |c_i| <= 1: physical
        assert main(["verify", "--bd=" + ",".join(map(repr, c.tolist()))]) in (0, 3)
    capsys.readouterr()
    after = [cache.cache_info() for cache in caches]
    for info in after:
        assert info.maxsize is not None and info.currsize <= info.maxsize
    assert after[0].hits - before[0].hits >= 2 * 30
    assert after[1].hits - before[1].hits >= 30


def _reference_conditional_entropy(bloch, axes):
    """The conditional entropy as a loop over the outcomes s: the reference."""
    xa = np.einsum("ij,j->i", axes, bloch.x)
    at = np.einsum("ij,jk->ik", axes, bloch.T)
    out = np.zeros(axes.shape[0])
    for s in (1.0, -1.0):
        p = 0.5 * (1.0 + s * xa)
        w = bloch.y[None, :] + s * at
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.linalg.norm(w, axis=1) / (1.0 + s * xa)
        lam = 0.5 * (1.0 + np.clip(np.where(p > 1e-14, r, 0.0), 0.0, 1.0))
        ent = -xlog2(lam) - xlog2(1.0 - lam)
        out += np.where(p > 1e-14, p * ent, 0.0)
    return out


def test_conditional_entropy_is_bitwise_the_loop_over_outcomes():
    # Stacking the two outcomes must not move a bit of the discord table,
    # for pure product states (outcomes never seen) and the zero axis too.
    axes = np.vstack(
        (_bloch_axes(_theta_grid(17), _phi_grid(16)), np.eye(3), -np.eye(3), np.zeros((1, 3)))
    )
    diagonals = ([1.0, 0, 0, 0], [0, 0, 0, 1.0], [0, 0.5, 0, 0.5])
    products = [np.diag(d).astype(complex) for d in diagonals]
    for rho in STATES + products:
        bloch = bloch_decompose(rho)
        assert _conditional_entropy(bloch, axes).tobytes() == (
            _reference_conditional_entropy(bloch, axes).tobytes()
        )


@pytest.mark.parametrize(
    "thetas, phis",
    [(_search_thetas(GridSpec(n, n, n)), _phi_grid(n)) for n in (16, 17, 64, 65)]
    + [(np.linspace(0.3, 0.4, _REFINE_POINTS), np.linspace(1.0, 1.2, _REFINE_POINTS))],
    ids=["16", "17", "64", "65", "window"],
)
def test_conditional_entropy_tables_are_exact_shared_and_read_only(thetas, phis):
    for rho in STATES[:3] + STATES[-3:]:
        bloch = bloch_decompose(rho)
        table = _conditional_entropy_of(bloch.x, bloch.y, bloch.T, thetas, phis)
        assert table.tobytes() == _conditional_entropy(bloch, _bloch_axes(thetas, phis)).tobytes()
        # The same state rebuilt from its matrix, and copies of the grids, hit the cache.
        copy = bloch_decompose(rho.copy())
        again = _conditional_entropy_of(copy.x, copy.y, copy.T, thetas.copy(), phis.copy())
        assert again is table
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
        rows = _conditional_entropy_rows(bloch, thetas, phis)
        assert rows(0, thetas.size).tobytes() == table.tobytes()


def test_verify_solves_the_coarse_conditional_entropy_table_once(monkeypatch, capsys):
    # The relative-entropy bound (side A) and the discord search read the
    # same 2048-axis table of the 64-step grid.
    oracle._conditional_entropy_of.cache_clear()
    sizes = []
    solve = oracle._conditional_entropy

    def counting(bloch, axes):
        sizes.append(axes.shape[0])
        return solve(bloch, axes)

    monkeypatch.setattr(oracle, "_conditional_entropy", counting)
    assert main(["verify", "--werner", "0.5"]) == 0
    capsys.readouterr()
    assert sizes.count(2048) == 1


def _one_run_cases(steps):
    """(label, grids, table) of the bound-less tables the searches build at ``steps``:
    the discord table and the LAQC table off the Holevo gate, in standard and random bases."""
    rng = np.random.default_rng(steps)
    thetas, phis = _search_thetas(GridSpec(steps, steps, steps)), _phi_grid(steps)
    random_planes = [_laqc_plane(local_qubit_basis(*rng.uniform((0.0, 0.0), (np.pi, 6.28)))) for _ in "ab"]
    for i, rho in enumerate(STATES[:3] + STATES[-3:]):
        bloch = bloch_decompose(rho)
        yield f"discord-{i}", (thetas, phis), functools.partial(_conditional_entropy_rows, bloch)
        for name, planes in (("std", [_laqc_plane(_STD)] * 2), ("random", random_planes)):
            yield f"laqc-{name}-{i}", (phis, phis), functools.partial(_laqc_rows, bloch, *planes, False)


@pytest.mark.parametrize("steps", [2, 3, 4, 7, 16, 17, 64, 65, 127, 128])
def test_bound_less_tables_are_scanned_in_one_run(steps):
    # No bound: _scan fetches rows(0, n) once and returns what the exhaustive
    # scan returns, bit for bit, with and without the early stop. No oracle's
    # bound-less table has more than _CHUNK_ROWS rows.
    for label, grids, table in _one_run_cases(steps):
        fetched = []

        def recorded(*args):
            rows = table(*args)
            assert not hasattr(rows, "bound"), label
            return lambda lo, hi: fetched.append((lo, hi)) or rows(lo, hi)

        exact = repr(_exhaustive_scan(grids, 1, table(*grids)))
        for stop_early in (False, True):
            fetched.clear()
            assert repr(_scan(grids, 1, recorded, stop_early=stop_early)) == exact, label
            assert fetched == [(0, grids[0].size)] and grids[0].size <= _CHUNK_ROWS, label


def test_refinement_windows_are_bitwise_linspace(monkeypatch):
    # Each window column comes from np.linspace's arithmetic: 3000 windows of
    # random grids, bounds and optima equal the 2-D linspace they replace.
    rng = np.random.default_rng(17)
    scans = []

    def spy(grids, n_row_angles, table, **options):
        scans.append((grids, _scan(grids, n_row_angles, table, **options)))
        return scans[-1][1]

    def table(*grids):
        values = rng.uniform(size=(grids[0].size, grids[1].size))
        return lambda lo, hi: values[lo:hi]

    monkeypatch.setattr(oracle, "_scan", spy)
    for _ in range(3000):
        sizes = rng.integers(2, 12, size=2)
        grids = tuple(np.sort(rng.uniform(-4.0, 4.0, n)) * rng.choice([1e-6, 1.0, 1e3]) for n in sizes)
        bounds = [(-np.inf, np.inf), (grids[1][0], grids[1][-1] + rng.uniform(0.0, 1e-3))]
        scans.clear()
        _grid_search(grids, bounds, 1, table, refine=True)
        (_, (best, _)), (window, _) = scans[:2]
        cell = np.array([g[1] - g[0] for g in grids])
        lower, upper = np.array(bounds).T
        expected = np.linspace(
            np.maximum(lower, best - cell), np.minimum(upper, best + cell), _REFINE_POINTS, axis=1
        )
        assert window.tobytes() == expected.tobytes()


def test_pruned_windows_build_no_outcome_table(monkeypatch, capsys):
    # A Bell-diagonal verify prunes its LAQC window by the Holevo bound: the
    # window's axes on A feed its bound, and B's 21 axes are never built.
    sizes = []
    build = oracle._plane_axes

    def spy(phis, plane):
        sizes.append(phis.size)
        return build(phis, plane)

    gates = []
    gate = oracle._holevo_gate
    monkeypatch.setattr(oracle, "_plane_axes", spy)
    monkeypatch.setattr(oracle, "_holevo_gate", lambda *a: gates.append(gate(*a)) or gates[-1])
    assert main(["verify", "--bd=0.7,-0.3,0.5"]) == 3
    capsys.readouterr()
    assert sizes == [64, 64, 21] and gates == [True]


def test_outcome_runs_stay_under_the_byte_cap(monkeypatch):
    # A 128-row run of a 128-step full-rank table (8192 columns) allocates its
    # row table, one capped buffer and the table's 0.7 MB of factors, not five
    # 8.4 MB layers; a smaller cap moves no bit.
    thetas, phis = _search_thetas(GridSpec(128, 128, 2)), _phi_grid(128)
    bloch = bloch_decompose(STATES[-1])
    rows = _dephased_entropy_rows(bloch, thetas, phis, thetas, phis)
    tracemalloc.start()
    try:
        table = rows(0, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + _RUN_BYTES + 1_000_000
    monkeypatch.setattr(oracle, "_RUN_BYTES", 3 * 8 * 5 * table.shape[1])  # three rows a run
    again = _dephased_entropy_rows(bloch, thetas, phis, thetas, phis)
    assert again(0, 128).tobytes() == table.tobytes()


VERIFY_64 = json.loads((DATA / "cli_verify_64.json").read_text())


@pytest.mark.parametrize("pinned", VERIFY_64, ids=[" ".join(c["argv"]) for c in VERIFY_64])
def test_verify_at_64_steps_is_byte_identical(pinned, capsys):
    code = main(pinned["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (pinned["exit"], pinned["stdout"], pinned["stderr"])
