"""Brute-force measurement-basis optimizers.

These re-derive the closed-form quantifiers by exhaustive grid search,
with no assumption about the state:

* classical correlations: minimize the relative entropy between the state
  and its dephasing over all four local basis angles, then report the
  mutual information of the optimal measurement;
* LAQC: maximize mutual information over the two complementary-basis
  angles, given an explicit computational basis per subsystem;
* discord: minimize over projective measurements on subsystem A.

Grid search (plus one local refinement pass at 10x resolution around the
incumbent) is used instead of gradient methods because the objectives
have flat, degenerate optima -- several distinct angle families attain
them -- where gradient methods stall; four angles at this dimension are
cheap to enumerate. Ties within 1e-10 of the optimum resolve to the
lexicographically smallest angle tuple, which prefers the standard
computational basis whenever it is optimal.

All three oracles share one search (:func:`_grid_search`), and every
search minimizes: the LAQC evaluator tabulates minus the mutual
information. The scan keeps each evaluated row's minimum. The
relative-entropy table bounds its rows from below, as a measured entropy
is never below the von Neumann entropy (Nielsen & Chuang, Thm 11.9):
measuring along a on A and any b on B gives at least LB(a) = h((1 +
a.x)/2) + sum_s p_s h((1 + |r_s|)/2), with p_s and r_s the probability
and B's Bloch vector after outcome s; that sum, the discord table, is
solved once per state and grid. The LAQC rows carry Holevo's bound (Thm
12.1), -I(A_a : B_b) >= sum_s p_s h((1 + |r_s|)/2) - S(rho_B), only where
every row attains it (:func:`_laqc_rows`). A table without a bound
(discord; LAQC off its gate) is evaluated in one run. With eps = 1e-12 of
slack under LB, U the smallest row minimum so far and L the smallest LB -
eps (an evaluated row counting its minimum), the minimum lies in [L, U]:

* skip: a row with LB - eps above U + TIE_TOL holds neither the minimum
  nor a tie. The scan evaluates its seed row, the first within TIE_TOL of
  the smallest LB, then in turn the first run of consecutive live rows
  (neither so ruled out nor evaluated yet) with the lowest LB, at most
  128 rows of it, each against U as the runs before it left it;
* early stop, tested after every run: take the first row not shown above
  U + TIE_TOL by its minimum or LB - eps. Once it is evaluated with a
  minimum at most L + TIE_TOL, its first entry at most U + TIE_TOL is the
  answer if that entry is at most L + TIE_TOL. Every entry before it lies
  above U + TIE_TOL, so the answer, like the whole scan's, does not depend
  on the order the rows were evaluated in;
* refinement is skipped when the window's smallest LB - eps is at least
  U - TIE_TOL, as it adopts a point only below the minimum - TIE_TOL.
  When a refined value lies too close to an early-stopped U to decide,
  the coarse grid is scanned again without the early stop.

The relative-entropy and discord searches scan only the first half of the
theta grid. Measuring along -a is the measurement along a with its
outcomes relabelled, so for every state the relative-entropy objective
has E(a, b) = E(-a, b) = E(a, -b), and the discord objective E(a) = E(-a).
On the grid, theta[n-1-i] = pi - theta[i] to an ulp, and with an even
steps_phi, phi[j + steps_phi/2] = phi[j] + pi to an ulp, so every grid
point has an antipodal image. The image with the smaller theta index
comes first lexicographically, so the first tie within TIE_TOL lies in
theta rows 0..(n-1)//2 on each side. An odd phi grid has no phi + pi, and
those searches then scan the whole theta grid (:func:`_search_thetas`).
The LAQC search scans its whole grid.

Every grid evaluator runs on the Bloch parametrization of projectors
(p = (1/4)[1 + s a.x + t b.y + st a.T.b]), exact for any state, through one
kernel (:func:`_outcome_rows`) that forms its tables only once a row is
fetched, and row by row, so a row has the same bits in any run. The value
reported is recomputed at the winning angles through the explicit ket
route, so the search never fabricates the answer; a disagreement with the
closed form is recorded as a gap, never overwritten. An audit's oracles
share one check and decomposition of its matrix (:func:`_checked`). Grids
are cached per process by size, the rest by content (:func:`_by_content`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import correlations
from .bases import (
    ComplementaryAngles,
    LocalBasisAngles,
    QubitBasis,
    _joint_distribution,
    complementary_qubit_basis,
    local_basis_pair,
    local_qubit_basis,
)
from .qstate import (
    BellDiagonalParams,
    BlochParams,
    _bloch_decompose,
    _by_content,
    _partial_trace,
    _readonly,
    _two_qubit,
    as_bell_params,
    bell_diagonal_state,
    validate_density,
    xlog2,
)

__all__ = [
    "GridSpec",
    "OracleResult",
    "ClosedFormAudit",
    "minimize_relative_entropy_basis",
    "maximize_laqc",
    "brute_force_discord",
    "audit_closed_forms",
]

TIE_TOL = 1e-10
_TWO_PI = 2.0 * math.pi
# Refinement window: +-1 coarse cell sampled at 10x resolution.
_REFINE_POINTS = 21
_CHUNK_ROWS = 128  # the most rows the pruned scan evaluates in one run
_RUN_BYTES = 4_000_000  # under numpy's 4 MiB huge-page threshold
# Slack under a row's entropy bound: rounding puts an entry at most a few
# 1e-15 below it, pure states included, and TIE_TOL is 100 times larger.
_BOUND_SLACK = 1e-12
# The relative-entropy search evaluates about steps**4 grid points.
_MAX_STEPS = 128
_THETA_BOUNDS = (0.0, math.pi)
_PHI_BOUNDS = (-math.inf, math.inf)


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution per angle; steps_comp_phi drives the LAQC search."""

    steps_theta: int = 64
    steps_phi: int = 64
    steps_comp_phi: int = 64
    refine: bool = True

    def __post_init__(self):
        for name in ("steps_theta", "steps_phi", "steps_comp_phi"):
            steps = getattr(self, name)
            if not isinstance(steps, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {steps!r}")
            if not 2 <= steps <= _MAX_STEPS:
                raise ValueError(f"{name} must lie in [2, {_MAX_STEPS}]")


@dataclass(frozen=True)
class OracleResult:
    """Search outcome next to the matching closed form (None off the
    Bell-diagonal family, where no closed form applies)."""

    best_angles: LocalBasisAngles | ComplementaryAngles
    objective: float
    closed_form: float | None
    gap: float | None


@dataclass(frozen=True)
class ClosedFormAudit:
    """All three oracles run against the printed closed forms. Records, never asserts."""

    params: BellDiagonalParams
    classical: OracleResult
    laqc: OracleResult
    discord: OracleResult

    def max_abs_gap(self) -> float:
        return max(abs(r.gap) for r in (self.classical, self.laqc, self.discord))


def _wrap_phase(phi: float) -> float:
    """Map into [0, 2*pi); guards the float edge where x % 2pi rounds to 2pi."""
    phi = float(phi) % _TWO_PI
    return 0.0 if phi >= _TWO_PI else phi


def _clamp_theta(theta: float) -> float:
    return min(max(float(theta), 0.0), math.pi)


@functools.lru_cache(maxsize=16)
def _theta_grid(steps: int) -> np.ndarray:
    return _readonly(np.linspace(0.0, math.pi, steps))


@functools.lru_cache(maxsize=16)
def _phi_grid(steps: int) -> np.ndarray:
    return _readonly(np.linspace(0.0, _TWO_PI, steps, endpoint=False))


def _search_thetas(grid: GridSpec) -> np.ndarray:
    """The theta rows a search scans: the first half of the theta grid, and
    the whole grid when steps_phi is odd (see the module docstring).

    At least two rows stay, because refinement takes its cell width from
    the first two grid points.
    """
    thetas = _theta_grid(grid.steps_theta)
    if grid.steps_phi % 2:
        return thetas
    return thetas[: max(2, (grid.steps_theta + 1) // 2)]


@_by_content(maxsize=8)
def _bloch_axes(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Bloch axes of all (theta, phi) pairs in lexicographic order, read-only and cached:
    both sides of the relative-entropy search and the discord search scan the same axes."""
    tt = np.repeat(thetas, phis.size)
    pp = np.tile(phis, thetas.size)
    st = np.sin(tt)
    return _readonly(np.column_stack((st * np.cos(pp), st * np.sin(pp), np.cos(tt))))


def _scan(grids, n_row_angles, table, below=math.inf, stop_early=False):
    """(first lexicographic grid point within TIE_TOL of the minimum, minimum).

    The table has a row per point of the product of grids[:n_row_angles]
    and a column per point of the product of the rest. ``table(*grids)``
    returns ``rows(lo, hi)``: rows lo..hi, each with the bits it has in
    any run, and ``rows.bound``, if set, a lower bound on each row's
    entries. Returns None, evaluating nothing, when the bound puts every
    entry at or above ``below``. Only with ``stop_early`` may the value
    returned, the smallest entry evaluated, sit above the minimum (by up
    to TIE_TOL). The seed row and then the runs of live rows are evaluated
    in turn on the calling thread (see the module docstring).
    """
    shape = tuple(g.size for g in grids)
    rows = table(*grids)
    if not hasattr(rows, "bound"):
        block = rows(0, math.prod(shape[:n_row_angles]))
        idx = np.unravel_index(int((block <= block.min() + TIE_TOL).argmax()), shape)
        return tuple(g[i] for g, i in zip(grids, idx)), block.min()
    # A lower bound on each row's minimum, replaced by the minimum once evaluated.
    floor = rows.bound - _BOUND_SLACK
    if floor.min() >= below:
        return None
    evaluated = np.zeros(floor.size, dtype=bool)
    value, at, kept = math.inf, 0, ()  # U, and the first row and the rows of the run holding it

    def first_tie(low, high):
        """The first entry within TIE_TOL of every value in [low, high], where
        the minimum lies, or None when the evaluated rows cannot tell."""
        row = int((floor <= high + TIE_TOL).argmax())
        if not evaluated[row] or floor[row] > low + TIE_TOL:
            return None
        line = kept[row - at] if at <= row < at + len(kept) else rows(row, row + 1)[0]
        col = int((line <= high + TIE_TOL).argmax())
        if line[col] > low + TIE_TOL:
            return None
        idx = np.unravel_index(row * line.size + col, shape)
        return tuple(g[i] for g, i in zip(grids, idx))

    lo = int((floor <= floor.min() + TIE_TOL).argmax())  # the seed row
    hi = lo + 1
    while True:
        block = rows(lo, hi)
        minima = floor[lo:hi] = block.min(axis=1)
        evaluated[lo:hi] = True
        if minima.min() < value:
            value, at, kept = minima.min(), lo, block
        if stop_early and (best := first_tie(floor.min(), value)):
            return best, value
        live = (~evaluated & (floor <= value + TIE_TOL)).nonzero()[0]
        if not live.size:
            return first_tie(value, value), value
        # Of the runs of consecutive live rows, the first with the lowest bound, capped.
        starts = np.concatenate(([0], (np.diff(live) != 1).nonzero()[0] + 1, [live.size]))
        run = int(np.minimum.reduceat(floor[live], starts[:-1]).argmin())
        lo = live[starts[run]]
        hi = min(live[starts[run + 1] - 1] + 1, lo + _CHUNK_ROWS)


def _grid_search(grids, bounds, n_row_angles, table, refine):
    """Arg-min of ``table`` (see :func:`_scan`) over the per-angle grids.

    Refinement rescans a +-1 coarse cell window per angle, clipped to the
    angle's (lower, upper) bounds, and adopts the refined point only on a
    real improvement, so coarse lexicographic tie-breaking survives float
    noise; the module docstring sets out when the window is skipped.
    """
    best, value = _scan(grids, n_row_angles, table, stop_early=True)
    if refine:
        # A column per angle, in np.linspace's arithmetic: bitwise its linspace, as none is empty.
        cell = np.array([g[1] - g[0] for g in grids])
        lower, upper = np.array(bounds).T
        lo, hi = np.maximum(lower, best - cell), np.minimum(upper, best + cell)
        windows = np.arange(_REFINE_POINTS)[:, None] * ((hi - lo) / (_REFINE_POINTS - 1)) + lo
        windows[-1] = hi
        found = _scan(windows.T, n_row_angles, table, below=value - TIE_TOL)
        if found is not None and found[1] < value - TIE_TOL:
            if found[1] >= value - 2 * TIE_TOL:
                # The early-stopped value may sit up to TIE_TOL above the minimum.
                value = _scan(grids, n_row_angles, table)[1]
            if found[1] < value - TIE_TOL:
                best = found[0]
    return best


def _outcome_rows(bloch: BlochParams, axes_a: np.ndarray, axes_b, depth: int, reduce):
    """Row evaluator on the outcome tables of local projective measurements
    along unit axes, axes_a on A by row and axes_b() on B by column, all but
    axes_a formed on the first call. ``rows(lo, hi)`` zeroes a (hi - lo, n_b)
    table, which ``reduce(t, out)`` fills run by run from t, (depth, run, n_b)
    under _RUN_BYTES. Its first four layers are the clipped p(s, t) of the run's
    rows in outcome order (+,+), (+,-), (-,+), (-,-), each bitwise 0.25 * (1 +
    s xa + t yb + (s t) k) left to right, k formed row by row, so a row has the
    same bits in any run; the rest, k's layer last, is scratch.
    """
    made = []  # 1 + s xa per row and t yb per column, for s, t in outcome order; T b; a buffer

    def rows(lo: int, hi: int) -> np.ndarray:
        if not made:
            b, s = axes_b(), np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
            t_yb = s[[0, 2, 1, 3]] * (b @ bloch.y)  # t is +1, -1, +1, -1
            made[:] = 1.0 + s * (axes_a @ bloch.x)[:, None], t_yb, bloch.T @ b.T, np.empty(0)
        one_sxa, t_yb, tb, buf = made
        out = np.zeros((hi - lo, tb.shape[1]))
        run = max(1, _RUN_BYTES // (8 * depth * tb.shape[1]))
        for a in range(lo, hi, run):
            z = min(a + run, hi)
            if buf.size < depth * (z - a) * tb.shape[1]:
                buf = made[3] = np.empty(depth * (z - a) * tb.shape[1])
            t = buf[: depth * (z - a) * tb.shape[1]].reshape(depth, z - a, tb.shape[1])
            # einsum sums each entry's three products in order; a BLAS product's
            # rounding may change with its row count.
            k = np.einsum("ij,jk->ik", axes_a[a:z], tb, out=t[-1])
            p = t[:4]
            np.add(one_sxa[:, a:z], t_yb, out=p)
            # (s t) k is +k for (+,+) and (-,-), else -k, and adding -k is subtracting k.
            np.add(p[::3], k, out=p[::3])
            np.subtract(p[1:3], k, out=p[1:3])
            np.multiply(p, 0.25, out=p)
            np.minimum(np.maximum(p, 0.0, out=p), 1.0, out=p)
            reduce(t, out[a - lo : z - lo])
        return out

    return rows


def _plogp(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """xlog2 of p >= 0 into out, but -0.0 where p = 0: the rows' subtractions absorb it."""
    return np.multiply(p, np.log2(np.maximum(p, 5e-324, out=out), out=out), out=out)


def _dephased_entropy_rows(bloch: BlochParams, theta_a, phi_a, theta_b, phi_b):
    """Row evaluator for the joint entropy of the dephased state.

    Rows are basis angles on A, columns on B. Minimizing
    S(rho || dephase(rho, basis)) is minimizing this entropy since the
    dephasing shares rho's diagonal, making the relative entropy
    S(dephased) - S(rho) with S(rho) fixed. Any run of rows is bitwise 0
    less xlog2 of each outcome table in turn, each xlog2 into one scratch layer.
    ``rows.bound`` holds each row's entropy lower bound.
    """

    def minus_entropy(t: np.ndarray, h: np.ndarray) -> None:
        for p in t[:4]:
            h -= _plogp(p, t[4])

    axes_a = _bloch_axes(theta_a, phi_a)
    rows = _outcome_rows(bloch, axes_a, lambda: _bloch_axes(theta_b, phi_b), 5, minus_entropy)
    # H(A, B) = H(A) + sum_s p_s H(B | s), and no measurement on B has a
    # smaller entropy than the conditional state's von Neumann entropy.
    p_a = np.minimum(np.maximum(0.5 * (1.0 + axes_a @ bloch.x), 0.0), 1.0)
    h_cond = _conditional_entropy_of(bloch.x, bloch.y, bloch.T, theta_a, phi_a)
    rows.bound = h_cond - xlog2(p_a) - xlog2(1.0 - p_a)
    return rows


def _checked(rho) -> tuple[np.ndarray, BlochParams, BellDiagonalParams | None]:
    """(rho validated and read-only, its Bloch parameters, its triple or None off the
    Bell-diagonal family), keyed by content: a matrix changed since is checked again."""
    return _checked_of(_two_qubit(rho))


@_by_content(maxsize=1)
def _checked_of(rho):
    rho = validate_density(rho)
    bloch = _bloch_decompose(rho)
    return rho, bloch, bloch.diagonal_correlations() if bloch.is_bell_diagonal() else None


def _result(triple, angles, objective, closed_form) -> OracleResult:
    """Pair the search outcome with closed_form(triple), if there is a triple."""
    if triple is None:
        return OracleResult(angles, objective, None, None)
    value = closed_form(triple)
    return OracleResult(angles, objective, value, objective - value)


def minimize_relative_entropy_basis(
    rho: np.ndarray, grid: GridSpec = GridSpec()
) -> OracleResult:
    """Exhaustive 4-angle search for the basis closest in relative entropy.

    The objective reported is the mutual information of the dephased state
    at the minimizing basis, which is the classical-correlations estimate
    the closed form f(c_min) is checked against.
    """
    rho, bloch, triple = _checked(rho)
    thetas = _search_thetas(grid)
    phis = _phi_grid(grid.steps_phi)
    best = _grid_search(
        (thetas, phis, thetas, phis),
        (_THETA_BOUNDS, _PHI_BOUNDS) * 2,
        2,
        functools.partial(_dephased_entropy_rows, bloch),
        refine=grid.refine,
    )
    angles = LocalBasisAngles(
        _clamp_theta(best[0]),
        _wrap_phase(best[1]),
        _clamp_theta(best[2]),
        _wrap_phase(best[3]),
    )
    mi = correlations.mutual_information(_joint_distribution(rho, *local_basis_pair(angles)))
    return _result(triple, angles, mi, correlations.classical_correlations_bd)


def _laqc_plane(computational: QubitBasis) -> np.ndarray:
    """(e1, e2), read-only and cached by the kets: the complementary basis' Bloch
    axes at phi = 0 and pi/2, which span the plane its axis turns in as phi moves."""
    return _laqc_plane_of(*computational.kets)


@_by_content(maxsize=8)
def _laqc_plane_of(ket0: np.ndarray, ket1: np.ndarray) -> np.ndarray:
    basis = QubitBasis(ket0, ket1)
    axes = [complementary_qubit_basis(p, basis).axis() for p in (0.0, math.pi / 2)]
    return _readonly(axes)


@_by_content(maxsize=8)
def _plane_axes(phis: np.ndarray, plane: np.ndarray) -> np.ndarray:
    """cos(phi) e1 + sin(phi) e2 for each phi in the plane (e1, e2), read-only and cached."""
    return _readonly(np.cos(phis)[:, None] * plane[0] + np.sin(phis)[:, None] * plane[1])


def _holevo_gate(bloch: BlochParams, plane_a, plane_b) -> bool:
    """Whether every LAQC row attains Holevo's bound: I(A_a : B_b) <= S(rho_B) -
    sum_s p_s S(rho_B | s) for every b, and S(rho_B) = h((1 + |y|) / 2) rounds to 1 for
    |y| <= TIE_TOL. Then rho_B|s lie along +-T^T a, and measuring B along T^T a attains
    it, on every row if T^T maps A's plane into B's (Bell-diagonal states in the
    standard bases). Elsewhere the bound costs more than it skips."""
    (a0, a1, a2), (b0, b1, b2) = plane_b.tolist()
    leak = plane_a @ bloch.T @ (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    return bool(np.abs(bloch.y).max() <= TIE_TOL and np.abs(leak).max() <= TIE_TOL)


def _laqc_rows(bloch: BlochParams, plane_a, plane_b, gated: bool, phi_a, phi_b):
    """Row evaluator of minus the mutual information of every (phi_a, phi_b)
    complementary-basis pair, the axes turning in the planes (e1, e2) of
    :func:`_laqc_plane`. With ``gated``, :func:`_holevo_gate` of the planes,
    ``rows.bound`` holds each row's Holevo bound."""

    def minus_mutual_information(t: np.ndarray, out: np.ndarray) -> None:
        # The marginals pp + pm, mp + mm, pp + mp, pm + mm after the joint tables.
        np.add(t[0:4:2], t[1:4:2], out=t[4:6])
        np.add(t[0:2], t[2:4], out=t[6:8])
        e = _plogp(t[:8], t[8:])
        np.subtract(e[4:].sum(axis=0), e[:4].sum(axis=0), out=out)  # each adds its layers in order

    axes_a = _plane_axes(phi_a, plane_a)
    axes_b = functools.partial(_plane_axes, phi_b, plane_b)
    rows = _outcome_rows(bloch, axes_a, axes_b, 16, minus_mutual_information)
    if gated:
        rows.bound = _conditional_entropy(bloch, axes_a) - 1.0
    return rows


def maximize_laqc(
    rho: np.ndarray,
    computational: tuple[QubitBasis, QubitBasis],
    grid: GridSpec = GridSpec(),
) -> OracleResult:
    """Search (phi_a, phi_b) independently for maximal complementary-basis
    mutual information over the supplied computational bases."""
    pair = computational if isinstance(computational, (tuple, list)) else ()
    if len(pair) != 2 or not all(isinstance(b, QubitBasis) for b in pair):
        raise ValueError(f"computational must be a pair of QubitBasis, got {computational!r}")
    rho, bloch, triple = _checked(rho)
    comp_a, comp_b = computational
    phis = _phi_grid(grid.steps_comp_phi)
    planes = _laqc_plane(comp_a), _laqc_plane(comp_b)
    best = _grid_search(
        (phis, phis),
        (_PHI_BOUNDS, _PHI_BOUNDS),
        1,
        functools.partial(_laqc_rows, bloch, *planes, _holevo_gate(bloch, *planes)),
        refine=grid.refine,
    )
    angles = ComplementaryAngles(_wrap_phase(best[0]), _wrap_phase(best[1]))
    objective = correlations.mutual_information(
        _joint_distribution(
            rho,
            complementary_qubit_basis(angles.phi_a, comp_a),
            complementary_qubit_basis(angles.phi_b, comp_b),
        )
    )
    return _result(triple, angles, objective, correlations.laqc_bd)


def _conditional_entropy(bloch: BlochParams, axes: np.ndarray) -> np.ndarray:
    """sum_s p_s S(rho_B | s) for a measurement on A along each unit axis."""
    # Rows s = +1, -1 of 1 + s a.x and of (1 + s a.x) r_s = y + s a.T by component, adding
    # -v as subtracting v; at is einsum("ij,jk->ki", axes, T) to the bit, 4x faster.
    xa = np.einsum("ij,j->i", axes, bloch.x)
    one_sxa = np.stack((1.0 + xa, 1.0 - xa))
    p = 0.5 * one_sxa
    seen = p > 1e-14
    at = np.einsum("ji,jk->ki", np.ascontiguousarray(axes.T), bloch.T)
    sq = np.square(np.stack((bloch.y[:, None] + at, bloch.y[:, None] - at), axis=1))
    r = np.divide(np.sqrt(sq[0] + sq[1] + sq[2]), one_sxa, out=np.zeros(p.shape), where=seen)
    lam = 0.5 * (1.0 + np.minimum(r, 1.0))
    plogp = _plogp(np.stack((lam, 1.0 - lam)), sq[:2])  # 0.0 + term[0] absorbs a -0.0
    term = np.multiply(p, -plogp[0] - plogp[1], out=np.zeros(p.shape), where=seen)
    return 0.0 + term[0] + term[1]


@_by_content(maxsize=8)
def _conditional_entropy_of(x, y, T, thetas, phis) -> np.ndarray:
    """:func:`_conditional_entropy` of Bloch parameters (x, y, T) along :func:`_bloch_axes`,
    read-only and cached: the relative-entropy bound and discord share it."""
    return _readonly(_conditional_entropy(BlochParams(x, y, T), _bloch_axes(thetas, phis)))


def _conditional_entropy_rows(bloch: BlochParams, thetas, phis):
    """Row evaluator of :func:`_conditional_entropy`; rows are theta, columns phi."""
    table = _conditional_entropy_of(bloch.x, bloch.y, bloch.T, thetas, phis)
    table = table.reshape(thetas.size, phis.size)
    return lambda lo, hi: table[lo:hi]


def _entropy(rho: np.ndarray) -> np.ndarray:
    # von_neumann_entropy without its spectrum check, for states derived from
    # a validated rho: a partial trace adds two blocks' rounding below 0, and
    # dividing by an outcome weight scales it, past -PSD_TOL. A stack is solved
    # in one call, each matrix to the bits of its own call.
    return -xlog2(np.linalg.eigvalsh(np.asarray(rho, dtype=complex))).sum(axis=-1)


def _projector_on_a(kets: np.ndarray) -> np.ndarray:
    """|ket><ket| (x) I per ket: np.kron's own broadcast product, so its bits, signed zeros too."""
    outer = kets[..., :, None] * kets.conj()[..., None, :]
    return (outer[..., :, None, :, None] * np.eye(2)[:, None, :]).reshape(kets.shape[:-1] + (4, 4))


def _measured_discord_at(rho: np.ndarray, theta: float, phi: float) -> float:
    """Discord objective at one measurement basis via explicit projectors,
    from two eigensolves: the stack [rho_B, rho_A, tau_s of each outcome seen] and rho."""
    proj = _projector_on_a(np.array(local_qubit_basis(theta, phi).kets))
    weights = np.trace(proj @ rho, axis1=1, axis2=2).real
    seen = weights > 1e-14
    taus = np.einsum("sabad->sbd", (proj[seen] @ rho @ proj[seen]).reshape(-1, 2, 2, 2, 2))
    taus /= weights[seen, None, None]
    reduced = [_partial_trace(rho, "B")[None], _partial_trace(rho, "A")[None], taus]
    s_b, s_a, *s_tau = _entropy(np.concatenate(reduced)).tolist()
    total = s_a + s_b - float(_entropy(rho))  # S(rho_B) cancels, but dropping it moves bits
    cond = 0.0
    for weight, s in zip(weights[seen].tolist(), s_tau):
        cond += weight * s
    return total - (s_b - cond)


def brute_force_discord(rho: np.ndarray, grid: GridSpec = GridSpec()) -> OracleResult:
    """Minimize I(rho) - [S(rho_B) - sum_i p_i S(rho_B|i)] over projective
    measurements on A parametrized by (theta_a, phi_a)."""
    rho, bloch, triple = _checked(rho)
    best = _grid_search(
        (_search_thetas(grid), _phi_grid(grid.steps_phi)),
        (_THETA_BOUNDS, _PHI_BOUNDS),
        1,
        functools.partial(_conditional_entropy_rows, bloch),
        refine=grid.refine,
    )
    angles = LocalBasisAngles(_clamp_theta(best[0]), _wrap_phase(best[1]), 0.0, 0.0)
    objective = _measured_discord_at(rho, angles.theta_a, angles.phi_a)
    return _result(triple, angles, objective, correlations.discord_bd)


def audit_closed_forms(params, grid: GridSpec = GridSpec()) -> ClosedFormAudit:
    """Run all three oracles on the Bell-diagonal state and record the gaps.

    The LAQC oracle is run over the standard computational basis, the frame
    in which the printed closed form is stated. Gaps are data, not errors:
    for asymmetric triples the exhaustive relative-entropy search is known
    to pick the largest-|c| axis while the closed form selects
    min{|c2|, |c3|}, and this audit exists to measure that.
    """
    p = as_bell_params(params)
    rho = bell_diagonal_state(p)
    standard = (QubitBasis.standard(), QubitBasis.standard())
    return ClosedFormAudit(
        params=p,
        classical=minimize_relative_entropy_basis(rho, grid),
        laqc=maximize_laqc(rho, standard, grid),
        discord=brute_force_discord(rho, grid),
    )
