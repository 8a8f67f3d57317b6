"""Brute-force measurement-basis optimizers.

These re-derive the closed-form quantifiers by exhaustive grid search,
with no symmetry assumptions:

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
information. The product grid is streamed in row chunks in a single pass
that keeps each row's minimum, and only the chunk holding the first tied
row is evaluated again to locate the first tied column.

Every grid evaluator runs on the Bloch parametrization of projectors
(p = (1/4)[1 + s a.x + t b.y + st a.T.b]), which is exact for any state;
the two-sided outcome tables come from one kernel (:func:`_outcome_rows`).
The value finally reported is recomputed at the winning angles through
the explicit ket route, so the search path never fabricates the answer.
Oracles compare against closed forms but never overwrite them:
disagreement is surfaced as a recorded gap.
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
    complementary_qubit_basis,
    joint_projective_distribution,
    local_basis_pair,
    local_qubit_basis,
)
from .qstate import (
    BellDiagonalParams,
    BlochParams,
    as_bell_params,
    bell_diagonal_state,
    bloch_decompose,
    partial_trace,
    von_neumann_entropy,
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
_CHUNK_ROWS = 256
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


def _theta_grid(steps: int) -> np.ndarray:
    return np.linspace(0.0, math.pi, steps)


def _phi_grid(steps: int) -> np.ndarray:
    return np.linspace(0.0, _TWO_PI, steps, endpoint=False)


def _bloch_axes(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Bloch axes of all (theta, phi) pairs in lexicographic order."""
    tt = np.repeat(thetas, phis.size)
    pp = np.tile(phis, thetas.size)
    st = np.sin(tt)
    return np.column_stack((st * np.cos(pp), st * np.sin(pp), np.cos(tt)))


def _scan(grids, n_row_angles, table):
    """(first lexicographic grid point within TIE_TOL of the minimum, minimum).

    The table has a row per point of the product of grids[:n_row_angles]
    and a column per point of the product of the rest; ``table(*grids)``
    returns ``rows(lo, hi)``, the block of rows lo..hi. One pass over
    _CHUNK_ROWS-row chunks keeps each row's minimum. The first row within
    TIE_TOL of the global minimum holds the first tied entry, so only its
    chunk is evaluated again, with the same bounds, to find the column.
    """
    shape = tuple(g.size for g in grids)
    n_rows = math.prod(shape[:n_row_angles])
    rows = table(*grids)
    row_best = np.empty(n_rows)
    for lo in range(0, n_rows, _CHUNK_ROWS):
        last = rows(lo, min(lo + _CHUNK_ROWS, n_rows))
        row_best[lo : lo + last.shape[0]] = last.min(axis=1)
    value = row_best.min()
    row = int(np.argmax(row_best <= value + TIE_TOL))
    lo = row - row % _CHUNK_ROWS
    if lo + _CHUNK_ROWS < n_rows:
        last = rows(lo, lo + _CHUNK_ROWS)
    col = int(np.argmax(last[row - lo] <= value + TIE_TOL))
    idx = np.unravel_index(row * last.shape[1] + col, shape)
    return tuple(g[i] for g, i in zip(grids, idx)), value


def _grid_search(grids, bounds, n_row_angles, table, refine):
    """Arg-min of ``table`` (see :func:`_scan`) over the per-angle grids.

    Refinement rescans a +-1 coarse cell window per angle, clipped to the
    angle's (lower, upper) bounds, and adopts the refined point only on a
    real improvement, so coarse lexicographic tie-breaking survives float
    noise.
    """
    best, value = _scan(grids, n_row_angles, table)
    if refine:
        windows = tuple(
            np.linspace(
                max(lower, center - (g[1] - g[0])),
                min(upper, center + (g[1] - g[0])),
                _REFINE_POINTS,
            )
            for g, center, (lower, upper) in zip(grids, best, bounds)
        )
        refined, r_value = _scan(windows, n_row_angles, table)
        if r_value < value - TIE_TOL:
            best = refined
    return best


def _outcome_rows(bloch: BlochParams, axes_a: np.ndarray, axes_b: np.ndarray):
    """Outcome tables of local projective measurements along unit axes.

    Returns ``tables(lo, hi)``, which yields the clipped probabilities
    p(s, t) for rows axes_a[lo:hi] and every axis in axes_b, one table at
    a time in the outcome order (+,+), (+,-), (-,+), (-,-).
    """
    xa_all = axes_a @ bloch.x
    yb = axes_b @ bloch.y
    tb = bloch.T @ axes_b.T

    def tables(lo: int, hi: int):
        k = axes_a[lo:hi] @ tb
        xa = xa_all[lo:hi, None]
        for s in (1.0, -1.0):
            for t in (1.0, -1.0):
                p = 0.25 * (1.0 + s * xa + t * yb[None, :] + (s * t) * k)
                np.clip(p, 0.0, 1.0, out=p)
                yield p

    return tables


def _dephased_entropy_rows(bloch: BlochParams, theta_a, phi_a, theta_b, phi_b):
    """Row evaluator for the joint entropy of the dephased state.

    Rows are basis angles on A, columns on B. Minimizing
    S(rho || dephase(rho, basis)) is minimizing this entropy since the
    dephasing shares rho's diagonal, making the relative entropy
    S(dephased) - S(rho) with S(rho) fixed.
    """
    axes_b = _bloch_axes(theta_b, phi_b)
    tables = _outcome_rows(bloch, _bloch_axes(theta_a, phi_a), axes_b)

    def rows(lo: int, hi: int) -> np.ndarray:
        h = np.zeros((hi - lo, axes_b.shape[0]))
        for p in tables(lo, hi):
            h -= xlog2(p)
        return h

    return rows


def _result(rho, angles, objective, closed_form) -> OracleResult:
    """Pair the search outcome with closed_form(triple) if rho is Bell diagonal."""
    bloch = bloch_decompose(rho)
    if not bloch.is_bell_diagonal():
        return OracleResult(angles, objective, None, None)
    value = closed_form(bloch.diagonal_correlations())
    return OracleResult(angles, objective, value, objective - value)


def minimize_relative_entropy_basis(
    rho: np.ndarray, grid: GridSpec = GridSpec()
) -> OracleResult:
    """Exhaustive 4-angle search for the basis closest in relative entropy.

    The objective reported is the mutual information of the dephased state
    at the minimizing basis, which is the classical-correlations estimate
    the closed form f(c_min) is checked against.
    """
    rho = np.asarray(rho, dtype=complex)
    thetas = _theta_grid(grid.steps_theta)
    phis = _phi_grid(grid.steps_phi)
    best = _grid_search(
        (thetas, phis, thetas, phis),
        (_THETA_BOUNDS, _PHI_BOUNDS) * 2,
        2,
        functools.partial(_dephased_entropy_rows, bloch_decompose(rho)),
        refine=grid.refine,
    )
    angles = LocalBasisAngles(
        _clamp_theta(best[0]),
        _wrap_phase(best[1]),
        _clamp_theta(best[2]),
        _wrap_phase(best[3]),
    )
    mi = correlations.mutual_information(
        joint_projective_distribution(rho, *local_basis_pair(angles))
    )
    return _result(rho, angles, mi, correlations.classical_correlations_bd)


def _laqc_rows(bloch: BlochParams, comp_a, comp_b, phi_a, phi_b):
    """Row evaluator of minus the mutual information of every (phi_a, phi_b)
    complementary-basis pair over the computational bases comp_*."""

    def axes(phis, computational):
        # The Bloch axis of the complementary basis turns with phi in the
        # plane spanned by its axes at phi = 0 and pi/2.
        e1, e2 = (complementary_qubit_basis(p, computational).axis() for p in (0.0, math.pi / 2))
        return np.cos(phis)[:, None] * e1 + np.sin(phis)[:, None] * e2

    tables = _outcome_rows(bloch, axes(phi_a, comp_a), axes(phi_b, comp_b))

    def rows(lo: int, hi: int) -> np.ndarray:
        pp, pm, mp, mm = tables(lo, hi)
        marginals = xlog2(pp + pm) + xlog2(mp + mm) + xlog2(pp + mp) + xlog2(pm + mm)
        return marginals - (xlog2(pp) + xlog2(pm) + xlog2(mp) + xlog2(mm))

    return rows


def maximize_laqc(
    rho: np.ndarray,
    computational: tuple[QubitBasis, QubitBasis],
    grid: GridSpec = GridSpec(),
) -> OracleResult:
    """Search (phi_a, phi_b) independently for maximal complementary-basis
    mutual information over the supplied computational bases."""
    rho = np.asarray(rho, dtype=complex)
    comp_a, comp_b = computational
    phis = _phi_grid(grid.steps_comp_phi)
    best = _grid_search(
        (phis, phis),
        (_PHI_BOUNDS, _PHI_BOUNDS),
        1,
        functools.partial(_laqc_rows, bloch_decompose(rho), comp_a, comp_b),
        refine=grid.refine,
    )
    angles = ComplementaryAngles(_wrap_phase(best[0]), _wrap_phase(best[1]))
    objective = correlations.mutual_information(
        joint_projective_distribution(
            rho,
            complementary_qubit_basis(angles.phi_a, comp_a),
            complementary_qubit_basis(angles.phi_b, comp_b),
        )
    )
    return _result(rho, angles, objective, correlations.laqc_bd)


def _conditional_entropy_rows(bloch: BlochParams, thetas, phis):
    """Row evaluator of sum_s p_s S(rho_B | s) for measurement axes on A;
    rows are theta, columns phi."""
    axes = _bloch_axes(thetas, phis)

    def rows(lo: int, hi: int) -> np.ndarray:
        ax = axes[lo * phis.size : hi * phis.size]
        xa = ax @ bloch.x
        out = np.zeros(ax.shape[0])
        for s in (1.0, -1.0):
            p = 0.5 * (1.0 + s * xa)
            w = bloch.y[None, :] + s * (ax @ bloch.T)
            with np.errstate(invalid="ignore", divide="ignore"):
                r = np.linalg.norm(w, axis=1) / (1.0 + s * xa)
            # binary entropy of the conditional state's eigenvalues
            lam = 0.5 * (1.0 + np.clip(np.where(p > 1e-14, r, 0.0), 0.0, 1.0))
            ent = -xlog2(lam) - xlog2(1.0 - lam)
            out += np.where(p > 1e-14, p * ent, 0.0)
        return out.reshape(hi - lo, phis.size)

    return rows


def _measured_discord_at(rho: np.ndarray, theta: float, phi: float) -> float:
    """Discord objective at one measurement basis via explicit projectors."""
    rho_a = partial_trace(rho, "A")
    rho_b = partial_trace(rho, "B")
    total = (
        von_neumann_entropy(rho_a)
        + von_neumann_entropy(rho_b)
        - von_neumann_entropy(rho)
    )
    cond = 0.0
    for ket in local_qubit_basis(theta, phi).kets:
        proj = np.kron(np.outer(ket, ket.conj()), np.eye(2))
        weight = float(np.trace(proj @ rho).real)
        if weight > 1e-14:
            tau = partial_trace(proj @ rho @ proj, "B") / weight
            cond += weight * von_neumann_entropy(tau)
    return total - (von_neumann_entropy(rho_b) - cond)


def brute_force_discord(rho: np.ndarray, grid: GridSpec = GridSpec()) -> OracleResult:
    """Minimize I(rho) - [S(rho_B) - sum_i p_i S(rho_B|i)] over projective
    measurements on A parametrized by (theta_a, phi_a)."""
    rho = np.asarray(rho, dtype=complex)
    best = _grid_search(
        (_theta_grid(grid.steps_theta), _phi_grid(grid.steps_phi)),
        (_THETA_BOUNDS, _PHI_BOUNDS),
        1,
        functools.partial(_conditional_entropy_rows, bloch_decompose(rho)),
        refine=grid.refine,
    )
    angles = LocalBasisAngles(_clamp_theta(best[0]), _wrap_phase(best[1]), 0.0, 0.0)
    objective = _measured_discord_at(rho, angles.theta_a, angles.phi_a)
    return _result(rho, angles, objective, correlations.discord_bd)


def audit_closed_forms(params, grid: GridSpec = GridSpec()) -> ClosedFormAudit:
    """Run all three oracles on the Bell-diagonal state and record the gaps.

    The LAQC oracle is run over the standard computational basis, the frame
    in which the printed closed form is stated. Gaps are data, not errors:
    for asymmetric triples the exhaustive relative-entropy search is known
    to pick the largest-|c| axis while the closed form selects
    min{|c2|, |c3|}, and this audit exists to measure that.
    """
    p = as_bell_params(params).validate()
    rho = bell_diagonal_state(p)
    standard = (QubitBasis.standard(), QubitBasis.standard())
    return ClosedFormAudit(
        params=p,
        classical=minimize_relative_entropy_basis(rho, grid),
        laqc=maximize_laqc(rho, standard, grid),
        discord=brute_force_discord(rho, grid),
    )
