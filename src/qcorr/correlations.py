"""Closed-form correlation quantifiers for 2-qubit states.

All quantifiers are in bits. The classical-correlations and locally
available quantum correlations (LAQC) quantifiers for a Bell-diagonal
triple (c1, c2, c3) share one algebraic shape,

    f(c) = (1+c)/2 log2(1+c) + (1-c)/2 log2(1-c),

evaluated at c_min = min{|c2|, |c3|} (classical) and
c_max = max{|c1|, |c2|} (LAQC). Quantum discord uses the Bell-diagonal
closed form: total mutual information minus f(max_i |c_i|). Concurrence
is the spin-flip eigenvalue construction; full_report skips it only where
Wootters' C = max(0, 2 lambda_max - 1) (PRL 80, 2245 (1998)) certifies 0.

Given a triple whose fields are float arrays of one shape, the triple
quantifiers and :func:`full_report` return arrays of that shape, each
entry bitwise equal to the value for that triple alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import JointDistribution
from .qstate import (
    _CORRELATION_SLACK,
    BellDiagonalParams,
    _bell_diagonal_matrix,
    _check_unit,
    _readonly,
    as_bell_params,
    validate_density,
    xlog2,
)

__all__ = [
    "CorrelationReport",
    "mutual_information",
    "correlation_entropy_function",
    "classical_correlations_bd",
    "laqc_bd",
    "discord_bd",
    "discord_werner",
    "concurrence",
    "concurrence_werner",
    "full_report",
]

# Quantifiers this close to zero are reported as exact zeros.
_ZERO_SNAP = 1e-14
# full_report builds the 4x4 matrices for the concurrence from the checked
# triple this many triples at a time, so memory stays bounded on large grids.
_BLOCK_TRIPLES = 256
# 2 lambda_max - 1 < -_SEPARABLE_MARGIN certifies concurrence 0: over 100x the spin
# flip's largest measured distance from 2 lambda_max - 1 (1.7e-8, rank-deficient triples).
_SEPARABLE_MARGIN = 1e-5
# (sy(x)sy) M (sy(x)sy) = M[::-1, ::-1] * outer(s, s), s = (-1, 1, 1, -1): exact, one term each.
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class CorrelationReport:
    """Bundle of every quantifier for one Bell-diagonal state (or grid).
    Array fields are kept as read-only copies; scalar fields as given."""

    classical: float
    laqc: float
    discord: float
    concurrence: float
    c_min: float
    c_max: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                object.__setattr__(self, name, _readonly(value))


def mutual_information(d: JointDistribution) -> float:
    """I = sum_ij p(i,j) log2[p(i,j) / (pA(i) pB(j))] of a 2x2 outcome table."""
    h_joint = -xlog2(d.p).sum()
    h_a = -xlog2(d.marginal_a).sum()
    h_b = -xlog2(d.marginal_b).sum()
    mi = float(h_a + h_b - h_joint)
    if -1e-12 < mi < 0.0:
        return 0.0
    return mi


def correlation_entropy_function(c: float) -> float:
    """f(c) = (1+c)/2 log2(1+c) + (1-c)/2 log2(1-c); even, f(0)=0, f(+-1)=1."""
    c = np.asarray(c, dtype=float)
    bad = ~(np.abs(c) <= 1.0 + _CORRELATION_SLACK)  # also rejects NaN
    if bad.any():
        raise ValueError(f"correlation coefficient must lie in [-1, 1], got {c[bad][0]}")
    c = np.clip(c, -1.0, 1.0)
    return 0.5 * (xlog2(1.0 + c) + xlog2(1.0 - c))


def _selected(params) -> tuple[float, float]:
    p = as_bell_params(params)
    c_min = np.minimum(np.abs(p.c2), np.abs(p.c3))
    c_max = np.maximum(np.abs(p.c1), np.abs(p.c2))
    return c_min, c_max


def classical_correlations_bd(params) -> float:
    """f(c_min) with c_min = min{|c2|, |c3|}."""
    c_min, _ = _selected(params)
    return correlation_entropy_function(c_min)


def laqc_bd(params) -> float:
    """f(c_max) with c_max = max{|c1|, |c2|}."""
    _, c_max = _selected(params)
    return correlation_entropy_function(c_max)


def _total_mutual_information_bd(p: BellDiagonalParams) -> float:
    # I(rho) = sum_k (a_k / 4) log2 a_k with a_k = 4 lambda_k, exact since 4
    # undoes the eigenvalues' / 4; the pinned outputs sum psi-, phi-, phi+, psi+.
    a = 4.0 * p.bell_eigenvalues()
    return 0.25 * sum(xlog2(a[k]) for k in (3, 1, 0, 2))


def discord_bd(params) -> float:
    """Bell-diagonal quantum discord: I(rho) - f(c), c = max_i |c_i|."""
    p = as_bell_params(params)
    c = np.maximum(np.maximum(np.abs(p.c1), np.abs(p.c2)), np.abs(p.c3))
    d = _total_mutual_information_bd(p) - correlation_entropy_function(c)
    return np.where((-1e-12 < d) & (d < 0.0), 0.0, d)[()]


def discord_werner(z: float) -> float:
    """Quantum discord of the Werner state, z in [0, 1].

    (1-z)/4 log2(1-z) - (1+z)/2 log2(1+z) + (1+3z)/4 log2(1+3z)
    """
    z = float(_check_unit("werner parameter z", z))
    return 0.25 * xlog2(1.0 - z) - 0.5 * xlog2(1.0 + z) + 0.25 * xlog2(1.0 + 3.0 * z)


def concurrence(rho: np.ndarray) -> float:
    """Spin-flip concurrence max{0, l1 - l2 - l3 - l4}.

    The l_k are the decreasing square roots of the spectrum of
    rho (sy(x)sy) rho* (sy(x)sy), computed through the Hermitian
    equivalent sqrt(rho) rho~ sqrt(rho), with the spin flip rho~ taken as
    a signed permutation of rho*. A stack of states (shape (..., 4, 4)) gives
    an array of shape (...); any other shape raises ValueError, a non-physical
    state InvalidStateError.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs 4x4 two-qubit states, got shape {rho.shape}")
    return _concurrence(validate_density(rho))


def _concurrence(rho: np.ndarray) -> float:
    """:func:`concurrence` of 4x4 matrices, unchecked."""
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    flipped = rho.conj()[..., ::-1, ::-1] * _FLIP_SIGNS
    spec = np.linalg.eigvalsh(sqrt_rho @ flipped @ sqrt_rho)
    lam = np.sqrt(np.maximum(spec, 0.0))
    c = lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]
    return np.where(c > 0.0, c, 0.0)[()]


def concurrence_werner(z: float) -> float:
    """max{0, (3z - 1)/2}; zero at and below the separability threshold z = 1/3."""
    z = float(_check_unit("werner parameter z", z))
    return max(0.0, (3.0 * z - 1.0) / 2.0)


def _snap(v: float) -> float:
    return np.where(np.abs(v) < _ZERO_SNAP, 0.0, v)[()]


def _concurrence_bd(p: BellDiagonalParams) -> float:
    """Spin-flip concurrence per triple; 0.0, unsolved, past the _SEPARABLE_MARGIN certificate."""
    fields = [np.ravel(c) for c in p.as_tuple()]
    lam_max = p.bell_eigenvalues().reshape(4, -1).max(axis=0)
    live = np.flatnonzero(2.0 * lam_max - 1.0 >= -_SEPARABLE_MARGIN)
    out = np.zeros(fields[0].size)
    for lo in range(0, live.size, _BLOCK_TRIPLES):
        rows = live[lo : lo + _BLOCK_TRIPLES]
        out[rows] = _concurrence(_bell_diagonal_matrix(*(c[rows] for c in fields)))
    return out.reshape(np.shape(p.c1))[()]


def full_report(params) -> CorrelationReport:
    """Every quantifier of the Bell-diagonal state with the given triple(s)."""
    p = as_bell_params(params)
    c_min, c_max = _selected(p)
    return CorrelationReport(
        classical=_snap(correlation_entropy_function(c_min)),
        laqc=_snap(correlation_entropy_function(c_max)),
        discord=_snap(discord_bd(p)),
        concurrence=_snap(_concurrence_bd(p)),
        c_min=c_min,
        c_max=c_max,
    )
