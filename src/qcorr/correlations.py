"""Closed-form correlation quantifiers for 2-qubit states.

All quantifiers are in bits. The classical-correlations and locally
available quantum correlations (LAQC) quantifiers for a Bell-diagonal
triple (c1, c2, c3) share one algebraic shape,

    f(c) = (1+c)/2 log2(1+c) + (1-c)/2 log2(1-c),

evaluated at c_min = min{|c2|, |c3|} (classical) and
c_max = max{|c1|, |c2|} (LAQC). Quantum discord uses the Bell-diagonal
closed form: total mutual information minus f(max_i |c_i|). Concurrence
is the spin-flip eigenvalue construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import JointDistribution
from .qstate import (
    SIGMA_Y,
    BellDiagonalParams,
    as_bell_params,
    bell_diagonal_state,
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

_SYSY = np.kron(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True)
class CorrelationReport:
    """Bundle of every quantifier for one Bell-diagonal state."""

    classical: float
    laqc: float
    discord: float
    concurrence: float
    c_min: float
    c_max: float


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
    c = float(c)
    if not abs(c) <= 1.0 + 1e-12:  # also rejects NaN
        raise ValueError(f"correlation coefficient must lie in [-1, 1], got {c}")
    c = max(-1.0, min(1.0, c))
    return 0.5 * (xlog2(1.0 + c) + xlog2(1.0 - c))


def _selected(params) -> tuple[float, float]:
    p = as_bell_params(params)
    c_min = min(abs(p.c2), abs(p.c3))
    c_max = max(abs(p.c1), abs(p.c2))
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
    # I(rho) = sum_k (a_k / 4) log2 a_k over the four eigenvalue arguments
    # a_k = 4 lambda_k; exact closed form, no eigensolver.
    a = (
        1.0 - p.c1 - p.c2 - p.c3,
        1.0 - p.c1 + p.c2 + p.c3,
        1.0 + p.c1 - p.c2 + p.c3,
        1.0 + p.c1 + p.c2 - p.c3,
    )
    return 0.25 * sum(xlog2(v) for v in a)


def discord_bd(params) -> float:
    """Bell-diagonal quantum discord: I(rho) - f(c), c = max_i |c_i|."""
    p = as_bell_params(params).validate()
    c = max(abs(p.c1), abs(p.c2), abs(p.c3))
    d = _total_mutual_information_bd(p) - correlation_entropy_function(c)
    if -1e-12 < d < 0.0:
        return 0.0
    return d


def discord_werner(z: float) -> float:
    """Quantum discord of the Werner state, z in [0, 1].

    (1-z)/4 log2(1-z) - (1+z)/2 log2(1+z) + (1+3z)/4 log2(1+3z)
    """
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"werner parameter z must lie in [0, 1], got {z}")
    return 0.25 * xlog2(1.0 - z) - 0.5 * xlog2(1.0 + z) + 0.25 * xlog2(1.0 + 3.0 * z)


def concurrence(rho: np.ndarray) -> float:
    """Spin-flip concurrence max{0, l1 - l2 - l3 - l4}.

    The l_k are the decreasing square roots of the spectrum of
    rho (sy(x)sy) rho* (sy(x)sy), computed through the Hermitian
    equivalent sqrt(rho) rho~ sqrt(rho).
    """
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    flipped = _SYSY @ rho.conj() @ _SYSY
    spec = np.linalg.eigvalsh(sqrt_rho @ flipped @ sqrt_rho)
    lam = np.sqrt(np.maximum(spec, 0.0))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_werner(z: float) -> float:
    """max{0, (3z - 1)/2}; zero at and below the separability threshold z = 1/3."""
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"werner parameter z must lie in [0, 1], got {z}")
    return max(0.0, (3.0 * z - 1.0) / 2.0)


def _snap(v: float) -> float:
    return 0.0 if abs(v) < _ZERO_SNAP else v


def full_report(params) -> CorrelationReport:
    """Every quantifier of the Bell-diagonal state with the given triple."""
    p = as_bell_params(params).validate()
    c_min, c_max = _selected(p)
    return CorrelationReport(
        classical=_snap(classical_correlations_bd(p)),
        laqc=_snap(laqc_bd(p)),
        discord=_snap(discord_bd(p)),
        concurrence=_snap(concurrence(bell_diagonal_state(p))),
        c_min=c_min,
        c_max=c_max,
    )
