"""Markovian decoherence channels applied identically to both qubits.

Two Kraus sets are provided. Depolarizing with strength gamma,

    E0 = sqrt(1 - 3 gamma/4) I,  E_k = (sqrt(gamma)/2) sigma_k  (k = x, y, z),

which contracts the single-qubit Bloch sphere by (1 - gamma), and phase
damping,

    E0 = diag(1, sqrt(1 - gamma)),  E1 = diag(0, sqrt(gamma)),

which suppresses coherences without energy exchange. Both subsystems
always see the same channel and the same gamma:

    rho -> sum_{i,j} (E_i (x) E_j) rho (E_i (x) E_j)^dagger

On Werner input the induced correlation-triple maps have closed forms
(z -> z(1-gamma)^2 for depolarizing; (c1, c2) -> (1-gamma) z with c3 = z
fixed for phase damping). Those maps are the primary computation path;
the explicit Kraus route exists to verify them. They take z as a scalar
or an array (triple fields of z's shape). gamma itself is the
dissipation coordinate; no time parametrization is imposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .correlations import CorrelationReport, full_report
from .qstate import PAULIS, BellDiagonalParams, _check_unit, validate_density

__all__ = [
    "KrausChannel",
    "TrajectoryPoint",
    "depolarizing_kraus",
    "phase_damping_kraus",
    "apply_product_channel",
    "depolarized_werner_params",
    "phase_damped_werner_params",
    "correlation_trajectory",
]

COMPLETENESS_TOL = 1e-12

DEPOLARIZING = "depolarizing"
PHASE_DAMPING = "phase_damping"
CHANNEL_KINDS = (DEPOLARIZING, PHASE_DAMPING)


def _check_gamma(gamma: float) -> float:
    return float(_check_unit("interaction parameter gamma", gamma))


@dataclass(frozen=True)
class KrausChannel:
    """A single-qubit channel as a finite list of 2x2 Kraus operators."""

    operators: tuple[np.ndarray, ...]
    gamma: float
    kind: str

    def __post_init__(self):
        ops = []
        for op in self.operators:
            arr = np.asarray(op, dtype=complex)
            if arr.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got {arr.shape}")
            arr.flags.writeable = False
            ops.append(arr)
        object.__setattr__(self, "operators", tuple(ops))
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        defect = self.completeness_defect()
        if defect > COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated by {defect:.3e}")

    def completeness_defect(self) -> float:
        """Largest entry of |sum_k E_k^dagger E_k - I|."""
        acc = sum(op.conj().T @ op for op in self.operators)
        return float(np.abs(acc - np.eye(2)).max())


@dataclass(frozen=True)
class TrajectoryPoint:
    """One channel-strength sample: post-channel triple and its quantifiers."""

    gamma: float
    params: BellDiagonalParams
    report: CorrelationReport


def depolarizing_kraus(gamma: float) -> KrausChannel:
    """Depolarizing channel of strength gamma in [0, 1]."""
    gamma = _check_gamma(gamma)
    ops = [math.sqrt(1.0 - 0.75 * gamma) * np.eye(2, dtype=complex)]
    ops += [0.5 * math.sqrt(gamma) * s for s in PAULIS]
    return KrausChannel(tuple(ops), gamma, DEPOLARIZING)


def phase_damping_kraus(gamma: float) -> KrausChannel:
    """Phase damping channel of strength gamma in [0, 1]."""
    gamma = _check_gamma(gamma)
    e0 = np.diag([1.0, math.sqrt(1.0 - gamma)]).astype(complex)
    e1 = np.diag([0.0, math.sqrt(gamma)]).astype(complex)
    return KrausChannel((e0, e1), gamma, PHASE_DAMPING)


def apply_product_channel(rho: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """sum_{i,j} (E_i (x) E_j) rho (E_i (x) E_j)^dagger, validated."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for ei in ch.operators:
        for ej in ch.operators:
            k = np.kron(ei, ej)
            out += k @ rho @ k.conj().T
    return validate_density(out)


def depolarized_werner_params(z: float, gamma: float) -> BellDiagonalParams:
    """Closed-form triple of a Werner state after two-sided depolarizing."""
    # A Python-float gamma keeps (1 - gamma) ** 2 on libm pow; numpy's array
    # power computes x * x, which rounds differently, so grids map per gamma.
    gamma = _check_gamma(gamma)
    zp = _check_unit("werner parameter z", z) * (1.0 - gamma) ** 2
    return BellDiagonalParams(zp, -zp, zp)


def phase_damped_werner_params(z: float, gamma: float) -> BellDiagonalParams:
    """Closed-form triple of a Werner state after two-sided phase damping."""
    gamma = _check_gamma(gamma)
    z = _check_unit("werner parameter z", z)
    zp = (1.0 - gamma) * z
    return BellDiagonalParams(zp, -zp, z)


_PARAM_MAPS = {
    DEPOLARIZING: depolarized_werner_params,
    PHASE_DAMPING: phase_damped_werner_params,
}


def correlation_trajectory(
    z: float, gammas: Iterable[float] | Sequence[float], kind: str
) -> list[TrajectoryPoint]:
    """Quantifier trajectory of a Werner state along a channel-strength grid."""
    if kind not in _PARAM_MAPS:
        raise ValueError(f"channel kind must be one of {CHANNEL_KINDS}, got {kind!r}")
    gammas = [float(gamma) for gamma in gammas]
    params = [_PARAM_MAPS[kind](z, gamma) for gamma in gammas]
    c = np.array([p.as_tuple() for p in params], dtype=float).reshape(-1, 3)
    rows = zip(*(np.ravel(v) for v in vars(full_report(BellDiagonalParams(*c.T))).values()))
    return [TrajectoryPoint(g, p, CorrelationReport(*r)) for g, p, r in zip(gammas, params, rows)]
