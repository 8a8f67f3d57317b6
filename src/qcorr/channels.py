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

WERNER_MAPS is the one table of channel kinds: it maps each kind to its
Werner map, KrausChannel checks kinds against it, and the CLI spells its
--channel choices from it. Both the trajectory and the CLI's (z, gamma)
table take their triples from one grid builder over that table.
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
        object.__setattr__(self, "gamma", _check_gamma(self.gamma))
        if self.kind not in tuple(WERNER_MAPS):  # a tuple: unhashable kinds are unknown too
            raise ValueError(f"unknown channel kind {self.kind!r}")
        defect = self.completeness_defect()
        if not defect <= COMPLETENESS_TOL:  # a non-finite entry makes it inf or NaN
            raise ValueError(f"Kraus completeness violated by {defect:.3e}")

    def completeness_defect(self) -> float:
        """Largest entry of |sum_k E_k^dagger E_k - I|."""
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or NaN
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


WERNER_MAPS = {
    DEPOLARIZING: depolarized_werner_params,
    PHASE_DAMPING: phase_damped_werner_params,
}


def _werner_grid(kind: str, z, gammas: Iterable[float]) -> tuple[BellDiagonalParams, list]:
    """Werner z's triples as one grid, fields of shape np.shape(z) + (len(gammas),),
    and the list of the map's triples, one per gamma."""
    if kind not in WERNER_MAPS:
        raise ValueError(f"channel kind must be one of {tuple(WERNER_MAPS)}, got {kind!r}")
    z = _check_unit("werner parameter z", z)  # an empty gammas makes no map call
    by_gamma = [WERNER_MAPS[kind](z, gamma) for gamma in gammas]
    c = np.reshape([p.as_tuple() for p in by_gamma], (len(by_gamma), 3, *np.shape(z)))
    return BellDiagonalParams(*np.moveaxis(c, 0, -1)), by_gamma


def correlation_trajectory(
    z: float, gammas: Iterable[float] | Sequence[float], kind: str
) -> list[TrajectoryPoint]:
    """Quantifier trajectory of one Werner state z along a channel-strength grid."""
    if np.ndim(z) != 0:
        raise ValueError(f"trajectory takes one werner parameter z, got shape {np.shape(z)}")
    gammas = [float(gamma) for gamma in gammas]
    params, triples = _werner_grid(kind, z, gammas)
    rows = zip(*vars(full_report(params)).values())
    return [TrajectoryPoint(g, p, CorrelationReport(*r)) for g, p, r in zip(gammas, triples, rows)]
