"""Local measurement bases, complementary bases, and projective statistics.

A local basis on one qubit is parametrized by polar/azimuthal angles:

    |k0> = cos(theta/2)|0> + sin(theta/2) e^{i phi} |1>
    |k1> = -sin(theta/2)|0> + cos(theta/2) e^{i phi} |1>

i.e. the eigenbasis of sigma.u for u = (sin t cos p, sin t sin p, cos t).
No global-phase normalization is applied; probabilities do not see phases.

A complementary basis is built over an explicitly supplied computational
basis {b0, b1} (never implicitly over the standard one):

    |u0> = (b0 + e^{i Phi} b1)/sqrt(2),  |u1> = (b0 - e^{i Phi} b1)/sqrt(2)

which is mutually unbiased with {b0, b1} for every Phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import validate_density

__all__ = [
    "LocalBasisAngles",
    "ComplementaryAngles",
    "QubitBasis",
    "JointDistribution",
    "local_qubit_basis",
    "local_basis_pair",
    "complementary_qubit_basis",
    "joint_projective_distribution",
    "dephase_in_basis",
    "rotate_to_basis",
]

ORTHONORMALITY_TOL = 1e-12
# Probabilities this far below 0 are rounding; anything worse is a bug.
_PROB_CLAMP = 1e-10
_PROB_SUM_TOL = 1e-10

_TWO_PI = 2.0 * math.pi


def _check_angle(name: str, value: float, upper: float, closed: bool) -> float:
    value = float(value)
    ok = 0.0 <= value <= upper if closed else 0.0 <= value < upper
    if not ok:
        rng = f"[0, {'pi' if closed else '2*pi'}{']' if closed else ')'}"
        raise ValueError(f"{name} = {value} outside {rng}")
    return value


@dataclass(frozen=True)
class LocalBasisAngles:
    """Angles of the two local measurement bases; theta in [0, pi], phi in [0, 2pi)."""

    theta_a: float
    phi_a: float
    theta_b: float
    phi_b: float

    def __post_init__(self):
        _check_angle("theta_a", self.theta_a, math.pi, closed=True)
        _check_angle("theta_b", self.theta_b, math.pi, closed=True)
        _check_angle("phi_a", self.phi_a, _TWO_PI, closed=False)
        _check_angle("phi_b", self.phi_b, _TWO_PI, closed=False)


@dataclass(frozen=True)
class ComplementaryAngles:
    """In-plane angles of the complementary bases, one per subsystem."""

    phi_a: float
    phi_b: float

    def __post_init__(self):
        _check_angle("phi_a", self.phi_a, _TWO_PI, closed=False)
        _check_angle("phi_b", self.phi_b, _TWO_PI, closed=False)


@dataclass(frozen=True)
class QubitBasis:
    """An orthonormal single-qubit basis (two complex 2-vectors)."""

    ket0: np.ndarray
    ket1: np.ndarray

    def __post_init__(self):
        k0 = np.asarray(self.ket0, dtype=complex).reshape(2)
        k1 = np.asarray(self.ket1, dtype=complex).reshape(2)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite grams fail below
            gram = np.array(
                [
                    [k0.conj() @ k0, k0.conj() @ k1],
                    [k1.conj() @ k0, k1.conj() @ k1],
                ]
            )
        if not np.abs(gram - np.eye(2)).max() <= ORTHONORMALITY_TOL:  # also rejects NaN
            raise ValueError("basis vectors are not orthonormal")
        k0.flags.writeable = False
        k1.flags.writeable = False
        object.__setattr__(self, "ket0", k0)
        object.__setattr__(self, "ket1", k1)

    @classmethod
    def standard(cls) -> "QubitBasis":
        return cls(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @property
    def kets(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.ket0, self.ket1)

    def bras_matrix(self) -> np.ndarray:
        """Unitary whose rows are the basis bras (maps this basis to |0>,|1>)."""
        return np.array([self.ket0.conj(), self.ket1.conj()])

    def axis(self) -> np.ndarray:
        """Bloch direction of ket0 (ket1 points opposite)."""
        k = self.ket0
        return np.array(
            [
                2.0 * (k[0].conjugate() * k[1]).real,
                2.0 * (k[0].conjugate() * k[1]).imag,
                (abs(k[0]) ** 2 - abs(k[1]) ** 2).real,
            ]
        )


@dataclass(frozen=True)
class JointDistribution:
    """2x2 outcome table of a local projective measurement."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (2, 2):
            raise ValueError(f"probability table must be 2x2, got {p.shape}")
        if not (-_PROB_CLAMP <= p.min() and p.max() <= 1.0 + _PROB_CLAMP):  # also rejects NaN
            raise ValueError(f"probabilities outside [0, 1]: {p}")
        p = np.clip(p, 0.0, 1.0)
        if not abs(p.sum() - 1.0) <= _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def marginal_a(self) -> np.ndarray:
        return self.p.sum(axis=1)

    @property
    def marginal_b(self) -> np.ndarray:
        return self.p.sum(axis=0)


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def local_qubit_basis(theta: float, phi: float) -> QubitBasis:
    """Measurement basis at polar angle theta, azimuth phi."""
    theta, phi = _finite("theta", theta), _finite("phi", phi)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    e = complex(math.cos(phi), math.sin(phi))
    return QubitBasis(np.array([c, s * e]), np.array([-s, c * e]))


def local_basis_pair(angles: LocalBasisAngles) -> tuple[QubitBasis, QubitBasis]:
    return (
        local_qubit_basis(angles.theta_a, angles.phi_a),
        local_qubit_basis(angles.theta_b, angles.phi_b),
    )


def complementary_qubit_basis(phi: float, computational: QubitBasis) -> QubitBasis:
    """Basis in the plane unbiased to ``computational``, at in-plane angle phi."""
    phi = _finite("phi", phi)
    b0, b1 = computational.kets
    e = complex(math.cos(phi), math.sin(phi))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return QubitBasis((b0 + e * b1) * inv_sqrt2, (b0 - e * b1) * inv_sqrt2)


def joint_projective_distribution(
    rho: np.ndarray, basis_a: QubitBasis, basis_b: QubitBasis
) -> JointDistribution:
    """p(i, j) = <a_i b_j| rho |a_i b_j> for the product projective measurement."""
    rho = np.asarray(rho, dtype=complex)
    p = np.empty((2, 2))
    for i, ka in enumerate(basis_a.kets):
        for j, kb in enumerate(basis_b.kets):
            v = np.kron(ka, kb)
            p[i, j] = (v.conj() @ rho @ v).real
    return JointDistribution(p)


def dephase_in_basis(
    rho: np.ndarray, basis_a: QubitBasis, basis_b: QubitBasis
) -> np.ndarray:
    """Strictly classical state sharing rho's diagonal in the product basis."""
    d = joint_projective_distribution(rho, basis_a, basis_b)
    out = np.zeros((4, 4), dtype=complex)
    for i, ka in enumerate(basis_a.kets):
        for j, kb in enumerate(basis_b.kets):
            v = np.kron(ka, kb)
            out += d.p[i, j] * np.outer(v, v.conj())
    return validate_density(out)


def rotate_to_basis(
    rho: np.ndarray, basis_a: QubitBasis, basis_b: QubitBasis
) -> np.ndarray:
    """Rewrite rho in the product basis: (Ua (x) Ub) rho (Ua (x) Ub)^dagger.

    The diagonal of the result is the flattened joint outcome table; the
    spectrum is untouched.
    """
    u = np.kron(basis_a.bras_matrix(), basis_b.bras_matrix())
    return validate_density(u @ np.asarray(rho, dtype=complex) @ u.conj().T)
