"""Construction, validation, and entropy computations for 2-qubit states.

States are plain complex numpy arrays: 4x4 for the pair, 2x2 for a single
qubit. Every constructor routes its output through :func:`validate_density`,
or, for one Bell-diagonal matrix, its checked triple, so any state in
circulation is Hermitian, unit-trace, and positive semidefinite, and is
returned as a read-only array. bloch_decompose, partial_trace and
concurrence check their input; the matrix last accepted is not solved
again (a one-entry memo).

Bell-diagonal states are handled through their correlation triple
(c1, c2, c3), checked once, when it is built. That check is the contract
every consumer relies on: each triple is finite, physical within PSD_TOL
(every Bell eigenvalue >= -PSD_TOL) and has every |c_i| <= 1 + 1e-12. So
no closed form re-checks a built triple; full_report builds its
concurrence matrices from the checked triple with no further check or
eigensolve. validate(tol) and is_physical(tol) re-check at a tighter tol.
Its spectrum is always the four closed-form Bell-basis eigenvalues,
spelled only in :class:`BellDiagonalParams`, never a numerical
eigensolver. The triple's fields may be float arrays of one shape, a grid
of triples; equality and hashing of :class:`BellDiagonalParams` are for
scalar triples only. The general Hermitian eigenproblems (entropy of
arbitrary states, spin-flip spectra) go through LAPACK's Hermitian solver.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "BELL_LABELS",
    "Violation",
    "InvalidStateError",
    "BellDiagonalParams",
    "BlochParams",
    "as_bell_params",
    "bell_diagonal_state",
    "werner_state",
    "bloch_compose",
    "bloch_decompose",
    "partial_trace",
    "von_neumann_entropy",
    "relative_entropy",
    "density_violations",
    "validate_density",
    "xlog2",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# Channel application compounds rounding, so positivity gets a looser bar.
PSD_TOL = 1e-9
# How far past 1 a correlation coefficient |c_i| may round.
_CORRELATION_SLACK = 1e-12
_ACCEPTED = [None]  # _content_key of the last 4x4 matrix validate_density accepted at default tols

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)

# _PAULI_PAIRS[n, m] = sigma_n (x) sigma_m with sigma_0 = I.
_SIGMA4 = np.stack((_I2, *PAULIS))
_PAULI_PAIRS = np.einsum("nab,mcd->nmacbd", _SIGMA4, _SIGMA4).reshape(4, 4, 4, 4)
# bloch_compose sums its 16 terms in the order I, (x_n, y_n) for each n,
# then T row-major; the diagonal entries round differently in any other.
_COMPOSE_ORDER = [0] + [k for n in (1, 2, 3) for k in (4 * n, n)] + [
    4 * n + m for n in (1, 2, 3) for m in (1, 2, 3)
]
_PAULI_TERMS = _PAULI_PAIRS.reshape(16, 4, 4)[_COMPOSE_ORDER]

# Fixed ordering for any Bell-basis spectral reporting.
BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


def _readonly(a) -> np.ndarray:
    """A read-only copy of a: the one place qcorr clears an array's writeable flag."""
    out = np.array(a)
    out.flags.writeable = False
    return out


def _content_key(a) -> tuple:
    """(dtype, shape, bytes) of a as an array: equal exactly when the contents are."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _by_content(maxsize: int):
    """functools.lru_cache(maxsize) keyed on each array argument's _content_key. The
    function is called with read-only arrays rebuilt from the keys; results are shared."""

    def decorate(f):
        cached = functools.lru_cache(maxsize)(
            lambda *keys: f(*(np.frombuffer(b, dtype).reshape(shape) for dtype, shape, b in keys))
        )
        call = functools.wraps(f)(lambda *arrays: cached(*map(_content_key, arrays)))
        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call

    return decorate


def _check_unit(name: str, value):
    """value as floats (a numpy scalar for a scalar), each checked to lie in [0, 1]."""
    value = np.asarray(value, dtype=float)
    bad = ~((0.0 <= value) & (value <= 1.0))  # also rejects NaN
    if bad.any():
        raise ValueError(f"{name} must lie in [0, 1], got {value[bad][0]}")
    return value[()]


def _two_qubit(rho) -> np.ndarray:
    """rho as a complex array; anything but one 4x4 matrix raises ValueError."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected one 4x4 two-qubit state, got shape {rho.shape}")
    return rho


def xlog2(p):
    """Elementwise p*log2(p), 0 wherever p is not positive (0*log2(0) = 0).

    A scalar argument gives a numpy float scalar."""
    arr = np.asarray(p, dtype=float)
    pos = arr > 0.0
    out = np.log2(arr, out=np.zeros(arr.shape), where=pos)
    return np.multiply(arr, out, out=out, where=pos)[()]


@dataclass(frozen=True)
class Violation:
    """One failed density-matrix invariant and by how much."""

    invariant: str  # 'hermiticity' | 'trace' | 'positivity'
    magnitude: float

    def __str__(self) -> str:
        return f"{self.invariant} violated by {self.magnitude:.3e}"


class InvalidStateError(ValueError):
    """Raised when a matrix fails density-operator validation."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True)
class BellDiagonalParams:
    """Correlation triple (c1, c2, c3) of a Bell-diagonal 2-qubit state.

    The state is physical exactly when all four Bell-basis eigenvalues
    are nonnegative; those eigenvalues are cheap closed forms in the c's.
    Array fields of one shape hold a grid, kept as read-only float copies;
    every method covers each triple.
    Building one runs :meth:`validate`, so a bad triple raises ValueError.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name, c in zip(("c1", "c2", "c3"), self.as_tuple()):
            if not isinstance(c, (float, numbers.Real)):  # float first: the ABC check is slow
                c = np.asarray(c).astype(float, casting="same_kind", copy=False)
                object.__setattr__(self, name, _readonly(c))  # an array field's own copy
        self.validate()

    def bell_eigenvalues(self) -> np.ndarray:
        """Spectrum in the fixed ordering (phi+, phi-, psi+, psi-), on the first axis."""
        c1, c2, c3 = self.c1, self.c2, self.c3
        return np.array(
            [
                (1.0 + c1 - c2 + c3) / 4.0,
                (1.0 - c1 + c2 + c3) / 4.0,
                (1.0 + c1 + c2 - c3) / 4.0,
                (1.0 - c1 - c2 - c3) / 4.0,
            ]
        )

    def is_physical(self, tol: float = PSD_TOL) -> bool:
        """Every Bell eigenvalue >= -tol; built triples pass the default, so pass a tighter tol."""
        return bool(self.bell_eigenvalues().min() >= -tol)

    def validate(self, tol: float = PSD_TOL) -> "BellDiagonalParams":
        """Return self if every triple is finite and physical, else name the first bad one;
        construction runs this at the default tol, so call it to re-check at a tighter one."""
        try:
            triples = np.array(self.as_tuple()).reshape(3, -1)
        except ValueError:  # numpy's message names neither the type nor the shapes
            shapes = ", ".join(str(np.shape(c)) for c in self.as_tuple())
            raise ValueError(
                "BellDiagonalParams fields must share one shape, "
                f"got the inhomogeneous shapes {shapes}"
            ) from None
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums fail below
            lam = self.bell_eigenvalues().reshape(4, -1)
        finite = np.isfinite(triples).all(axis=0)
        negative = lam.min(axis=0) < -tol
        outside = np.abs(triples) > 1.0 + _CORRELATION_SLACK
        bad = ~finite | negative | outside.any(axis=0)
        if not bad.any():
            return self
        i = int(np.argmax(bad))
        c = tuple(triples[:, i].tolist())
        if not finite[i]:
            raise ValueError(f"correlation triple {c} must be finite")
        if negative[i]:
            k = int(np.argmin(lam[:, i]))
            raise ValueError(
                f"non-physical correlation triple {c}: "
                f"Bell eigenvalue {BELL_LABELS[k]} = {lam[k, i]:.6f} < 0"
            )
        j = int(np.argmax(outside[:, i]))
        raise ValueError(
            f"non-physical correlation triple {c}: c{j + 1} = {c[j]!r} lies outside [-1, 1]"
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


def as_bell_params(value) -> BellDiagonalParams:
    """Coerce a BellDiagonalParams or a length-3 sequence of reals."""
    if isinstance(value, BellDiagonalParams):
        return value
    seq = tuple(float(v) for v in value)
    if len(seq) != 3:
        raise ValueError(f"expected 3 correlation coefficients, got {len(seq)}")
    return BellDiagonalParams(*seq)


@dataclass(frozen=True, eq=False)
class BlochParams:
    """Local Bloch vectors and 3x3 correlation matrix of a 2-qubit state.

    x[n] = Tr[rho (sigma_n (x) I)], y[n] = Tr[rho (I (x) sigma_n)],
    T[n, m] = Tr[rho (sigma_n (x) sigma_m)].

    Equality and hashing are by identity (eq=False): the fields are
    arrays, which have no single truth value to compare by.
    """

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", _readonly(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "T", _readonly(np.asarray(self.T, dtype=float)))
        if self.x.shape != (3,) or self.y.shape != (3,) or self.T.shape != (3, 3):
            raise ValueError("BlochParams needs two 3-vectors and a 3x3 matrix")

    def is_bell_diagonal(self, tol: float = 1e-9) -> bool:
        off = self.T - np.diag(np.diag(self.T))
        return bool(
            np.abs(self.x).max() <= tol
            and np.abs(self.y).max() <= tol
            and np.abs(off).max() <= tol
        )

    def diagonal_correlations(self) -> BellDiagonalParams:
        """Read (c1, c2, c3) off the T diagonal; caller checks is_bell_diagonal.
        The triple is checked as it is built: a non-physical diagonal raises ValueError."""
        return BellDiagonalParams(*(float(v) for v in np.diag(self.T)))


def density_violations(
    m: np.ndarray,
    tol: float = HERMITICITY_TOL,
    psd_tol: float = PSD_TOL,
) -> list[Violation]:
    """Report which density-matrix invariants `m` breaks and by how much.

    `tol` bounds the Hermiticity defect and |Tr - 1|; `psd_tol` bounds how
    negative the smallest eigenvalue may be. An empty list means valid.
    `m` may be a stack of matrices (shape (..., d, d)); each magnitude is
    then the worst over the stack. Non-finite entries raise ValueError.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("density matrix entries must be finite")
    out: list[Violation] = []
    m_h = m.conj().swapaxes(-1, -2)
    herm = float(np.abs(m - m_h).max(initial=0.0))
    if herm > tol:
        out.append(Violation("hermiticity", herm))
    tr = float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max(initial=0.0))
    if tr > tol:
        out.append(Violation("trace", tr))
    # Eigenvalues of the Hermitian part; meaningful whenever herm is small.
    lam_min = float(np.linalg.eigvalsh((m + m_h) / 2.0).min(initial=0.0))
    if lam_min < -psd_tol:
        out.append(Violation("positivity", -lam_min))
    return out


def validate_density(
    m: np.ndarray,
    tol: float = HERMITICITY_TOL,
    psd_tol: float = PSD_TOL,
) -> np.ndarray:
    """Return `m` as a validated, read-only density matrix.

    Raises :class:`InvalidStateError` carrying the full violation report
    otherwise. No repair is attempted. The last 4x4 matrix accepted at the
    default tolerances is not solved again while its content is unchanged.
    """
    m = np.asarray(m, dtype=complex)
    memo = m.shape == (4, 4) and (tol, psd_tol) == (HERMITICITY_TOL, PSD_TOL) and _content_key(m)
    if not memo or memo != _ACCEPTED[0]:
        if bad := density_violations(m, tol=tol, psd_tol=psd_tol):
            raise InvalidStateError(bad)
        _ACCEPTED[0] = memo or _ACCEPTED[0]
    return _readonly(m)


def _bell_diagonal_matrix(c1, c2, c3) -> np.ndarray:
    """(1/4)(I + sum_i c_i sigma_i (x) sigma_i), unchecked: fields of shape S
    give a stack of shape S + (4, 4). Pass only the fields of a built triple."""
    m = _I4
    for n, c in enumerate((c1, c2, c3), start=1):
        m = m + np.asarray(c, dtype=float)[..., None, None] * _PAULI_PAIRS[n, n]
    return 0.25 * m


def bell_diagonal_state(params) -> np.ndarray:
    """The validated state of a physical triple; array fields of shape S give
    a stack of shape S + (4, 4). One matrix is real symmetric, of trace 1 and
    spectrum the checked Bell eigenvalues to rounding, so it enters the memo
    unsolved unless the smallest lies below 1e-12 - PSD_TOL, which rounding may cross."""
    p = as_bell_params(params)
    m = _bell_diagonal_matrix(*p.as_tuple())
    if m.shape != (4, 4) or p.bell_eigenvalues().min() < 1e-12 - PSD_TOL:
        return validate_density(m)
    _ACCEPTED[0] = _content_key(m)
    return _readonly(m)


def werner_state(z: float) -> np.ndarray:
    """z |phi+><phi+| + (1 - z)/4 I, z in [0, 1]: it is ``bell_diagonal_state((z, -z, z))``."""
    z = float(_check_unit("werner parameter z", z))
    return bell_diagonal_state((z, -z, z))


def bloch_decompose(rho: np.ndarray) -> BlochParams:
    """Trace out the Bloch parameters (x, y, T) of a valid 2-qubit state."""
    return _bloch_decompose(validate_density(_two_qubit(rho)))


def _bloch_decompose(rho: np.ndarray) -> BlochParams:
    """:func:`bloch_decompose` of a 4x4 matrix, unchecked."""
    # Each Pauli product has one nonzero entry per row, so every term of
    # the einsum is exact; the complex sum over i then rounds exactly like
    # Tr[rho (sigma_n (x) sigma_m)].
    r = np.einsum("nmij,ji->nmi", _PAULI_PAIRS, rho)
    r = r.sum(axis=-1).real
    return BlochParams(r[1:, 0], r[0, 1:], r[1:, 1:])


def bloch_compose(params: BlochParams) -> np.ndarray:
    """Rebuild the state from Bloch parameters; rejects non-physical sets."""
    coeffs = np.block(
        [[np.ones((1, 1)), params.y[None, :]], [params.x[:, None], params.T]]
    )
    terms = coeffs.reshape(16)[_COMPOSE_ORDER, None, None] * _PAULI_TERMS
    return validate_density(0.25 * terms.sum(axis=0))


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced state of subsystem ``keep`` ('A' or 'B') of a valid 2-qubit state, read-only."""
    return _readonly(_partial_trace(validate_density(_two_qubit(rho)), keep))


def _partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """:func:`partial_trace` of a 4x4 matrix, unchecked: its trace and sign pass through."""
    r = rho.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abad->bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum lambda log2 lambda over the spectrum, in bits. Eigenvalues in
    [-PSD_TOL, 0) count as 0; one below that raises InvalidStateError."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    if w.min(initial=0.0) < -PSD_TOL:
        raise InvalidStateError([Violation("positivity", -float(w.min()))])
    return float(-xlog2(w).sum())


def relative_entropy(rho: np.ndarray, chi: np.ndarray, support_tol: float = 1e-12) -> float:
    """S(rho || chi) = -Tr(rho log2 chi) - S(rho), in bits.

    Returns ``math.inf`` when rho has weight outside the support of chi.
    """
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(np.asarray(chi, dtype=complex))
    weights = np.einsum("ik,ij,jk->k", v.conj(), rho, v).real
    null = w <= support_tol
    if weights[null].sum() > 1e-12:
        return math.inf
    cross = -float(np.sum(weights[~null] * np.log2(w[~null])))
    val = cross - von_neumann_entropy(rho)
    if -1e-10 < val < 0.0:
        return 0.0
    return val
