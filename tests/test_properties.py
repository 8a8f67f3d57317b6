"""Invariant checks over randomized inputs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcorr.bases import (
    LocalBasisAngles,
    QubitBasis,
    dephase_in_basis,
    joint_projective_distribution,
    local_basis_pair,
    rotate_to_basis,
)
from qcorr.channels import WERNER_MAPS, KrausChannel, depolarizing_kraus, phase_damping_kraus
from qcorr.correlations import concurrence, full_report
from qcorr.oracle import GridSpec
from qcorr.qstate import (
    PAULIS,
    BellDiagonalParams,
    BlochParams,
    bell_diagonal_state,
    bloch_compose,
    bloch_decompose,
    density_violations,
    partial_trace,
    relative_entropy,
    von_neumann_entropy,
    werner_state,
    xlog2,
)

TWO_PI = 2.0 * math.pi


@st.composite
def physical_triples(draw):
    # Draw the four Bell-basis weights and invert the parametrization, so
    # every sample is physical by construction.
    weights = [
        draw(st.floats(0.0, 1.0, allow_nan=False)) for _ in range(4)
    ]
    total = sum(weights)
    if total <= 1e-9:
        lam = [0.25] * 4
    else:
        lam = [w / total for w in weights]
    c1 = lam[0] - lam[1] + lam[2] - lam[3]
    c2 = -lam[0] + lam[1] + lam[2] - lam[3]
    c3 = lam[0] + lam[1] - lam[2] - lam[3]
    return BellDiagonalParams(c1, c2, c3)


angles = st.builds(
    LocalBasisAngles,
    st.floats(0.0, math.pi),
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.0, math.pi),
    st.floats(0.0, TWO_PI, exclude_max=True),
)


@settings(max_examples=60, deadline=None)
@given(physical_triples())
def test_constructed_states_are_valid(params):
    rho = bell_diagonal_state(params)
    assert density_violations(rho) == []


@settings(max_examples=60, deadline=None)
@given(physical_triples())
def test_bloch_roundtrip(params):
    rho = bell_diagonal_state(params)
    assert np.abs(bloch_compose(bloch_decompose(rho)) - rho).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(physical_triples())
def test_marginals_maximally_mixed(params):
    rho = bell_diagonal_state(params)
    for keep in ("A", "B"):
        assert np.abs(partial_trace(rho, keep) - np.eye(2) / 2).max() <= 1e-15


@settings(max_examples=60, deadline=None)
@given(physical_triples())
def test_entropy_matches_closed_form_spectrum(params):
    rho = bell_diagonal_state(params)
    expected = float(-xlog2(np.clip(params.bell_eigenvalues(), 0.0, 1.0)).sum())
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(physical_triples(), angles)
def test_marginal_distributions_uniform_for_any_basis(params, ang):
    rho = bell_diagonal_state(params)
    d = joint_projective_distribution(rho, *local_basis_pair(ang))
    assert np.allclose(d.marginal_a, 0.5, atol=1e-12)
    assert np.allclose(d.marginal_b, 0.5, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(physical_triples(), angles)
def test_dephasing_idempotent(params, ang):
    rho = bell_diagonal_state(params)
    pair = local_basis_pair(ang)
    once = dephase_in_basis(rho, *pair)
    assert np.abs(dephase_in_basis(once, *pair) - once).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(physical_triples(), angles)
def test_rotation_diagonal_is_joint_distribution(params, ang):
    rho = bell_diagonal_state(params)
    pair = local_basis_pair(ang)
    rot = rotate_to_basis(rho, *pair)
    d = joint_projective_distribution(rho, *pair)
    assert np.allclose(np.diag(rot).real, d.p.reshape(-1), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(physical_triples(), angles)
def test_relative_entropy_of_dephasing_is_entropy_gain(params, ang):
    rho = bell_diagonal_state(params)
    chi = dephase_in_basis(rho, *local_basis_pair(ang))
    expected = von_neumann_entropy(chi) - von_neumann_entropy(rho)
    assert relative_entropy(rho, chi) == pytest.approx(expected, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.sampled_from([depolarizing_kraus, phase_damping_kraus]))
def test_channel_completeness(gamma, factory):
    assert factory(gamma).completeness_defect() <= 1e-12


# x log2 x overflows to inf near the float max; that float is always tried.
FLOAT_MAX = 1.7976931348623157e308
XLOG2_OVERFLOW = "ignore:overflow encountered in multiply:RuntimeWarning"


@pytest.mark.filterwarnings(XLOG2_OVERFLOW)
@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
@example(FLOAT_MAX)
def test_xlog2_scalar_path_is_bitwise_equal_to_array_path(x):
    scalar = np.float64(xlog2(x)).tobytes()
    with np.errstate(over="ignore"):  # x log2 x overflows near the float max
        assert scalar == xlog2(np.array([x]))[0].tobytes()


def _masked_xlog2(arr):
    out = np.zeros_like(arr)
    mask = arr > 0.0
    out[mask] = arr[mask] * np.log2(arr[mask])
    return out


@pytest.mark.filterwarnings(XLOG2_OVERFLOW)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
@example([FLOAT_MAX])
def test_xlog2_matches_masked_reference_bitwise(values):
    arr = np.array(values)
    with np.errstate(over="ignore"):
        assert xlog2(arr).tobytes() == _masked_xlog2(arr).tobytes()


@st.composite
def density_matrices(draw):
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    g = np.array([draw(entries) + 1j * draw(entries) for _ in range(16)])
    g = g.reshape(4, 4) + 1e-3 * np.eye(4)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _kron_loop_decompose(rho):
    eye = np.eye(2)
    x = [np.trace(rho @ np.kron(s, eye)).real for s in PAULIS]
    y = [np.trace(rho @ np.kron(eye, s)).real for s in PAULIS]
    t = [[np.trace(rho @ np.kron(sn, sm)).real for sm in PAULIS] for sn in PAULIS]
    return np.array(x), np.array(y), np.array(t)


def _kron_loop_compose(params):
    eye = np.eye(2)
    m = np.eye(4, dtype=complex)
    for n, s in enumerate(PAULIS):
        m += params.x[n] * np.kron(s, eye)
        m += params.y[n] * np.kron(eye, s)
    for n, sn in enumerate(PAULIS):
        for k, sm in enumerate(PAULIS):
            m += params.T[n, k] * np.kron(sn, sm)
    return 0.25 * m


@settings(max_examples=60, deadline=None)
@given(density_matrices())
def test_bloch_decompose_matches_kron_loop_bitwise(rho):
    got = bloch_decompose(rho)
    for have, want in zip((got.x, got.y, got.T), _kron_loop_decompose(rho)):
        assert have.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(density_matrices())
def test_bloch_compose_matches_kron_loop_bitwise(rho):
    params = bloch_decompose(rho)
    want = _kron_loop_compose(BlochParams(params.x, params.y, params.T))
    assert bloch_compose(params).tobytes() == want.tobytes()


# Triples at the edges of the tetrahedron, plus depolarizing z = 0.65,
# gamma = 0.05, whose concurrence is exactly 0.3799375 (a 6-decimal half).
EDGE_TRIPLES = [
    (0.0, 0.0, 0.0),
    (1.0, -1.0, 1.0),
    (0.5, 0.5, -0.5),
    (0.586625, -0.586625, 0.586625),
]


def _assert_batch_matches_per_triple(triples):
    fields = np.array(triples, dtype=float).T
    batch = full_report(BellDiagonalParams(*fields))
    for i, triple in enumerate(triples):
        single = full_report(triple)
        for name, value in vars(single).items():
            assert isinstance(value, float)
            assert getattr(batch, name)[i].tobytes() == np.float64(value).tobytes(), name


@settings(max_examples=40, deadline=None)
@given(st.lists(physical_triples(), max_size=30))
def test_full_report_batch_is_bitwise_equal_to_per_triple(batch):
    _assert_batch_matches_per_triple([p.as_tuple() for p in batch] + EDGE_TRIPLES)


def test_full_report_batch_across_blocks_is_bitwise_equal():
    # 600 triples span three blocks of the concurrence's matrix stacks.
    rng = np.random.default_rng(11)
    lam = rng.dirichlet(np.ones(4), size=600)
    c = np.column_stack(
        (
            lam[:, 0] - lam[:, 1] + lam[:, 2] - lam[:, 3],
            -lam[:, 0] + lam[:, 1] + lam[:, 2] - lam[:, 3],
            lam[:, 0] + lam[:, 1] - lam[:, 2] - lam[:, 3],
        )
    )
    _assert_batch_matches_per_triple([tuple(row) for row in c.tolist()])


@st.composite
def concurrence_triples(draw):
    """A physical triple from one of five regions: separable (lambda_max < 1/2),
    entangled, rank-deficient, within 1e-6 of the boundary, or the Werner threshold."""
    region = draw(st.sampled_from(["separable", "entangled", "rank", "boundary", "threshold"]))
    if region == "threshold":
        return (1 / 3, -1 / 3, 1 / 3)
    w = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    if region == "rank":
        w[draw(st.integers(0, 2))] = 0.0
    top = {
        "separable": draw(st.floats(0.25, 0.5, exclude_min=True, exclude_max=True)),
        "entangled": draw(st.floats(0.5, 1.0, exclude_min=True)),
        "rank": draw(st.floats(0.25, 1.0)),
        "boundary": 0.5 + draw(st.floats(-1e-6, 1e-6)),
    }[region]
    total = sum(w)
    rest = [(1.0 - top) / 3] * 3 if total == 0.0 else [(1.0 - top) * v / total for v in w]
    if region == "separable":  # every weight below 1/2: (1 - top) * 2/3 < 1/2
        rest = [0.5 * v + (1.0 - top) / 6 for v in rest]
    lam = [top, *rest]
    k = draw(st.integers(0, 3))
    lam[0], lam[k] = lam[k], lam[0]
    lam = [v / sum(lam) for v in lam]
    return (
        lam[0] - lam[1] + lam[2] - lam[3],
        -lam[0] + lam[1] + lam[2] - lam[3],
        lam[0] + lam[1] - lam[2] - lam[3],
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(concurrence_triples(), min_size=1, max_size=40))
def test_full_report_concurrence_is_bitwise_the_per_triple_spin_flip(triples):
    # The certified-zero skip is invisible: every entry is the per-triple
    # spin flip, snapped to zero below 1e-14 as full_report snaps every field.
    batch = full_report(BellDiagonalParams(*np.array(triples).T)).concurrence
    single = [concurrence(bell_diagonal_state(t)) for t in triples]
    assert batch.tobytes() == np.where(np.abs(single) < 1e-14, 0.0, single).tobytes()


def test_full_report_keeps_grid_shape():
    c = np.linspace(0.0, 0.3, 15).reshape(3, 5)
    rep = full_report(BellDiagonalParams(c, -c, c))
    assert all(np.shape(v) == (3, 5) for v in vars(rep).values())
    empty = full_report(BellDiagonalParams(np.empty(0), np.empty(0), np.empty(0)))
    assert all(np.shape(v) == (0,) for v in vars(empty).values())


def test_xlog2_of_contiguous_array_matches_scalar_formula():
    # A vectorized log2 loop may round differently from the one-element
    # call; the pinned outputs were written with x * float(np.log2(x)).
    rng = np.random.default_rng(5)
    x = np.concatenate(
        (
            rng.uniform(0.0, 1.0, 4000),
            rng.uniform(0.0, 4.0, 2000),
            np.exp(rng.uniform(-744.0, 700.0, 4000)),
            [0.0, -0.0, -1.0, 0.5, 1.0, 2.0],
        )
    )
    assert x.size >= 10**4 and x.flags.c_contiguous
    want = [float(v) * float(np.log2(float(v))) if v > 0.0 else 0.0 for v in x]
    assert xlog2(x).tobytes() == np.array(want).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(physical_triples(), min_size=1, max_size=20))
def test_bell_diagonal_stack_is_bitwise_equal_to_per_triple(batch):
    triples = [p.as_tuple() for p in batch] + EDGE_TRIPLES
    stack = bell_diagonal_state(BellDiagonalParams(*np.array(triples).T))
    assert stack.shape == (len(triples), 4, 4)
    want = []
    for rho, triple in zip(stack, triples):
        assert rho.tobytes() == bell_diagonal_state(triple).tobytes()
        single = concurrence(bell_diagonal_state(triple))
        assert np.float64(single).tobytes() == concurrence(stack)[len(want)].tobytes()
        want.append(single)


# Constructor robustness: non-finite, extreme, subnormal and signed-zero
# input gives a valid object or a ValueError, never another exception
# (warnings fail the suite too) and never an object holding a NaN.
EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 1e308, -1e308, FLOAT_MAX, 5e-324, -5e-324, -0.0]
    ),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0]),
)


def _built_or_value_error(make):
    try:
        return make()
    except ValueError:
        return None


def _assert_finite(*arrays):
    for a in arrays:
        assert np.isfinite(np.asarray(a, dtype=complex)).all()


@settings(max_examples=150, deadline=None)
@given(EXTREME_FLOATS, EXTREME_FLOATS, EXTREME_FLOATS, st.booleans())
def test_bell_params_validate_extremes(c1, c2, c3, as_arrays):
    fields = [np.array([c]) if as_arrays else c for c in (c1, c2, c3)]
    out = _built_or_value_error(lambda: BellDiagonalParams(*fields).validate())
    if out is not None:
        _assert_finite(*out.as_tuple())
        assert out.is_physical()


@settings(max_examples=80, deadline=None)
@given(EXTREME_FLOATS)
def test_werner_state_extremes(z):
    rho = _built_or_value_error(lambda: werner_state(z))
    if rho is not None:
        _assert_finite(rho)
        assert 0.0 <= z <= 1.0


@settings(max_examples=150, deadline=None)
@given(st.lists(EXTREME_FLOATS, min_size=4, max_size=4))
def test_qubit_basis_extremes(entries):
    basis = _built_or_value_error(lambda: QubitBasis(entries[:2], entries[2:]))
    if basis is not None:
        _assert_finite(*basis.kets)


STEPS = st.one_of(
    EXTREME_FLOATS,
    st.floats(2.0, 128.0),
    st.integers(-(2**70), 2**70),
    st.integers(0, 130).map(np.int64),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(STEPS, min_size=3, max_size=3))
def test_grid_spec_extremes(steps):
    if _built_or_value_error(lambda: GridSpec(*steps)) is not None:
        assert all(isinstance(s, (int, np.integer)) and 2 <= s <= 128 for s in steps)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(EXTREME_FLOATS, min_size=4, max_size=4),
    EXTREME_FLOATS,
    st.sampled_from(list(WERNER_MAPS)),
)
def test_kraus_channel_extremes(entries, gamma, kind):
    op = np.array(entries).reshape(2, 2)
    ch = _built_or_value_error(lambda: KrausChannel((op,), gamma, kind))
    if ch is not None:
        _assert_finite(*ch.operators, ch.gamma)
        assert ch.completeness_defect() <= 1e-12 and 0.0 <= ch.gamma <= 1.0


@settings(max_examples=150, deadline=None)
@given(EXTREME_FLOATS, EXTREME_FLOATS, st.sampled_from(list(WERNER_MAPS.values())))
def test_werner_maps_extremes(z, gamma, param_map):
    params = _built_or_value_error(lambda: param_map(z, gamma))
    if params is not None:
        _assert_finite(*params.as_tuple())
        assert params.is_physical(tol=1e-12)
