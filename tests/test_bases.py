import math

import numpy as np
import pytest

from qcorr.bases import (
    ComplementaryAngles,
    JointDistribution,
    LocalBasisAngles,
    QubitBasis,
    complementary_qubit_basis,
    dephase_in_basis,
    joint_projective_distribution,
    local_basis_pair,
    local_qubit_basis,
    rotate_to_basis,
)
from qcorr.correlations import full_report
from qcorr.oracle import _projector_on_a
from qcorr.qstate import bell_diagonal_state, von_neumann_entropy, werner_state

SQ2 = 1.0 / math.sqrt(2.0)


def _phases_equal(actual, expected):
    return np.allclose(actual, expected, atol=1e-12)


class TestLocalQubitBasis:
    def test_zero_angles_is_standard(self):
        b = local_qubit_basis(0.0, 0.0)
        assert _phases_equal(b.ket0, [1, 0])
        assert _phases_equal(b.ket1, [0, 1])

    def test_equator_real(self):
        b = local_qubit_basis(math.pi / 2, 0.0)
        assert _phases_equal(b.ket0, [SQ2, SQ2])
        assert _phases_equal(b.ket1, [-SQ2, SQ2])

    def test_equator_imaginary(self):
        b = local_qubit_basis(math.pi / 2, math.pi / 2)
        assert _phases_equal(b.ket0, [SQ2, 1j * SQ2])
        assert _phases_equal(b.ket1, [-SQ2, 1j * SQ2])

    @pytest.mark.parametrize("theta,phi", [(0.3, 1.1), (2.0, 5.5), (math.pi, 0.0)])
    def test_axis_direction(self, theta, phi):
        axis = local_qubit_basis(theta, phi).axis()
        expected = [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
        assert np.allclose(axis, expected, atol=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            QubitBasis(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "ket0, ket1",
        [
            ([math.nan, 0.0], [0.0, 1.0]),
            ([1.0, 0.0], [0.0, math.nan]),
            ([1.0, 0.0], [complex(0.0, math.nan), 1.0]),
            ([math.inf, 0.0], [0.0, 1.0]),
            ([1.0, 0.0], [0.0, -math.inf]),
            ([1e200, 0.0], [0.0, 1.0]),
            ([1.0, 0.0], [1e200, 1e200j]),
            # <k0|k1> is finite, but its modulus overflows a float.
            ([1.0, 0.0], [1.5e308 + 1.5e308j, 0.0]),
            ([1.0, 0.0], [SQ2, SQ2]),
            ([1.0, 1e-5], [0.0, 1.0]),
        ],
        ids=[
            "nan", "nan-late", "nan-imag", "inf", "minus-inf", "1e200",
            "1e200-late", "overflowing-modulus", "not-orthogonal", "not-normalized",
        ],
    )
    def test_rejects_each_bad_pair_with_one_message(self, ket0, ket1):
        with pytest.raises(ValueError, match="^basis vectors are not orthonormal$"):
            QubitBasis(np.array(ket0), np.array(ket1))

    def test_accepts_every_basis_built_on_the_64_step_grids(self):
        thetas, phis = np.linspace(0.0, math.pi, 64), np.linspace(0.0, 2 * math.pi, 64, False)
        local = [local_qubit_basis(t, p) for t in thetas for p in phis]
        for computational in [QubitBasis.standard()] + local[::61]:
            for phi in phis:
                complementary_qubit_basis(phi, computational)


class TestComplementaryBasis:
    def test_zero_phase_over_standard_is_x_basis(self):
        u = complementary_qubit_basis(0.0, QubitBasis.standard())
        assert _phases_equal(u.ket0, [SQ2, SQ2])
        assert _phases_equal(u.ket1, [SQ2, -SQ2])

    def test_quarter_phase_over_standard_is_y_basis(self):
        u = complementary_qubit_basis(math.pi / 2, QubitBasis.standard())
        assert _phases_equal(u.ket0, [SQ2, 1j * SQ2])
        assert _phases_equal(u.ket1, [SQ2, -1j * SQ2])

    @pytest.mark.parametrize("phi", np.linspace(0, 2 * math.pi, 9, endpoint=False))
    def test_mutual_unbiasedness(self, phi):
        comp = local_qubit_basis(0.7, 2.1)
        u = complementary_qubit_basis(phi, comp)
        for uk in u.kets:
            for bk in comp.kets:
                assert abs(uk.conj() @ bk) ** 2 == pytest.approx(0.5, abs=1e-12)


class TestJointDistribution:
    @pytest.mark.parametrize("z", [0.0, 0.5, 0.9])
    def test_werner_standard_basis(self, z):
        std = QubitBasis.standard()
        d = joint_projective_distribution(werner_state(z), std, std)
        # diagonal of the werner matrix: same-parity outcomes get (1+z)/4
        for i in range(2):
            for j in range(2):
                expected = (1.0 + (-1) ** (i + j) * z) / 4.0
                assert d.p[i, j] == pytest.approx(expected, abs=1e-14)
        assert np.allclose(d.marginal_a, 0.5, atol=1e-12)
        assert np.allclose(d.marginal_b, 0.5, atol=1e-12)

    @pytest.mark.parametrize("theta", np.linspace(0, math.pi, 5))
    @pytest.mark.parametrize("phi", np.linspace(0, 2 * math.pi, 5, endpoint=False))
    def test_werner_symmetric_angle_closed_form(self, theta, phi):
        z = 0.6
        b = local_qubit_basis(theta, phi)
        d = joint_projective_distribution(werner_state(z), b, b)
        angular = math.sin(theta / 2) ** 2 * math.cos(theta / 2) ** 2 * (
            1.0 - math.cos(2 * phi)
        )
        for i in range(2):
            for j in range(2):
                sign = (-1) ** (i + j)
                expected = 0.25 * (1.0 + sign * z) - sign * angular * z
                assert d.p[i, j] == pytest.approx(expected, abs=1e-12)
        # same-parity entries coincide for all symmetric angles
        assert d.p[0, 0] == pytest.approx(d.p[1, 1], abs=1e-12)
        assert d.p[1, 0] == pytest.approx(d.p[0, 1], abs=1e-12)

    @pytest.mark.parametrize("phi", np.linspace(0, 2 * math.pi, 7, endpoint=False))
    def test_bell_diagonal_complementary_distribution(self, phi):
        c1, c2, c3 = 0.5, -0.2, 0.3
        rho = bell_diagonal_state((c1, c2, c3))
        u = complementary_qubit_basis(phi, QubitBasis.standard())
        d = joint_projective_distribution(rho, u, u)
        expected = 0.25 * (
            1.0 + (c1 + c2) / 2.0 + (c1 - c2) / 2.0 * math.cos(2 * phi)
        )
        assert d.p[0, 0] == pytest.approx(expected, abs=1e-12)
        assert np.allclose(d.marginal_a, 0.5, atol=1e-12)

    def test_rejects_bad_table(self):
        with pytest.raises(ValueError):
            JointDistribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            JointDistribution(np.array([[1.2, -0.2], [0.0, 0.0]]))


class TestDephase:
    def test_diagonal_state_unchanged(self):
        std = QubitBasis.standard()
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert np.allclose(dephase_in_basis(rho, std, std), rho, atol=1e-14)

    def test_werner_standard(self):
        std = QubitBasis.standard()
        chi = dephase_in_basis(werner_state(0.5), std, std)
        assert np.allclose(chi, np.diag([0.375, 0.125, 0.125, 0.375]), atol=1e-14)

    def test_bell_state_standard(self):
        std = QubitBasis.standard()
        chi = dephase_in_basis(bell_diagonal_state((1, -1, 1)), std, std)
        assert np.allclose(chi, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)

    def test_idempotent(self):
        ba = local_qubit_basis(0.8, 1.2)
        bb = local_qubit_basis(2.2, 4.0)
        rho = werner_state(0.7)
        once = dephase_in_basis(rho, ba, bb)
        twice = dephase_in_basis(once, ba, bb)
        assert np.abs(twice - once).max() <= 1e-12


class TestRotateToBasis:
    def test_standard_basis_is_identity(self):
        std = QubitBasis.standard()
        rho = werner_state(0.4)
        assert np.allclose(rotate_to_basis(rho, std, std), rho, atol=1e-14)

    @pytest.mark.parametrize("angles", [(0.3, 1.0, 2.8, 0.2), (1.5, 4.4, 0.9, 5.1)])
    def test_spectrum_and_entropy_preserved(self, angles):
        rho = bell_diagonal_state((0.3, -0.2, 0.4))
        ba, bb = local_basis_pair(LocalBasisAngles(*angles))
        rot = rotate_to_basis(rho, ba, bb)
        assert np.allclose(
            np.linalg.eigvalsh(rot), np.linalg.eigvalsh(rho), atol=1e-12
        )
        assert von_neumann_entropy(rot) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )

    @pytest.mark.parametrize("angles", [(0.6, 0.4, 1.9, 3.3), (2.9, 5.9, 0.1, 1.0)])
    def test_diagonal_equals_joint_distribution(self, angles):
        rho = werner_state(0.65)
        ba, bb = local_basis_pair(LocalBasisAngles(*angles))
        rot = rotate_to_basis(rho, ba, bb)
        d = joint_projective_distribution(rho, ba, bb)
        assert np.allclose(np.diag(rot).real, d.p.reshape(-1), atol=1e-12)

    def test_werner_quarter_turn_relabels_bell_sector(self):
        # The equal-angle pi/2 rotation sends the (z, -z, z) state to its
        # (z, z, -z) sibling: same spectrum, same quantifiers, relabeled
        # Bell sector, not the identical matrix.
        z = 0.5
        rho = werner_state(z)
        b = local_qubit_basis(math.pi / 2, math.pi / 2)
        rot = rotate_to_basis(rho, b, b)
        assert np.allclose(rot, bell_diagonal_state((z, z, -z)), atol=1e-12)
        rep = full_report((z, -z, z))
        rep_rot = full_report((z, z, -z))
        assert rep_rot == rep

    def test_full_turn_angles_leave_werner_fixed(self):
        z = 0.5
        rho = werner_state(z)
        b = local_qubit_basis(math.pi, math.pi)
        assert np.allclose(rotate_to_basis(rho, b, b), rho, atol=1e-12)


class TestAngleContainers:
    def test_local_angles_validated(self):
        with pytest.raises(ValueError):
            LocalBasisAngles(-0.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            LocalBasisAngles(0.0, 2 * math.pi, 0.0, 0.0)

    def test_complementary_angles_validated(self):
        with pytest.raises(ValueError):
            ComplementaryAngles(0.0, 7.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("which", ["theta", "phi"])
    def test_local_qubit_basis_rejects(self, which, bad):
        with pytest.raises(ValueError):
            local_qubit_basis(bad, 0.0) if which == "theta" else local_qubit_basis(0.0, bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("which", ["theta", "phi"])
    def test_local_qubit_basis_names_the_angle(self, which, bad):
        angles = {"theta": 0.3, "phi": 1.2, which: bad}
        with pytest.raises(ValueError, match=f"^{which} must be finite"):
            local_qubit_basis(angles["theta"], angles["phi"])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_complementary_qubit_basis_names_the_angle(self, bad):
        with pytest.raises(ValueError, match="^phi must be finite"):
            complementary_qubit_basis(bad, QubitBasis.standard())

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_joint_distribution_rejects(self, bad):
        with pytest.raises(ValueError):
            JointDistribution([[bad, 0.0], [0.0, 1.0]])

    def test_all_nan_table_is_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(np.full((2, 2), math.nan))


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.eye(2) / 2, r"expected one 4x4 two-qubit state, got shape \(2, 2\)"),
        (np.eye(4) / 2, "trace violated"),
        (np.diag([1.5, -0.5, 0.0, 0.0]), "positivity violated"),
        (np.full((4, 4), math.nan), "must be finite"),
    ],
    ids=["2x2", "trace-2", "not-psd", "nan"],
)
@pytest.mark.parametrize("fn", [joint_projective_distribution, dephase_in_basis, rotate_to_basis])
def test_basis_functions_reject_a_matrix_that_is_not_a_state(fn, rho, message):
    standard = QubitBasis.standard()
    with pytest.raises(ValueError, match=message):
        fn(rho, standard, standard)


def _random_bases(n, seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform((0.0, 0.0), (math.pi, 2.0 * math.pi), size=(n, 2))
    return [local_qubit_basis(theta, phi) for theta, phi in angles]


def test_product_kets_and_projectors_are_bitwise_kron():
    # The outer-product ket and the kron-free P (x) I give np.kron's bits,
    # signed zeros included, so the probabilities, dephased states and
    # discord projectors built from them keep their bits too; the state has
    # x != 0, so it is not Bell diagonal.
    bases = _random_bases(100, seed=4) + [QubitBasis.standard(), local_qubit_basis(math.pi, 0.5)]
    kets = [k for basis in bases for k in basis.kets]
    rng = np.random.default_rng(5)
    for ka, kb in zip(kets, rng.permutation(len(kets))):
        kb = kets[kb]
        assert (ka[:, None] * kb).ravel().tobytes() == np.kron(ka, kb).tobytes()
        projector = np.kron(np.outer(ka, ka.conj()), np.eye(2))
        assert _projector_on_a(ka).tobytes() == projector.tobytes()
    rho = bell_diagonal_state((0.7, -0.3, 0.5)) + 0.01 * np.kron(np.diag([1.0, -1.0]), np.eye(2))
    for basis_a, basis_b in zip(bases, bases[::-1]):
        p = np.empty((2, 2))
        products = [[np.kron(ka, kb) for kb in basis_b.kets] for ka in basis_a.kets]
        for i, j in np.ndindex(2, 2):
            v = products[i][j]
            p[i, j] = (v.conj() @ rho @ v).real
        joint = joint_projective_distribution(rho, basis_a, basis_b)
        assert joint.p.tobytes() == np.clip(p, 0.0, 1.0).tobytes()
        dephased = np.zeros((4, 4), dtype=complex)
        for i, j in np.ndindex(2, 2):
            v = products[i][j]
            dephased += joint.p[i, j] * np.outer(v, v.conj())
        assert dephase_in_basis(rho, basis_a, basis_b).tobytes() == dephased.tobytes()
