import math
import warnings

import numpy as np
import pytest

from qcorr import qstate
from qcorr.channels import DEPOLARIZING, PHASE_DAMPING, correlation_trajectory
from qcorr.correlations import full_report
from qcorr.qstate import (
    BellDiagonalParams,
    BlochParams,
    InvalidStateError,
    bell_diagonal_state,
    bloch_compose,
    bloch_decompose,
    density_violations,
    partial_trace,
    relative_entropy,
    validate_density,
    von_neumann_entropy,
    werner_state,
    xlog2,
)
from qcorr.bases import QubitBasis, dephase_in_basis

# Frozen via direct eigenvalue arithmetic: eigenvalues (1+3z)/4 and 3x (1-z)/4.
ENTROPY_WERNER_HALF = 1.548794940695398
ENTROPY_DEPHASED_WERNER_HALF = 1.811278124459133

I4 = np.eye(4) / 4.0
PHI_PLUS = np.zeros((4, 4))
PHI_PLUS[0, 0] = PHI_PLUS[0, 3] = PHI_PLUS[3, 0] = PHI_PLUS[3, 3] = 0.5


class TestBellDiagonalState:
    def test_maximally_mixed(self):
        assert np.allclose(bell_diagonal_state((0, 0, 0)), I4, atol=0)

    def test_bell_projector(self):
        assert np.allclose(bell_diagonal_state((1, -1, 1)), PHI_PLUS, atol=1e-15)

    def test_generic_triple_matrix(self):
        m = bell_diagonal_state((0.25, -0.25, 0.5))
        assert np.allclose(np.diag(m), [0.375, 0.125, 0.125, 0.375], atol=1e-15)
        assert abs(m[0, 3] - 0.125) < 1e-15
        assert abs(m[3, 0] - 0.125) < 1e-15
        assert abs(m[1, 2]) < 1e-15

    def test_rejects_nonphysical_triple(self):
        with pytest.raises(ValueError, match="psi_minus"):
            bell_diagonal_state((1, 1, 1))

    @pytest.mark.parametrize(
        "triple", [(math.nan, 0, 0), (0, math.inf, 0), (0, 0, -math.inf)]
    )
    def test_rejects_non_finite_triple(self, triple):
        with pytest.raises(ValueError, match="finite"):
            BellDiagonalParams(*triple).validate()

    def test_eigenvalues_fixed_order(self):
        lam = BellDiagonalParams(1, -1, 1).bell_eigenvalues()
        assert np.allclose(lam, [1.0, 0.0, 0.0, 0.0])


class TestTripleCheckedWhenBuilt:
    """Building a triple runs validate(), so a bad one raises with its message."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((math.nan, 0.0, 0.0), r"^correlation triple \(nan, 0\.0, 0\.0\) must be finite$"),
            (
                (0.9, 0.9, 0.9),
                r"^non-physical correlation triple \(0\.9, 0\.9, 0\.9\): "
                r"Bell eigenvalue psi_minus = -0\.425000 < 0$",
            ),
            ((np.zeros(3), np.zeros(2), np.zeros(3)), "inhomogeneous shape"),
            (
                (np.array([1e308]), np.array([-1e308]), np.array([1e308])),
                r"^non-physical correlation triple \(1e\+308, -1e\+308, 1e\+308\): "
                r"Bell eigenvalue phi_minus = -inf < 0$",
            ),
            (
                (0.0, 0.0, 1.000000002),  # psi_plus = -5e-10 is within PSD_TOL
                r"^non-physical correlation triple \(0\.0, 0\.0, 1\.000000002\): "
                r"c3 = 1\.000000002 lies outside \[-1, 1\]$",
            ),
        ],
        ids=["nan", "outside", "ragged", "overflow", "sliver"],
    )
    def test_bad_triple_is_not_built(self, fields, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                BellDiagonalParams(*fields)
        assert caught == []

    def test_boundary_rounding_is_built_but_fails_a_tighter_recheck(self):
        p = BellDiagonalParams(1.0, -1.0, 1 - 4e-10)  # phi_minus = -1e-10
        assert p.is_physical() and not p.is_physical(tol=1e-12)
        with pytest.raises(ValueError, match="phi_minus"):
            p.validate(tol=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coefficient_slack_is_built(self, sign):
        c = 1.0 + 5e-13
        p = BellDiagonalParams(sign * c, -c, sign * c)
        assert p.as_tuple() == (sign * c, -c, sign * c)

    def test_eigenvalue_message_wins_over_the_coefficient_one(self):
        with pytest.raises(ValueError, match="Bell eigenvalue psi_minus"):
            BellDiagonalParams(1.1, 1.1, 1.1)

    def test_array_names_the_first_coefficient_outside(self):
        c1 = np.array([0.5, 1.0, 1.000000002])
        c2 = np.array([0.0, -1.0, -1.000000002])
        with pytest.raises(ValueError, match=r"c1 = 1\.000000002 lies outside"):
            BellDiagonalParams(c1, c2, c1)

    def test_diagonal_correlations_rejects_nonphysical_diagonal(self):
        bloch = BlochParams(np.zeros(3), np.zeros(3), np.diag([2.0, 2.0, 2.0]))
        with pytest.raises(ValueError, match=r"non-physical correlation triple \(2\.0, 2\.0, 2\.0\)"):
            bloch.diagonal_correlations()


@pytest.fixture
def checks(monkeypatch):
    """Count BellDiagonalParams.validate and validate_density calls."""
    calls = {"validate": 0, "validate_density": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    validate = counted("validate", BellDiagonalParams.validate)
    monkeypatch.setattr(BellDiagonalParams, "validate", validate)
    monkeypatch.setattr(qstate, "validate_density", counted("validate_density", validate_density))
    return calls


class TestOneCheckPerTriple:
    """A built triple is trusted: its consumers do not check it again."""

    def test_full_report_on_a_built_grid_checks_nothing(self, checks):
        c = np.random.default_rng(9).uniform(-1 / 3, 1 / 3, (3, 600))  # sum |c_i| <= 1
        params = BellDiagonalParams(*c)
        checks.update(validate=0, validate_density=0)
        full_report(params)
        assert checks == {"validate": 0, "validate_density": 0}

    @pytest.mark.parametrize("kind", [DEPOLARIZING, PHASE_DAMPING])
    def test_trajectory_checks_one_triple_per_gamma_and_the_grid(self, checks, kind):
        correlation_trajectory(0.7, np.linspace(0.0, 1.0, 37), kind)
        assert checks == {"validate": 38, "validate_density": 0}

    def test_bell_diagonal_state_validates_once(self, checks):
        bell_diagonal_state(BellDiagonalParams(0.3, -0.2, 0.1))
        assert checks["validate_density"] == 1


class TestWernerState:
    def test_endpoints(self):
        assert np.allclose(werner_state(0.0), I4, atol=0)
        assert np.allclose(werner_state(1.0), PHI_PLUS, atol=1e-15)

    def test_halfway_matrix(self):
        m = werner_state(0.5)
        assert np.allclose(np.diag(m), [0.375, 0.125, 0.125, 0.375], atol=1e-15)
        assert abs(m[0, 3] - 0.25) < 1e-15

    @pytest.mark.parametrize("z", np.linspace(0, 1, 11))
    def test_matches_bell_diagonal_route(self, z):
        direct = werner_state(z)
        via_triple = bell_diagonal_state((z, -z, z))
        assert np.abs(direct - via_triple).max() <= 1e-15

    @pytest.mark.parametrize("z", [-0.1, 1.1])
    def test_rejects_out_of_range(self, z):
        with pytest.raises(ValueError):
            werner_state(z)


class TestBloch:
    def test_maximally_mixed_decomposition(self):
        b = bloch_decompose(I4)
        assert np.allclose(b.x, 0) and np.allclose(b.y, 0) and np.allclose(b.T, 0)

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0])
    def test_werner_decomposition(self, z):
        b = bloch_decompose(werner_state(z))
        assert np.allclose(b.x, 0, atol=1e-14)
        assert np.allclose(b.y, 0, atol=1e-14)
        assert np.allclose(b.T, np.diag([z, -z, z]), atol=1e-14)

    def test_phase_damped_triple(self):
        # (1-gamma) z on the first two axes, z on the third, at z=gamma=0.5
        rho = bell_diagonal_state((0.25, -0.25, 0.5))
        b = bloch_decompose(rho)
        assert np.allclose(b.T, np.diag([0.25, -0.25, 0.5]), atol=1e-14)

    @pytest.mark.parametrize(
        "params", [(0, 0, 0), (0.25, -0.25, 0.5), (1, -1, 1), (0.7, -0.3, 0.5)]
    )
    def test_compose_decompose_roundtrip(self, params):
        rho = bell_diagonal_state(params)
        again = bloch_compose(bloch_decompose(rho))
        assert np.abs(again - rho).max() <= 1e-12

    def test_compose_bell_state(self):
        b = bloch_decompose(PHI_PLUS)
        m = bloch_compose(b)
        assert np.allclose(m, PHI_PLUS, atol=1e-14)

    def test_compose_rejects_nonphysical(self):
        bad = bloch_decompose(I4)
        bad = type(bad)(bad.x, bad.y, np.diag([1.0, 1.0, 1.0]))
        with pytest.raises(InvalidStateError) as err:
            bloch_compose(bad)
        (violation,) = [v for v in err.value.violations if v.invariant == "positivity"]
        assert abs(violation.magnitude - 0.5) < 1e-12


class TestPartialTrace:
    @pytest.mark.parametrize("z", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("keep", ["A", "B"])
    def test_werner_marginals_maximally_mixed(self, z, keep):
        assert np.abs(partial_trace(werner_state(z), keep) - np.eye(2) / 2).max() <= 1e-15

    def test_bell_state_marginal(self):
        assert np.allclose(partial_trace(PHI_PLUS, "A"), np.eye(2) / 2, atol=1e-15)

    def test_product_state_factor(self):
        rho_a = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        rho_b = np.array([[0.2, 0.05j], [-0.05j, 0.8]], dtype=complex)
        rho = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(rho, "B"), rho_b, atol=1e-15)
        assert np.allclose(partial_trace(rho, "A"), rho_a, atol=1e-15)

    def test_bad_subsystem_name(self):
        with pytest.raises(ValueError):
            partial_trace(I4, "C")


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(PHI_PLUS) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(I4) == pytest.approx(2.0, abs=1e-12)

    def test_werner_half(self):
        assert von_neumann_entropy(werner_state(0.5)) == pytest.approx(
            ENTROPY_WERNER_HALF, abs=1e-12
        )

    @pytest.mark.parametrize(
        "params", [(0.1, -0.2, 0.3), (0.5, -0.5, 0.5), (0.25, -0.25, 0.5)]
    )
    def test_matches_closed_form_eigenvalues(self, params):
        rho = bell_diagonal_state(params)
        lam = BellDiagonalParams(*params).bell_eigenvalues()
        expected = -xlog2(lam).sum()
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = werner_state(0.3)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_bell_state_vs_maximally_mixed(self):
        assert relative_entropy(PHI_PLUS, I4) == pytest.approx(2.0, abs=1e-12)

    def test_werner_vs_computational_dephasing(self):
        rho = werner_state(0.5)
        std = QubitBasis.standard()
        chi = dephase_in_basis(rho, std, std)
        expected = ENTROPY_DEPHASED_WERNER_HALF - ENTROPY_WERNER_HALF
        assert relative_entropy(rho, chi) == pytest.approx(expected, abs=1e-10)
        assert relative_entropy(rho, chi) == pytest.approx(
            von_neumann_entropy(chi) - von_neumann_entropy(rho), abs=1e-10
        )

    def test_support_violation_is_infinite(self):
        assert relative_entropy(I4, PHI_PLUS) == math.inf


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        m = validate_density(I4)
        assert not m.flags.writeable

    def test_trace_violation_magnitude(self):
        bad = I4 * 1.1
        report = density_violations(bad)
        assert [v.invariant for v in report] == ["trace"]
        assert report[0].magnitude == pytest.approx(0.1, abs=1e-12)
        with pytest.raises(InvalidStateError):
            validate_density(bad)

    def test_positivity_violation_magnitude(self):
        sx, sy, sz = (
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        )
        m = 0.25 * (np.eye(4) + np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz))
        report = density_violations(m)
        assert [v.invariant for v in report] == ["positivity"]
        assert report[0].magnitude == pytest.approx(0.5, abs=1e-12)

    def test_hermiticity_violation(self):
        bad = I4.copy().astype(complex)
        bad[0, 1] += 1e-6
        report = density_violations(bad)
        assert report and report[0].invariant == "hermiticity"

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            density_violations(np.eye(3) / 3)


class TestNonFiniteAndStacks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("check", [density_violations, validate_density])
    def test_non_finite_entries_rejected(self, check, bad):
        m = I4.astype(complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            check(m)

    def test_stack_reports_worst_violation(self):
        stack = np.stack([I4, I4 * 1.1, I4 * 0.95])
        report = density_violations(stack)
        assert [v.invariant for v in report] == ["trace"]
        assert report[0].magnitude == pytest.approx(0.1, abs=1e-12)
        assert density_violations(np.stack([I4, PHI_PLUS])) == []

    def test_array_validate_names_first_bad_triple(self):
        c = np.array([0.1, 0.9, 0.2, 1.0])
        with pytest.raises(ValueError, match=r"\(0\.9, 0\.9, 0\.9\)"):
            BellDiagonalParams(c, c, c).validate()
        c3 = np.array([0.0, math.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"\(0\.0, 0\.9, nan\) must be finite"):
            BellDiagonalParams(c * 0, c, c3).validate()

    def test_empty_grid_gives_empty_stack(self):
        empty = BellDiagonalParams(np.empty(0), np.empty(0), np.empty(0))
        assert bell_diagonal_state(empty).shape == (0, 4, 4)

    def test_fields_of_unequal_shape_rejected(self):
        with pytest.raises(ValueError):
            BellDiagonalParams(np.zeros(3), np.zeros(2), np.zeros(3)).validate()

    @pytest.mark.parametrize(
        "fields, shapes",
        [
            ((np.zeros(3), np.zeros(2), np.zeros(3)), r"\(3,\), \(2,\), \(3,\)"),
            ((0.1, np.zeros(2), 0.1), r"\(\), \(2,\), \(\)"),
        ],
    )
    def test_unequal_shapes_named(self, fields, shapes):
        message = f"^BellDiagonalParams fields must share one shape, got the inhomogeneous shapes {shapes}$"
        with pytest.raises(ValueError, match=message):
            BellDiagonalParams(*fields)

    def test_xlog2_scalar_gives_float(self):
        assert isinstance(xlog2(0.5), float)
        assert xlog2(0.5) == -0.5
