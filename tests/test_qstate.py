import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcorr.cli
from qcorr import qstate
import qcorr.correlations
from qcorr.channels import (
    DEPOLARIZING,
    PHASE_DAMPING,
    apply_product_channel,
    correlation_trajectory,
    depolarizing_kraus,
)
from qcorr.correlations import concurrence, full_report
from qcorr.qstate import (
    PSD_TOL,
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
from qcorr.bases import JointDistribution, QubitBasis, dephase_in_basis

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

    @pytest.mark.parametrize("kind", ["depolarizing", "phase-damping"])
    def test_channel_checks_its_grid_once(self, checks, kind, tmp_path):
        argv = ["channel", "--channel", kind, "--output", str(tmp_path / "out.csv")]
        assert qcorr.cli.main(argv) == 0
        assert checks == {"validate": 1, "validate_density": 0}

    def test_bell_diagonal_state_solves_nothing(self, checks, monkeypatch):
        # The checked triple certifies the matrix: it enters validate_density's
        # memo unsolved, and a later check of it is a hit.
        solves = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solves.append(m))
        rho = bell_diagonal_state(BellDiagonalParams(0.3, -0.2, 0.1))
        assert checks["validate_density"] == 0
        assert validate_density(rho).tobytes() == rho.tobytes()
        assert solves == []


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


NOT_ONE_4X4 = [np.eye(2) / 2, np.stack([I4] * 3), np.full(16, 0.0625), np.eye(3) / 3]


@pytest.mark.parametrize("rho", NOT_ONE_4X4, ids=["2x2", "stack", "flat", "3x3"])
@pytest.mark.parametrize(
    "fn",
    [bloch_decompose, lambda rho: partial_trace(rho, "A")],
    ids=["bloch_decompose", "partial_trace"],
)
def test_rejects_anything_but_one_4x4_matrix(fn, rho):
    shape = str(rho.shape).replace("(", r"\(").replace(")", r"\)")
    with pytest.raises(ValueError, match=f"expected one 4x4 two-qubit state, got shape {shape}"):
        fn(rho)


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

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.eye(4) / 2, "trace violated"),
            (np.diag([1.5, -0.5, 0.0, 0.0]), "positivity violated"),
            (np.full((4, 4), np.nan), "must be finite"),
        ],
        ids=["trace-2", "not-psd", "nan"],
    )
    @pytest.mark.parametrize("keep", ["A", "B"])
    def test_rejects_a_matrix_that_is_not_a_state(self, keep, rho, message):
        with pytest.raises(ValueError, match=message):
            partial_trace(rho, keep)


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


    @pytest.mark.parametrize(
        "spectrum", [(1.5, -0.5, 0.0, 0.0), (0.5, 0.5 + 2e-9, -2e-9)], ids=["4x4", "3x3"]
    )
    def test_rejects_a_negative_eigenvalue(self, spectrum):
        # diag(1.5, -0.5, 0, 0) read -0.877 bits before the check.
        with pytest.raises(InvalidStateError, match="positivity violated"):
            von_neumann_entropy(np.diag(spectrum))

    def test_counts_rounding_below_zero_as_zero(self):
        clamped = von_neumann_entropy(np.diag([0.5, 0.5 + 1e-10, 0.0, 0.0]))
        assert von_neumann_entropy(np.diag([0.5, 0.5 + 1e-10, -1e-10, 0.0])) == clamped

    @pytest.mark.parametrize(
        "rho", [np.full((2, 2), np.nan), [[np.inf, 0.0], [0.0, 0.0]]], ids=["nan", "inf"]
    )
    def test_rejects_a_non_finite_entry(self, rho):
        # Both read -0.0 bits before the check.
        with pytest.raises(ValueError, match="must be finite"):
            von_neumann_entropy(rho)


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

    @pytest.mark.parametrize(
        "rho, chi", [(I4, 2.0 * np.eye(4)), (np.eye(4), I4)], ids=["chi-trace-8", "rho-trace-4"]
    )
    def test_rejects_a_matrix_that_is_not_a_state(self, rho, chi):
        # These read -3.0 and 8.0 bits before the check.
        with pytest.raises(InvalidStateError, match="trace violated"):
            relative_entropy(rho, chi)

    @pytest.mark.parametrize("chi", [np.eye(2) / 2.0, np.stack([I4, I4])], ids=["2x2", "stack"])
    def test_rejects_anything_but_two_matrices_of_one_shape(self, chi):
        with pytest.raises(ValueError, match="single matrices of one shape"):
            relative_entropy(I4, chi)


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

    @pytest.mark.parametrize(
        "field", [0.5j, np.array([0.5j]), "0.5", np.array(["0.5"]), None],
        ids=["complex", "complex-array", "text", "text-array", "none"],
    )
    def test_field_that_is_not_real_rejected(self, field):
        # Not cast to float: that would drop an imaginary part or parse text.
        with pytest.raises(TypeError, match="Cannot cast"):
            BellDiagonalParams(field, 0.0, 0.0)

    def test_xlog2_scalar_gives_float(self):
        assert isinstance(xlog2(0.5), float)
        assert xlog2(0.5) == -0.5


@pytest.mark.parametrize(
    "make",
    [
        lambda: depolarizing_kraus(0.3),
        lambda: bloch_decompose(werner_state(0.5)),
        QubitBasis.standard,
        lambda: JointDistribution(np.full((2, 2), 0.25)),
    ],
    ids=["KrausChannel", "BlochParams", "QubitBasis", "JointDistribution"],
)
def test_array_holding_values_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert hash(a) == hash(a) and len({a, b}) == 2


W04, W06 = np.array(werner_state(0.4)), np.array(werner_state(0.6))


@pytest.fixture
def solves(monkeypatch):
    """The matrices validate_density hands to density_violations, in call order,
    from an empty memo."""
    seen = []
    check = qstate.density_violations

    def spy(m, *args, **kwargs):
        seen.append(np.array(m))
        return check(m, *args, **kwargs)

    monkeypatch.setattr(qstate, "density_violations", spy)
    qstate._ACCEPTED[0] = None
    return seen


class TestCheckMemo:
    """validate_density skips the eigensolve only for the bytes it last accepted
    at the default tolerances; everything else is checked in full."""

    def test_the_last_accepted_matrix_is_not_solved_again(self, solves):
        rho = W04.copy()
        for _ in range(3):
            assert validate_density(rho).tobytes() == rho.tobytes()
        assert len(solves) == 1

    def test_a_writable_matrix_changed_after_its_check_is_checked_again(self, solves):
        rho = W04.copy()
        validate_density(rho)
        rho[...] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(InvalidStateError, match="positivity"):
            validate_density(rho)
        assert len(solves) == 2

    def test_a_one_ulp_change_misses(self, solves):
        rho = W04.copy()
        validate_density(rho)
        rho[0, 0] = np.nextafter(rho[0, 0].real, 1.0)
        validate_density(rho)
        assert len(solves) == 2

    def test_the_memo_holds_one_entry(self, solves):
        a, b = W04, W06
        for m in (a, b, a, a, b):
            validate_density(m)
        assert [m.tobytes() for m in solves] == [a.tobytes(), b.tobytes(), a.tobytes(), b.tobytes()]

    def test_other_tolerances_neither_read_nor_fill_the_memo(self, solves):
        # rho's smallest eigenvalue, -1e-8, passes psd_tol=1e-6 but not the default.
        rho = np.diag([0.5 + 1e-8, 0.5, 0.0, -1e-8]).astype(complex)
        validate_density(rho, psd_tol=1e-6)
        with pytest.raises(InvalidStateError, match="positivity"):
            validate_density(rho)
        good = W04
        validate_density(good)
        validate_density(good, tol=1e-13)
        validate_density(good, psd_tol=1e-12)
        assert len(solves) == 5

    def test_stacks_bypass_the_memo(self, solves):
        stack = np.stack([W04] * 2)
        validate_density(stack)
        validate_density(stack)
        validate_density(stack[0])
        assert len(solves) == 3

    def test_the_kraus_chain_solves_only_the_channel_output(self, solves):
        rho = bell_diagonal_state((0.3, -0.2, 0.1))
        out = apply_product_channel(rho, depolarizing_kraus(0.3))
        bloch_decompose(out)
        concurrence(out)
        assert [m.tobytes() for m in solves] == [out.tobytes()]


class TestByContent:
    """qstate._by_content caches on each array argument's dtype, shape and bytes,
    and calls the function with read-only copies rebuilt from them."""

    @pytest.fixture
    def traced(self):
        seen = []

        @qstate._by_content(maxsize=4)
        def join(a, b):
            seen.append((a, b))
            return qstate._readonly(np.concatenate((a.ravel(), b.ravel())))

        return join, seen

    def test_equal_contents_share_one_read_only_result(self, traced):
        join, seen = traced
        a, b = np.arange(6.0), np.ones(2)
        first = join(a, b)
        assert join(a.copy(), b.copy()) is first
        assert join(list(a), b) is first  # not an array, but the same content
        ((got_a, got_b),) = seen
        for got, given in ((got_a, a), (got_b, b)):
            assert got.dtype == given.dtype and got.shape == given.shape
            assert not got.flags.writeable and not np.shares_memory(got, given)
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 1.0

    def test_the_same_bytes_under_another_shape_or_dtype_miss(self, traced):
        join, seen = traced
        a, b = np.arange(6.0), np.ones(2)
        for view in (a, a.reshape(2, 3), a.reshape(3, 2), a.view(np.int64), a.view(complex)):
            join(view, b)
        join(a, b.view(np.int64))
        assert [(x.dtype, x.shape, y.dtype) for x, y in seen] == [
            (np.dtype(float), (6,), np.dtype(float)),
            (np.dtype(float), (2, 3), np.dtype(float)),
            (np.dtype(float), (3, 2), np.dtype(float)),
            (np.dtype(np.int64), (6,), np.dtype(float)),
            (np.dtype(complex), (3,), np.dtype(float)),
            (np.dtype(float), (6,), np.dtype(np.int64)),
        ]

    def test_an_edited_array_misses_and_leaves_the_old_result_alone(self, traced):
        join, seen = traced
        a, b = np.arange(6.0), np.ones(2)
        first = join(a, b)
        a[0] = 9.0
        again = join(a, b)
        assert len(seen) == 2 and again[0] == 9.0 and first[0] == 0.0

    def test_the_cache_stays_bounded_and_clears(self, traced):
        join, seen = traced
        b = np.ones(2)
        for i in range(10):
            join(np.full(3, float(i)), b)
        join(np.full(3, 9.0), b)
        info = join.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 10, 4, 4)
        join.cache_clear()
        assert join.cache_info().currsize == 0
        join(np.full(3, 9.0), b)
        assert len(seen) == 11


class TestCheckedEntryPoints:
    """bloch_decompose and concurrence check their matrix; the private cores do not."""

    BAD = np.diag([1.5, -0.5, 0.0, 0.0])  # y_z = 2 and concurrence 0.0 unchecked

    @pytest.mark.parametrize("fn", [bloch_decompose, concurrence], ids=["bloch_decompose", "concurrence"])
    @pytest.mark.parametrize(
        "rho, invariant",
        [(BAD, "positivity"), (I4 * 1.1, "trace"), (I4 + 1e-6 * np.triu(np.ones((4, 4)), 1), "hermiticity")],
        ids=["positivity", "trace", "hermiticity"],
    )
    def test_rejects_a_matrix_that_is_not_a_density(self, fn, rho, invariant):
        with pytest.raises(InvalidStateError, match=invariant):
            fn(rho)

    def test_concurrence_rejects_a_bad_state_in_a_stack(self):
        with pytest.raises(InvalidStateError, match="positivity"):
            concurrence(np.stack([werner_state(0.5), self.BAD]))

    def test_the_unchecked_cores_take_it(self):
        assert qstate._bloch_decompose(self.BAD.astype(complex)).y[2] == 2.0
        assert qcorr.correlations._concurrence(self.BAD.astype(complex)) == 0.0

    def test_full_report_checks_no_matrix(self, monkeypatch):
        def refuse(m, *args, **kwargs):
            raise AssertionError("full_report validated a matrix")

        monkeypatch.setattr(qcorr.correlations, "validate_density", refuse)
        monkeypatch.setattr(qstate, "validate_density", refuse)
        t = np.linspace(0.0, 1.0, 41)
        assert np.count_nonzero(full_report(BellDiagonalParams(t, -t, t)).concurrence) > 0


def _triple_at_edge(c1, c2, k, delta):
    """(c1, c2, c3) with Bell eigenvalue k equal to -PSD_TOL + delta, up to rounding."""
    t = 4.0 * (delta - PSD_TOL)  # 4 lambda_k = 1 + s1 c1 + s2 c2 + s3 c3
    return c1, c2, [t - 1 - c1 + c2, t - 1 + c1 - c2, 1 + c1 + c2 - t, 1 - c1 - c2 - t][k]


class TestBellDiagonalCertificate:
    """bell_diagonal_state trusts its checked triple for one matrix, except
    within 1e-12 of the PSD_TOL edge, where the computed spectrum may round
    past it and the matrix is solved."""

    def test_the_spectrum_is_the_bell_eigenvalues_to_rounding(self):
        # 2.4e-16 at most on these triples (physical or not): far inside 1e-12.
        c = np.random.default_rng(1).uniform(-1.0, 1.0, (3, 20000))
        signs = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])
        lam = (1.0 + signs @ c) / 4.0
        m = qstate._bell_diagonal_matrix(*c)
        assert np.abs(np.linalg.eigvalsh(m).min(axis=1) - lam.min(axis=0)).max() < 1e-15

    def test_an_accepted_triple_at_the_edge_can_fail_the_eigensolve(self):
        # Why the margin exists: the triple passes, its matrix's computed
        # spectrum does not, so bell_diagonal_state solves it and rejects it.
        p = BellDiagonalParams(-0.46773945541541484, 0.07786881524437383, 0.610129363828959)
        m = qstate._bell_diagonal_matrix(*p.as_tuple())
        assert [v.invariant for v in density_violations(m)] == ["positivity"]
        with pytest.raises(InvalidStateError, match="positivity"):
            bell_diagonal_state(p)

    @settings(max_examples=400, deadline=None)
    @given(
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.integers(0, 3),
        st.floats(-1e-16, 1e-16) | st.floats(-1e-12, 3e-12),
    )
    @example(-0.46773945541541484, 0.07786881524437383, 2, 0.0)
    def test_no_unsolved_matrix_fails_the_eigensolve(self, c1, c2, k, delta):
        # Triples whose smallest Bell eigenvalue lies within 1e-12 of -PSD_TOL,
        # on both sides of the certificate's cut: every matrix returned passes
        # density_violations, and only the solved band may raise.
        try:
            p = BellDiagonalParams(*_triple_at_edge(c1, c2, k, delta))
        except ValueError:
            return
        try:
            rho = bell_diagonal_state(p)
        except InvalidStateError:
            assert p.bell_eigenvalues().min() < 1e-12 - PSD_TOL
            return
        assert density_violations(rho) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_every_built_state_passes_the_eigensolve(self, c):
        try:
            p = BellDiagonalParams(*c)
        except ValueError:
            return
        assert density_violations(bell_diagonal_state(p)) == []
