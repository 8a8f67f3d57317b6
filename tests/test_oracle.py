import math

import numpy as np
import pytest

from qcorr.bases import (
    QubitBasis,
    complementary_qubit_basis,
    dephase_in_basis,
    joint_projective_distribution,
    local_basis_pair,
    local_qubit_basis,
)
from qcorr.correlations import (
    correlation_entropy_function,
    discord_bd,
    discord_werner,
    laqc_bd,
    mutual_information,
)
from qcorr.oracle import (
    GridSpec,
    _laqc_rows,
    audit_closed_forms,
    brute_force_discord,
    maximize_laqc,
    minimize_relative_entropy_basis,
)
from qcorr.qstate import bell_diagonal_state, bloch_decompose, relative_entropy, werner_state

# Small grids keep the unit tests quick; the acceptance suite runs the
# full 64-step searches.
SMALL = GridSpec(steps_theta=16, steps_phi=16, steps_comp_phi=16)
MEDIUM = GridSpec(steps_theta=32, steps_phi=32, steps_comp_phi=32)

STANDARD_PAIR = (QubitBasis.standard(), QubitBasis.standard())
X_PAIR = (local_qubit_basis(math.pi / 2, 0.0), local_qubit_basis(math.pi / 2, 0.0))
GENERIC_PAIR = (local_qubit_basis(0.9, 1.3), local_qubit_basis(2.1, 4.0))


class TestGridSpec:
    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            GridSpec(steps_theta=1)

    @pytest.mark.parametrize("steps", [2.5, 4.0, math.nan, "4"])
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(steps, 4, 4)

    def test_accepts_numpy_integers(self):
        grid = GridSpec(np.int64(4), np.int32(4), np.uint8(4), refine=False)
        res = minimize_relative_entropy_basis(werner_state(0.5), grid)
        assert res == minimize_relative_entropy_basis(werner_state(0.5), GridSpec(4, 4, 4, False))


class TestClassicalOracle:
    def test_werner_finds_standard_basis(self):
        rho = werner_state(0.5)
        res = minimize_relative_entropy_basis(rho, SMALL)
        a = res.best_angles
        assert (a.theta_a, a.phi_a, a.theta_b, a.phi_b) == (0.0, 0.0, 0.0, 0.0)
        assert res.objective == pytest.approx(
            correlation_entropy_function(0.5), abs=1e-12
        )
        assert abs(res.gap) <= 1e-12

    def test_werner_minimum_also_attained_at_quarter_turn(self):
        # Both angle families reach the same minimal relative entropy.
        rho = werner_state(0.5)
        std = QubitBasis.standard()
        quarter = local_qubit_basis(math.pi / 2, math.pi / 2)
        s_standard = relative_entropy(rho, dephase_in_basis(rho, std, std))
        s_quarter = relative_entropy(rho, dephase_in_basis(rho, quarter, quarter))
        assert s_quarter == pytest.approx(s_standard, abs=1e-12)

    def test_diagonal_product_state(self):
        rho = np.kron(np.diag([0.6, 0.4]), np.diag([0.3, 0.7])).astype(complex)
        res = minimize_relative_entropy_basis(rho, SMALL)
        a = res.best_angles
        assert (a.theta_a, a.phi_a, a.theta_b, a.phi_b) == (0.0, 0.0, 0.0, 0.0)
        basis = local_basis_pair(a)
        assert relative_entropy(rho, dephase_in_basis(rho, *basis)) <= 1e-12
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        # not Bell diagonal: no closed form applies
        assert res.closed_form is None and res.gap is None

    def test_asymmetric_triple_exposes_selection_gap(self):
        rho = bell_diagonal_state((0.7, -0.3, 0.5))
        res = minimize_relative_entropy_basis(rho, MEDIUM)
        # exhaustive search settles on the largest-|c| axis
        assert res.objective == pytest.approx(
            correlation_entropy_function(0.7), abs=1e-4
        )
        expected_gap = correlation_entropy_function(0.7) - correlation_entropy_function(0.3)
        assert res.gap == pytest.approx(expected_gap, abs=1e-4)

    def test_refinement_never_worsens(self):
        rho = bell_diagonal_state((0.7, -0.3, 0.5))
        coarse = minimize_relative_entropy_basis(
            rho, GridSpec(steps_theta=24, steps_phi=24, steps_comp_phi=24, refine=False)
        )
        refined = minimize_relative_entropy_basis(
            rho, GridSpec(steps_theta=24, steps_phi=24, steps_comp_phi=24, refine=True)
        )
        assert refined.objective >= coarse.objective - 1e-12


class TestLaqcOracle:
    def test_werner_reaches_f_at_zero_phase(self):
        rho = werner_state(0.5)
        res = maximize_laqc(rho, STANDARD_PAIR, SMALL)
        assert (res.best_angles.phi_a, res.best_angles.phi_b) == (0.0, 0.0)
        assert res.objective == pytest.approx(
            correlation_entropy_function(0.5), abs=1e-12
        )

    def test_maximally_mixed_is_flat_zero(self):
        res = maximize_laqc(np.eye(4) / 4, STANDARD_PAIR, SMALL)
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_triple_matches_largest_in_plane_coefficient(self):
        rho = bell_diagonal_state((0.7, -0.3, 0.5))
        res = maximize_laqc(rho, STANDARD_PAIR, MEDIUM)
        assert res.objective == pytest.approx(laqc_bd((0.7, -0.3, 0.5)), abs=1e-10)
        assert abs(res.gap) <= 1e-10

    def test_rotated_computational_basis_changes_the_plane(self):
        # Complementary to the x-axis basis, the reachable coefficients are
        # c2 and c3, so the search tops out at f(max{|c2|, |c3|}).
        rho = bell_diagonal_state((0.7, -0.3, 0.5))
        x_basis = local_qubit_basis(math.pi / 2, 0.0)
        res = maximize_laqc(rho, (x_basis, x_basis), MEDIUM)
        assert res.objective == pytest.approx(
            correlation_entropy_function(0.5), abs=1e-4
        )


@pytest.mark.parametrize("pair", [X_PAIR, GENERIC_PAIR], ids=["x", "generic"])
def test_laqc_table_matches_ket_route(pair):
    # The search table runs on Bloch parameters; every entry must equal
    # minus the mutual information of the explicit ket-route distribution.
    rng = np.random.default_rng(11)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    phis = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    table = _laqc_rows(bloch_decompose(rho), *pair, phis, phis)(0, phis.size)
    assert table.shape == (8, 8)
    for i, phi_a in enumerate(phis):
        for j, phi_b in enumerate(phis):
            dist = joint_projective_distribution(
                rho,
                complementary_qubit_basis(phi_a, pair[0]),
                complementary_qubit_basis(phi_b, pair[1]),
            )
            assert table[i, j] == pytest.approx(-mutual_information(dist), abs=1e-12)


class TestDiscordOracle:
    def test_maximally_mixed(self):
        res = brute_force_discord(np.eye(4) / 4, SMALL)
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_werner_half(self):
        res = brute_force_discord(werner_state(0.5), SMALL)
        assert res.objective == pytest.approx(discord_werner(0.5), abs=1e-10)
        assert abs(res.gap) <= 1e-10

    def test_phase_damped_triple(self):
        rho = bell_diagonal_state((0.25, -0.25, 0.5))
        res = brute_force_discord(rho, MEDIUM)
        assert res.objective == pytest.approx(
            discord_bd((0.25, -0.25, 0.5)), abs=1e-4
        )


class TestAudit:
    def test_werner_gaps_vanish(self):
        audit = audit_closed_forms((0.5, -0.5, 0.5), SMALL)
        assert audit.max_abs_gap() <= 1e-10

    def test_zero_triple_gaps_vanish(self):
        audit = audit_closed_forms((0, 0, 0), SMALL)
        assert audit.max_abs_gap() <= 1e-12

    def test_asymmetric_triple_records_without_asserting(self):
        audit = audit_closed_forms((0.7, -0.3, 0.5), MEDIUM)
        assert audit.classical.gap > 0.3  # the selection-rule gap, recorded
        assert abs(audit.laqc.gap) <= 1e-8
        assert abs(audit.discord.gap) <= 1e-4

    def test_exchange_symmetry_of_inputs(self):
        # Bell-diagonal states are exchange symmetric, so swapping the
        # subsystems changes nothing the oracles can see.
        rho = bell_diagonal_state((0.6, -0.2, 0.3))
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        swapped = swap @ rho @ swap
        assert np.abs(swapped - rho).max() <= 1e-15
        a = brute_force_discord(rho, SMALL)
        b = brute_force_discord(swapped, SMALL)
        assert a.objective == pytest.approx(b.objective, abs=1e-12)
