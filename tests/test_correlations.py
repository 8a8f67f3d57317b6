import math

import numpy as np
import pytest

import qcorr.correlations
from qcorr.bases import JointDistribution
from qcorr.channels import WERNER_MAPS, _werner_grid
from qcorr.correlations import (
    CorrelationReport,
    classical_correlations_bd,
    concurrence,
    concurrence_werner,
    correlation_entropy_function,
    discord_bd,
    discord_werner,
    full_report,
    laqc_bd,
    mutual_information,
)
from qcorr.qstate import SIGMA_Y, BellDiagonalParams, bell_diagonal_state, werner_state

# Frozen via direct arithmetic on the closed forms (independent evaluation).
F_HALF = 0.188721875540867
F_QUARTER = 0.045565997075035
DISCORD_WERNER_HALF = 0.262483183763734
DISCORD_PHASE_DAMPED = 0.061278124459133  # triple (0.25, -0.25, 0.5)

Z_GRID = np.linspace(0.01, 0.99, 99)


class TestEntropyFunction:
    def test_endpoints(self):
        assert correlation_entropy_function(0.0) == 0.0
        assert correlation_entropy_function(1.0) == pytest.approx(1.0, abs=1e-15)
        assert correlation_entropy_function(-1.0) == pytest.approx(1.0, abs=1e-15)

    def test_halfway(self):
        assert correlation_entropy_function(0.5) == pytest.approx(F_HALF, abs=1e-12)

    def test_even(self):
        for c in np.linspace(0, 1, 21):
            assert correlation_entropy_function(c) == pytest.approx(
                correlation_entropy_function(-c), abs=1e-15
            )

    def test_monotone_on_unit_interval(self):
        vals = [correlation_entropy_function(c) for c in np.linspace(0, 1, 101)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            correlation_entropy_function(1.5)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, c):
        with pytest.raises(ValueError):
            correlation_entropy_function(c)

    def test_matches_mutual_information_of_matching_table(self):
        # f(c) is the mutual information of the two-outcome table
        # p(i, j) = (1 + (-1)^{i+j} c)/4 with uniform marginals.
        for c in (0.2, 0.5, 0.8):
            p = np.array([[1 + c, 1 - c], [1 - c, 1 + c]]) / 4.0
            mi = mutual_information(JointDistribution(p))
            assert mi == pytest.approx(correlation_entropy_function(c), abs=1e-12)


class TestMutualInformation:
    def test_uniform_is_zero(self):
        assert mutual_information(JointDistribution(np.full((2, 2), 0.25))) == 0.0

    def test_perfect_correlation_is_one_bit(self):
        d = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(d) == pytest.approx(1.0, abs=1e-15)

    def test_werner_half_distribution(self):
        p = np.array([[0.375, 0.125], [0.125, 0.375]])
        assert mutual_information(JointDistribution(p)) == pytest.approx(
            F_HALF, abs=1e-12
        )


class TestClassicalAndLaqc:
    def test_werner_reduces_to_f(self):
        for z in (0.1, 0.5, 0.9):
            f = correlation_entropy_function(z)
            assert classical_correlations_bd((z, -z, z)) == pytest.approx(f, abs=0)
            assert laqc_bd((z, -z, z)) == pytest.approx(f, abs=0)

    def test_generic_triple(self):
        params = (0.25, -0.25, 0.5)  # c_min = c_max = 0.25
        assert classical_correlations_bd(params) == pytest.approx(F_QUARTER, abs=1e-12)
        assert laqc_bd(params) == pytest.approx(F_QUARTER, abs=1e-12)

    def test_zero_triple(self):
        assert classical_correlations_bd((0, 0, 0)) == 0.0
        assert laqc_bd((0, 0, 0)) == 0.0

    def test_selection_rules(self):
        # classical looks at min{|c2|, |c3|}, laqc at max{|c1|, |c2|}
        params = (0.7, -0.3, 0.5)
        assert classical_correlations_bd(params) == pytest.approx(
            correlation_entropy_function(0.3), abs=1e-15
        )
        assert laqc_bd(params) == pytest.approx(
            correlation_entropy_function(0.7), abs=1e-15
        )

    @pytest.mark.parametrize(
        "triple, message",
        [((0.9, 0.9, 0.9), "non-physical"), ((math.nan, 0.0, 0.0), "must be finite")],
    )
    @pytest.mark.parametrize("quantifier", [classical_correlations_bd, laqc_bd])
    def test_rejects_bad_triple(self, quantifier, triple, message):
        with pytest.raises(ValueError, match=message):
            quantifier(triple)

    def test_equal_whenever_selections_coincide(self):
        for z in Z_GRID:
            assert abs(
                classical_correlations_bd((z, -z, z)) - laqc_bd((z, -z, z))
            ) <= 1e-15


class TestDiscord:
    def test_zero_triple(self):
        assert discord_bd((0, 0, 0)) == 0.0

    def test_matches_werner_closed_form_on_grid(self):
        for z in Z_GRID:
            assert abs(discord_bd((z, -z, z)) - discord_werner(z)) <= 1e-12

    def test_phase_damped_triple(self):
        assert discord_bd((0.25, -0.25, 0.5)) == pytest.approx(
            DISCORD_PHASE_DAMPED, abs=1e-12
        )

    def test_werner_spot_values(self):
        assert discord_werner(0.0) == 0.0
        assert discord_werner(1.0) == pytest.approx(1.0, abs=1e-12)
        assert discord_werner(0.5) == pytest.approx(DISCORD_WERNER_HALF, abs=1e-12)

    def test_dominates_laqc_strictly_inside_unit_interval(self):
        for z in Z_GRID:
            gap = discord_werner(z) - laqc_bd((z, -z, z))
            assert gap >= -1e-12
            assert gap > 1e-6  # strict in the interior

    def test_nonnegative(self):
        for params in [(0.3, 0.3, -0.3), (0.9, -0.9, 0.9), (0.1, 0.0, 0.0)]:
            assert discord_bd(params) >= 0.0


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(bell_diagonal_state((1, -1, 1))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_werner_threshold(self):
        assert concurrence_werner(1 / 3) == 0.0
        assert concurrence_werner(0.2) == 0.0
        assert concurrence_werner(0.5) == pytest.approx(0.25, abs=1e-15)
        assert concurrence_werner(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_wootters_route_matches_closed_form(self):
        for z in np.linspace(0, 1, 21):
            assert concurrence(werner_state(z)) == pytest.approx(
                concurrence_werner(z), abs=1e-10
            )

    def test_phase_damped_closed_form(self):
        # max{0, z(3 - 2 gamma)/2 - 1/2} for the triple ((1-g)z, -(1-g)z, z)
        for z in (0.3, 0.5, 0.9):
            for g in (0.0, 0.25, 0.5, 0.75, 1.0):
                rho = bell_diagonal_state(((1 - g) * z, -(1 - g) * z, z))
                expected = max(0.0, z * (3 - 2 * g) / 2 - 0.5)
                assert concurrence(rho) == pytest.approx(expected, abs=1e-10)

    def test_separable_werner(self):
        assert concurrence(werner_state(0.2)) == 0.0

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2), (4, 2), (3, 4, 3), (2, 2, 2, 2)])
    def test_rejects_anything_but_4x4_states(self, shape):
        message = f"4x4 two-qubit states, got shape {shape}".replace("(", r"\(").replace(")", r"\)")
        with pytest.raises(ValueError, match=message):
            concurrence(np.full(shape, 0.25))

    def test_accepts_a_stack_and_an_empty_stack(self):
        assert concurrence(np.broadcast_to(werner_state(1.0), (2, 3, 4, 4))).shape == (2, 3)
        assert concurrence(np.empty((0, 4, 4))).shape == (0,)


def matmul_flip_concurrence(rho):
    """The spin flip as the two matmuls with sigma_y (x) sigma_y: the reference
    for the signed permutation."""
    sysy = np.kron(SIGMA_Y, SIGMA_Y)
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    spec = np.linalg.eigvalsh(sqrt_rho @ (sysy @ rho.conj() @ sysy) @ sqrt_rho)
    lam = np.sqrt(np.maximum(spec, 0.0))
    c = lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]
    return np.where(c > 0.0, c, 0.0)[()]


def _triples_from_weights(lam):
    """Correlation triples (rows) of Bell weights lam (rows over phi+, phi-, psi+, psi-)."""
    l0, l1, l2, l3 = np.asarray(lam, dtype=float).T
    return np.column_stack((l0 - l1 + l2 - l3, -l0 + l1 + l2 - l3, l0 + l1 - l2 - l3))


def _random_full_rank_states(n, seed):
    g = np.random.default_rng(seed).normal(size=(n, 4, 4, 2)) @ (1.0, 1j)
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def _bell_diagonal_stacks():
    lam = np.random.default_rng(31).dirichlet(np.ones(4), 500)
    yield bell_diagonal_state(BellDiagonalParams(*_triples_from_weights(lam).T))
    z = np.linspace(0.0, 1.0, 21)
    for kind in WERNER_MAPS:
        yield bell_diagonal_state(_werner_grid(kind, z, z))
    t = np.linspace(0.0, 1.0, 101)
    yield bell_diagonal_state(BellDiagonalParams(t, -t, t))


class TestSignedPermutationFlip:
    @pytest.mark.parametrize("stack", [*_bell_diagonal_stacks(), _random_full_rank_states(2000, 5)])
    def test_concurrence_is_bitwise_the_matmul_route(self, stack):
        assert concurrence(stack).tobytes() == matmul_flip_concurrence(stack).tobytes()

    def test_flip_equals_the_matmul_flip(self):
        rho = _random_full_rank_states(200, 6)
        sysy = np.kron(SIGMA_Y, SIGMA_Y)
        flipped = rho.conj()[..., ::-1, ::-1] * qcorr.correlations._FLIP_SIGNS
        assert np.array_equal(flipped, sysy @ rho.conj() @ sysy)


@pytest.fixture
def spin_flip_inputs(monkeypatch):
    """Every matrix full_report hands to the spin-flip concurrence, in call order."""
    seen = []
    solve = qcorr.correlations._concurrence

    def spy(rho):
        seen.extend(rho)
        return solve(rho)

    monkeypatch.setattr(qcorr.correlations, "_concurrence", spy)
    return seen


def _wootters_excess(states):
    """2 lambda_max - 1 of each Bell-diagonal state, from its spectrum."""
    return 2.0 * np.linalg.eigvalsh(np.array(states)).max(axis=-1) - 1.0


class TestCertifiedZeroSkip:
    MARGIN = qcorr.correlations._SEPARABLE_MARGIN

    def test_margin_is_over_100_times_the_spin_flip_error(self):
        # The largest |spin flip - (2 lambda_max - 1)| measured on 1.6 million
        # triples was 1.7e-8, on rank-deficient ones; 1.8e-8 allows for more.
        assert self.MARGIN >= 100 * 1.8e-8

    @pytest.mark.parametrize("kind, live", [("depolarizing", 83), ("phase_damping", 198)])
    def test_only_the_entangled_cells_of_the_default_grid_reach_the_spin_flip(
        self, spin_flip_inputs, kind, live
    ):
        # 83 of the 441 depolarizing cells (358 certified zero, 81%) and 198 of
        # the phase-damping ones, 3 of them exactly at threshold (z(3 - 2 gamma) = 1).
        z = np.linspace(0.0, 1.0, 21)
        rep = full_report(_werner_grid(kind, z, z))
        assert len(spin_flip_inputs) == live
        assert _wootters_excess(spin_flip_inputs).min() >= -1e-12
        assert np.count_nonzero(rep.concurrence) <= live

    def test_the_margin_band_reaches_the_spin_flip(self, spin_flip_inputs):
        # Separable triples closer to the boundary than the margin are left to
        # the spin flip, which returns its exact 0.0 for them.
        delta = np.array([-0.9, -0.5, -0.1, -0.01]) * self.MARGIN
        lam = np.column_stack((0.5 + delta / 2, 0.5 + delta / 2, -delta / 2, -delta / 2))
        for weights in (lam, lam[:, [2, 3, 0, 1]], (lam + [0, -0.2, 0.1, 0.1])):
            spin_flip_inputs.clear()
            rep = full_report(BellDiagonalParams(*_triples_from_weights(weights).T))
            assert len(spin_flip_inputs) == len(delta)
            assert np.all(rep.concurrence == 0.0)

    def test_separable_triples_beyond_the_margin_make_no_call(self, spin_flip_inputs):
        lam = np.random.default_rng(3).dirichlet(np.ones(4), 300)
        lam = lam[2.0 * lam.max(axis=1) - 1.0 < -self.MARGIN]
        rep = full_report(BellDiagonalParams(*_triples_from_weights(lam).T))
        assert spin_flip_inputs == [] and len(lam) > 100
        assert rep.concurrence.tobytes() == np.zeros(len(lam)).tobytes()


class TestFullReport:
    def test_maximally_mixed_all_exactly_zero(self):
        rep = full_report((0, 0, 0))
        assert rep == CorrelationReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_bell_state_all_maximal(self):
        rep = full_report((1, -1, 1))
        for v in (rep.classical, rep.laqc, rep.discord, rep.concurrence):
            assert v == pytest.approx(1.0, abs=1e-10)

    def test_werner_half(self):
        rep = full_report((0.5, -0.5, 0.5))
        assert rep.classical == pytest.approx(F_HALF, abs=1e-12)
        assert rep.laqc == pytest.approx(F_HALF, abs=1e-12)
        assert rep.discord == pytest.approx(DISCORD_WERNER_HALF, abs=1e-12)
        assert rep.concurrence == pytest.approx(0.25, abs=1e-10)
        assert rep.c_min == 0.5 and rep.c_max == 0.5

    def test_propagates_nonphysical_error(self):
        with pytest.raises(ValueError):
            full_report((1, 1, 1))
