import hashlib
import math

import numpy as np
import pytest

from qcorr.channels import (
    DEPOLARIZING,
    PHASE_DAMPING,
    WERNER_MAPS,
    KrausChannel,
    apply_product_channel,
    correlation_trajectory,
    depolarized_werner_params,
    depolarizing_kraus,
    phase_damped_werner_params,
    phase_damping_kraus,
)
from qcorr.correlations import correlation_entropy_function
from qcorr.qstate import (
    InvalidStateError,
    bell_diagonal_state,
    bloch_decompose,
    partial_trace,
    validate_density,
    werner_state,
)

F_FIFTH = 0.029049405545331  # f(0.2)
F_QUARTER = 0.045565997075035  # f(0.25)
DISCORD_PHASE_DAMPED = 0.061278124459133
ESD_GAMMA = 1.0 - 3.0 ** -0.5  # depolarizing threshold at z = 1


def explicit_product_channel(rho, ch):
    """The operator sum term by term: the reference for the contraction."""
    out = np.zeros((4, 4), dtype=complex)
    for ei in ch.operators:
        for ej in ch.operators:
            k = np.kron(ei, ej)
            out += k @ rho @ k.conj().T
    return out


def amplitude_damping_kraus(gamma):
    # Neither symmetric nor unital, unlike the two provided sets, so a
    # transposed operator or a swapped index pair shows. The kind only
    # labels the channel; apply_product_channel reads the operators alone.
    e0 = np.diag([1.0, math.sqrt(1.0 - gamma)])
    e1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])
    return KrausChannel((e0, e1), gamma, PHASE_DAMPING)


def random_full_rank_states(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        g = rng.normal(size=(4, 4, 2)) @ (1.0, 1j)
        rho = g @ g.conj().T
        yield validate_density(rho / np.trace(rho).real)


FACTORIES = [depolarizing_kraus, phase_damping_kraus, amplitude_damping_kraus]


class TestKrausSets:
    @pytest.mark.parametrize("gamma", np.linspace(0, 1, 11))
    @pytest.mark.parametrize("factory", [depolarizing_kraus, phase_damping_kraus])
    def test_completeness(self, factory, gamma):
        assert factory(gamma).completeness_defect() <= 1e-12

    def test_depolarizing_operators(self):
        ch = depolarizing_kraus(0.5)
        assert np.allclose(ch.operators[0], math.sqrt(5 / 8) * np.eye(2), atol=1e-15)
        scale = math.sqrt(0.5) / 2
        assert abs(ch.operators[1][0, 1] - scale) < 1e-15
        assert abs(ch.operators[3][0, 0] - scale) < 1e-15

    def test_phase_damping_operators(self):
        ch = phase_damping_kraus(0.5)
        assert np.allclose(ch.operators[0], np.diag([1.0, math.sqrt(0.5)]), atol=1e-15)
        assert np.allclose(ch.operators[1], np.diag([0.0, math.sqrt(0.5)]), atol=1e-15)

    @pytest.mark.parametrize("factory", [depolarizing_kraus, phase_damping_kraus])
    @pytest.mark.parametrize("gamma", [-0.01, 1.01])
    def test_rejects_out_of_range_gamma(self, factory, gamma):
        with pytest.raises(ValueError):
            factory(gamma)

    def test_rejects_incomplete_operator_set(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((np.eye(2) * 0.5,), 0.0, DEPOLARIZING)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_operators(self, bad):
        op = np.eye(2, dtype=complex)
        op[1, 0] = bad
        with pytest.raises(ValueError, match=r"completeness violated by (nan|inf)"):
            KrausChannel((op,), 0.0, DEPOLARIZING)

    def test_rejects_overflowing_operators_without_a_warning(self):
        op = np.array([[1e308, 1e308], [1e308, -1e308]], dtype=complex)
        with pytest.raises(ValueError, match="completeness violated by inf"):
            KrausChannel((op,), 0.0, DEPOLARIZING)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 5.0, -0.5])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="interaction parameter gamma"):
            KrausChannel((np.eye(2),), gamma, PHASE_DAMPING)

    def test_gamma_is_stored_as_a_float(self):
        ch = KrausChannel((np.eye(2),), np.float64(0.25), PHASE_DAMPING)
        assert type(ch.gamma) is float and ch.gamma == 0.25

    @pytest.mark.parametrize("kind", ["amplitude_damping", "phase-damping", None, ["depolarizing"]])
    def test_rejects_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown channel kind"):
            KrausChannel((np.eye(2),), 0.0, kind)


class TestApplyProductChannel:
    @pytest.mark.parametrize("factory", [depolarizing_kraus, phase_damping_kraus])
    def test_zero_strength_is_identity(self, factory):
        rho = bell_diagonal_state((0.3, -0.2, 0.4))
        out = apply_product_channel(rho, factory(0.0))
        assert np.abs(out - rho).max() <= 1e-14

    def test_full_depolarizing_gives_maximally_mixed(self):
        for params in [(1, -1, 1), (0.3, -0.2, 0.4)]:
            out = apply_product_channel(bell_diagonal_state(params), depolarizing_kraus(1.0))
            assert np.abs(out - np.eye(4) / 4).max() <= 1e-14

    def test_full_phase_damping_kills_coherences(self):
        rho = werner_state(0.8)
        out = apply_product_channel(rho, phase_damping_kraus(1.0))
        assert np.allclose(out, np.diag(np.diag(rho)), atol=1e-14)

    def test_depolarized_werner_stays_werner(self):
        out = apply_product_channel(werner_state(0.8), depolarizing_kraus(0.5))
        assert np.abs(out - werner_state(0.8 * 0.25)).max() <= 1e-14

    def test_marginals_stay_maximally_mixed(self):
        out = apply_product_channel(werner_state(0.6), phase_damping_kraus(0.3))
        assert np.allclose(partial_trace(out, "A"), np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.77, 1.0])
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_contraction_equals_explicit_kraus_sum(self, factory, gamma):
        ch = factory(gamma)
        for rho in random_full_rank_states(11, 40):
            out = apply_product_channel(rho, ch)
            assert np.abs(out - explicit_product_channel(rho, ch)).max() <= 1e-15

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_marginal_of_output_is_channel_of_marginal(self, factory):
        # Tr_B[(Phi (x) Phi)(rho)] = Phi(Tr_B rho), since Phi preserves trace.
        ch = factory(0.42)
        for rho in random_full_rank_states(12, 10):
            marginal = partial_trace(rho, "A")
            expected = sum(e @ marginal @ e.conj().T for e in ch.operators)
            got = partial_trace(apply_product_channel(rho, ch), "A")
            assert np.abs(got - expected).max() <= 1e-15

    @pytest.mark.parametrize("gamma", [1.0, 0.9])
    def test_rejects_a_non_physical_input(self, gamma):
        with pytest.raises(InvalidStateError, match="positivity"):
            apply_product_channel(np.diag([1.5, -0.5, 0.0, 0.0]), depolarizing_kraus(gamma))

    @pytest.mark.parametrize("rho", [np.eye(2) / 2, np.stack([np.eye(4) / 4] * 3)])
    def test_rejects_anything_but_one_4x4_state(self, rho):
        shape = str(rho.shape).replace("(", r"\(").replace(")", r"\)")
        with pytest.raises(ValueError, match=f"4x4 two-qubit state, got shape {shape}"):
            apply_product_channel(rho, phase_damping_kraus(0.5))


class TestClosedFormMaps:
    def test_depolarized_spot_values(self):
        assert depolarized_werner_params(0.8, 0.0).as_tuple() == (0.8, -0.8, 0.8)
        assert depolarized_werner_params(0.8, 1.0).as_tuple() == (0.0, -0.0, 0.0)
        assert np.allclose(depolarized_werner_params(0.8, 0.5).as_tuple(), (0.2, -0.2, 0.2))

    def test_phase_damped_spot_values(self):
        assert phase_damped_werner_params(0.5, 0.0).as_tuple() == (0.5, -0.5, 0.5)
        assert np.allclose(phase_damped_werner_params(0.5, 1.0).as_tuple(), (0.0, 0.0, 0.5))
        assert np.allclose(
            phase_damped_werner_params(0.5, 0.5).as_tuple(), (0.25, -0.25, 0.5)
        )

    @pytest.mark.parametrize("z", np.linspace(0, 1, 6))
    @pytest.mark.parametrize("gamma", np.linspace(0, 1, 6))
    def test_kraus_route_matches_maps(self, z, gamma):
        rho = werner_state(z)
        for factory, param_map in (
            (depolarizing_kraus, depolarized_werner_params),
            (phase_damping_kraus, phase_damped_werner_params),
        ):
            bloch = bloch_decompose(apply_product_channel(rho, factory(gamma)))
            expected = param_map(z, gamma)
            assert np.abs(bloch.x).max() <= 1e-12
            assert np.abs(bloch.y).max() <= 1e-12
            assert np.allclose(
                np.diag(bloch.T), expected.as_tuple(), atol=1e-12
            )
            off = bloch.T - np.diag(np.diag(bloch.T))
            assert np.abs(off).max() <= 1e-12

    def test_depolarizing_semigroup_on_werner_parameter(self):
        z = 0.9
        g1, g2 = 0.3, 0.4
        once = apply_product_channel(
            apply_product_channel(werner_state(z), depolarizing_kraus(g1)),
            depolarizing_kraus(g2),
        )
        expected = z * (1 - g1) ** 2 * (1 - g2) ** 2
        assert np.allclose(
            np.diag(bloch_decompose(once).T), (expected, -expected, expected), atol=1e-12
        )


class TestTrajectories:
    def test_depolarizing_esd_onset(self):
        gammas = [0.0, 0.2, ESD_GAMMA, 0.6, 1.0]
        points = correlation_trajectory(1.0, gammas, DEPOLARIZING)
        assert points[0].report.concurrence == pytest.approx(1.0, abs=1e-10)
        assert points[1].report.concurrence > 0.0
        assert points[2].report.concurrence <= 1e-12  # exactly at threshold
        assert points[3].report.concurrence == 0.0
        # laqc only vanishes asymptotically
        assert all(p.report.laqc > 0.0 for p in points[:-1])
        assert points[-1].report.laqc == 0.0

    def test_depolarizing_spot_value(self):
        (point,) = correlation_trajectory(0.8, [0.5], DEPOLARIZING)
        assert point.report.laqc == pytest.approx(F_FIFTH, abs=1e-12)

    def test_phase_damping_spot_values(self):
        (point,) = correlation_trajectory(0.5, [0.5], PHASE_DAMPING)
        assert point.params.as_tuple() == pytest.approx((0.25, -0.25, 0.5))
        assert point.report.laqc == pytest.approx(F_QUARTER, abs=1e-12)
        assert point.report.discord == pytest.approx(DISCORD_PHASE_DAMPED, abs=1e-12)
        assert point.report.concurrence == 0.0

    @pytest.mark.parametrize("z", [0.2, 0.5, 0.9])
    def test_phase_damping_classical_equals_laqc(self, z):
        for point in correlation_trajectory(z, np.linspace(0, 1, 11), PHASE_DAMPING):
            assert point.report.classical == pytest.approx(point.report.laqc, abs=1e-14)

    def test_points_stay_physical(self):
        for kind in (DEPOLARIZING, PHASE_DAMPING):
            for point in correlation_trajectory(0.95, np.linspace(0, 1, 11), kind):
                assert point.params.is_physical(tol=1e-12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            correlation_trajectory(0.5, [0.1], "amplitude_damping")

    def test_gamma_zero_matches_undamped_report(self):
        from qcorr.correlations import full_report

        (point,) = correlation_trajectory(0.7, [0.0], DEPOLARIZING)
        assert point.report == full_report((0.7, -0.7, 0.7))


class TestWernerMapInputs:
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, 5.0, -0.1])
    @pytest.mark.parametrize("param_map", [depolarized_werner_params, phase_damped_werner_params])
    def test_rejects_bad_scalar_z(self, param_map, z):
        with pytest.raises(ValueError, match="werner parameter z must lie in"):
            param_map(z, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, 1.5])
    @pytest.mark.parametrize("param_map", [depolarized_werner_params, phase_damped_werner_params])
    def test_rejects_array_z_with_one_bad_value(self, param_map, bad):
        z = np.linspace(0.0, 1.0, 7)
        z[4] = bad
        with pytest.raises(ValueError, match=f"got {bad}"):
            param_map(z, 0.0)

    @pytest.mark.parametrize("param_map", [depolarized_werner_params, phase_damped_werner_params])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.95, 1.0])
    def test_array_z_is_bitwise_equal_to_scalar_calls(self, param_map, gamma):
        z = np.linspace(0.0, 1.0, 13)
        batch = param_map(z, gamma).as_tuple()
        for i, zi in enumerate(z):
            single = param_map(float(zi), gamma).as_tuple()
            assert [c[i].tobytes() for c in batch] == [np.float64(c).tobytes() for c in single]

    @pytest.mark.parametrize("kind", [DEPOLARIZING, PHASE_DAMPING])
    @pytest.mark.parametrize("nz, ng", [(5, 42), (21, 21), (23, 107)])
    def test_gamma_array_is_bitwise_equal_to_scalar_calls(self, kind, nz, ng):
        z, gammas = np.linspace(0.0, 1.0, nz), np.linspace(0.0, 1.0, ng)
        grid = WERNER_MAPS[kind](z[:, None], gammas).as_tuple()
        for i, zi in enumerate(z):
            for j, g in enumerate(gammas.tolist()):
                single = WERNER_MAPS[kind](zi, g).as_tuple()
                assert [c[i, j].tobytes() for c in grid] == [np.float64(c).tobytes() for c in single]

    @pytest.mark.parametrize("ng", [42, 107])
    def test_depolarizing_shrink_is_libm_pow_on_python_floats(self, ng):
        # numpy's array power (and np.square) computes x * x, which rounds
        # differently for one of the 42 gammas of the pinned 5x42 table.
        z, gammas = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, ng)
        c1 = depolarized_werner_params(z[:, None], gammas).c1
        want = np.array([[zi * (1.0 - g) ** 2 for g in gammas.tolist()] for zi in z.tolist()])
        assert c1.tobytes() == want.tobytes()
        libm = np.array([(1.0 - g) ** 2 for g in gammas.tolist()])
        assert np.square(1.0 - gammas).tobytes() != libm.tobytes()

    def test_z_and_gamma_arrays_broadcast(self):
        p = phase_damped_werner_params(np.array([[0.2], [0.9]]), np.array([0.0, 0.5, 1.0]))
        assert [np.shape(c) for c in p.as_tuple()] == [(2, 3)] * 3
        assert p.c3.tolist() == [[0.2] * 3, [0.9] * 3]
        assert depolarized_werner_params(np.array([0.5, 1.0]), 0.5).c1.tolist() == [0.125, 0.25]

    @pytest.mark.parametrize(
        "kind, z, n, digest",
        [
            (DEPOLARIZING, 0.7, 37, "8bc4060edea491ddf14fc3704aca5eb35088893e28e497bbb68292310cf63bb4"),
            (DEPOLARIZING, 0.65, 42, "c179c6c93a26bef1a597170eba0d19f2d33faa8890be0cae2aeae18b323cb247"),
            (PHASE_DAMPING, 0.7, 37, "eb9c05ffd1ad235dd8f71ee05bc89c9d24a5f15cf8c16128ce37d8e9f7f00baf"),
            (PHASE_DAMPING, 0.65, 42, "c6ba8b07490b62053cd1b1358c70d521a60e0e4baae377984c77198917c11e27"),
        ],
    )
    def test_trajectory_reprs_are_unchanged(self, kind, z, n, digest):
        # sha256 of the points' reprs, recorded when each point's triple was
        # its own scalar map call; the points now slice one grid.
        text = "\n".join(map(repr, correlation_trajectory(z, np.linspace(0.0, 1.0, n), kind)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind", [DEPOLARIZING, PHASE_DAMPING])
    def test_trajectory_triples_are_the_scalar_map_calls(self, kind):
        gammas = np.linspace(0.0, 1.0, 37).tolist()
        points = correlation_trajectory(0.7, gammas, kind)
        assert [repr(p.params) for p in points] == [repr(WERNER_MAPS[kind](0.7, g)) for g in gammas]

    @pytest.mark.parametrize("z", [5.0, math.nan, -0.1])
    @pytest.mark.parametrize("kind", [DEPOLARIZING, PHASE_DAMPING])
    def test_empty_gamma_grid_still_checks_z(self, kind, z):
        with pytest.raises(ValueError, match="werner parameter z must lie in"):
            correlation_trajectory(z, [], kind)

    @pytest.mark.parametrize("kind", [DEPOLARIZING, PHASE_DAMPING])
    def test_empty_gamma_grid_gives_empty_trajectory(self, kind):
        assert correlation_trajectory(0.5, [], kind) == []

    @pytest.mark.parametrize("z", [np.array([0.2, 0.5]), [0.5], np.zeros((2, 2))])
    def test_trajectory_rejects_non_scalar_z(self, z):
        shape = str(np.shape(z)).replace("(", r"\(").replace(")", r"\)")
        with pytest.raises(ValueError, match=f"one werner parameter z, got shape {shape}"):
            correlation_trajectory(z, [0.0, 0.5, 1.0], DEPOLARIZING)
