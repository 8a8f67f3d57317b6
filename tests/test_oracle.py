import math

import numpy as np
import pytest

from qcorr import oracle
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
    _holevo_gate,
    _laqc_plane,
    _laqc_rows,
    audit_closed_forms,
    brute_force_discord,
    maximize_laqc,
    minimize_relative_entropy_basis,
)
from qcorr.cli import main
from qcorr.qstate import (
    InvalidStateError,
    _partial_trace,
    bell_diagonal_state,
    bloch_decompose,
    partial_trace,
    relative_entropy,
    werner_state,
    xlog2,
)

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
    bloch, planes = bloch_decompose(rho), [_laqc_plane(b) for b in pair]
    table = _laqc_rows(bloch, *planes, _holevo_gate(bloch, *planes), phis, phis)(0, phis.size)
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

    def test_each_oracle_decomposes_its_state_once(self, monkeypatch):
        # The three oracles of an audit share one check of its matrix, and
        # each closed form is read off the Bloch parameters the search used.
        oracle._checked_of.cache_clear()
        calls = []

        def counting(rho):
            calls.append(1)
            return bloch_decompose(rho)

        monkeypatch.setattr(oracle, "_bloch_decompose", counting)
        audit = audit_closed_forms((0.7, -0.3, 0.5), SMALL)
        assert len(calls) == 1
        assert audit.classical.closed_form is not None

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


@pytest.mark.parametrize(
    "rho, message",
    [
        (2.0 * np.eye(4), "trace violated"),
        (np.full((4, 4), math.nan), "entries must be finite"),
        # Densities of the wrong size are named by their shape, not by a
        # broadcast error from inside the check.
        (np.eye(2) / 2, r"4x4 two-qubit state, got shape \(2, 2\)"),
        (np.eye(3) / 3, r"4x4 two-qubit state, got shape \(3, 3\)"),
    ],
    ids=["twice-identity", "nan", "one-qubit", "qutrit"],
)
@pytest.mark.parametrize(
    "search",
    [
        minimize_relative_entropy_basis,
        lambda rho, grid: maximize_laqc(rho, (QubitBasis.standard(),) * 2, grid),
        brute_force_discord,
    ],
    ids=["classical", "laqc", "discord"],
)
def test_oracles_reject_a_matrix_that_is_not_a_density(search, rho, message):
    with pytest.raises(ValueError, match=message):
        search(rho, SMALL)


def test_discord_accepts_a_state_at_the_positivity_tolerance():
    # rho passes validate_density, but rho_A = diag(-1.8e-9, 1 + 1.8e-9)
    # sums two of its negative eigenvalues past -PSD_TOL.
    rho = np.diag([-0.9e-9, -0.9e-9, 0.5 + 0.9e-9, 0.5 + 0.9e-9]).astype(complex)
    assert brute_force_discord(rho, SMALL).objective == pytest.approx(0.0, abs=1e-7)


def _five_solve_discord(rho, theta, phi):
    """The discord objective with one eigensolve per entropy: the reference."""

    def entropy(m):
        return float(-xlog2(np.linalg.eigvalsh(m)).sum())

    s_b = entropy(partial_trace(rho, "B"))
    total = entropy(partial_trace(rho, "A")) + s_b - entropy(rho)
    cond = 0.0
    for ket in local_qubit_basis(theta, phi).kets:
        proj = oracle._projector_on_a(ket)
        weight = float(np.trace(proj @ rho).real)
        if weight > 1e-14:
            # The outcome's unnormalized state: its trace is the weight, not 1.
            cond += weight * entropy(_partial_trace(proj @ rho @ proj, "B") / weight)
    return total - (s_b - cond)


def _loop_over_kets_discord(rho, theta, phi):
    """The discord objective with the projectors formed ket by ket: the reference
    for the batched route."""
    outcomes = []
    for ket in local_qubit_basis(theta, phi).kets:
        proj = oracle._projector_on_a(ket)
        weight = float(np.trace(proj @ rho).real)
        if weight > 1e-14:
            outcomes.append((weight, _partial_trace(proj @ rho @ proj, "B") / weight))
    reduced = [partial_trace(rho, "B"), partial_trace(rho, "A"), *(tau for _, tau in outcomes)]
    s_b, s_a, *s_tau = oracle._entropy(np.stack(reduced)).tolist()
    total = s_a + s_b - float(oracle._entropy(rho))
    cond = 0.0
    for (weight, _), s in zip(outcomes, s_tau):
        cond += weight * s
    return total - (s_b - cond)


def test_batched_discord_route_equals_the_loop_over_kets():
    # Both projectors as one stack move no bit: 40 states (Bell-diagonal,
    # full-rank, pure product) at 10 angles each, the poles included.
    rng = np.random.default_rng(40)
    states = [bell_diagonal_state(tuple(c)) for c in rng.uniform(-1 / 3, 1 / 3, (18, 3))]
    for _ in range(18):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        states.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    states += [np.diag(d).astype(complex) for d in ([1.0, 0, 0, 0], [0, 0, 0, 1.0], [0, 0.5, 0, 0.5])]
    states.append(werner_state(0.5))
    angles = [(0.0, 0.0), (np.pi, 0.0)] + [tuple(a) for a in rng.uniform((0, 0), (np.pi, 6.28), (8, 2))]
    got = [oracle._measured_discord_at(rho, *a) for rho in states for a in angles]
    assert len(got) == 400
    assert repr(got) == repr([_loop_over_kets_discord(rho, *a) for rho in states for a in angles])


def test_discord_objective_solves_five_entropies(monkeypatch):
    # S(rho_B), S(rho_A) and one entropy per outcome of the measurement on A
    # in one LAPACK call, S(rho) in another, to the bits of one call each.
    rng = np.random.default_rng(8)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    states = [bell_diagonal_state((0.7, -0.3, 0.5)), g @ g.conj().T / np.trace(g @ g.conj().T)]
    states.append(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))  # outcome - is never seen
    angles = [(0.4, 1.1), (0.0, 0.0), (np.pi, 0.0), (2.3, 5.9)]
    expected = [_five_solve_discord(rho, *a) for rho in states for a in angles]
    calls = []
    solve = np.linalg.eigvalsh

    def counting(m):
        calls.append(np.shape(m))
        return solve(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    value = oracle._measured_discord_at(states[0], 0.4, 1.1)
    assert calls == [(4, 2, 2), (4, 4)]
    assert value > 0.0
    got = [oracle._measured_discord_at(rho, *a) for rho in states for a in angles]
    assert [type(v) for v in got] == [float] * len(got)
    assert repr(got) == repr(expected)


def _laqc(rho, grid):
    return maximize_laqc(rho, STANDARD_PAIR, grid)


@pytest.mark.parametrize(
    "search",
    [minimize_relative_entropy_basis, _laqc, brute_force_discord],
    ids=["classical", "laqc", "discord"],
)
def test_oracles_check_a_matrix_changed_after_a_call(search):
    # The check is memoized by the matrix's content, not by the array object.
    rho = np.array(bell_diagonal_state((0.7, -0.3, 0.5)))
    assert rho.flags.writeable
    search(rho, SMALL)
    rho[...] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(InvalidStateError, match="positivity"):
        search(rho, SMALL)


def test_checked_state_is_read_only_and_leaves_the_input_alone():
    rho = np.array(bell_diagonal_state((0.6, -0.2, 0.3)))
    checked, bloch, triple = oracle._checked(rho)
    assert checked is not rho and rho.flags.writeable
    assert checked.tobytes() == rho.tobytes()
    for a in (checked, bloch.x, bloch.y, bloch.T):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0
    assert triple.as_tuple() == tuple(np.diag(bloch.T).tolist())
    assert oracle._checked(rho.copy()) is oracle._checked(rho)
    general = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert oracle._checked(general)[2] is None


def test_check_memo_holds_one_state_and_serves_each_audit(capsys):
    # One entry: an audit's three oracles share it, and no state outlives the next.
    info = oracle._checked_of.cache_info
    before = info()
    rng = np.random.default_rng(23)
    for c in rng.uniform(-1.0 / 3.0, 1.0 / 3.0, size=(30, 3)):  # sum |c_i| <= 1: physical
        assert main(["verify", "--steps=8", "--bd=" + ",".join(map(repr, c.tolist()))]) in (0, 3)
    capsys.readouterr()
    after = info()
    assert after.maxsize == 1 and after.currsize <= 1
    assert (after.misses - before.misses, after.hits - before.hits) == (30, 60)


_STD = QubitBasis.standard()


@pytest.mark.parametrize(
    "computational",
    [(_STD,), [_STD, _STD, _STD], (_STD, "x"), _STD, None, (_STD, _STD.ket0)],
    ids=["one", "three", "not-a-basis", "bare-basis", "none", "ket"],
)
def test_laqc_rejects_anything_but_a_pair_of_bases(computational):
    with pytest.raises(ValueError, match="computational must be a pair of QubitBasis"):
        maximize_laqc(werner_state(0.5), computational, SMALL)


def test_laqc_accepts_a_list_pair():
    rho = bell_diagonal_state((0.7, -0.3, 0.5))
    assert repr(maximize_laqc(rho, [_STD, _STD], SMALL)) == repr(
        maximize_laqc(rho, (_STD, _STD), SMALL)
    )
