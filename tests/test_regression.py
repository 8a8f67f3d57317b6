"""Byte-identity pins: default CLI output and 64-step oracle angles.

The CSV files under tests/data/ were written by the default `sweep` and
`channel` commands before the oracle and Bloch code were consolidated;
any change to the numeric path that moves a printed digit shows here.
cli_text.json holds the stdout, stderr and exit code of `report` and
`verify` runs, the exit-2 messages among them, captured before
BellDiagonalParams checked itself when built. oracle_results.json holds
the reprs of oracle results over seeded states, captured before the
outcome tables formed their correlation term row by row.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcorr.bases import QubitBasis, local_qubit_basis
from qcorr.cli import main
from qcorr.oracle import (
    TIE_TOL,
    GridSpec,
    _scan,
    audit_closed_forms,
    brute_force_discord,
    maximize_laqc,
    minimize_relative_entropy_basis,
)
from qcorr.qstate import bell_diagonal_state

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (["sweep"], "sweep_default.csv"),
        (["channel", "--channel", "depolarizing"], "channel_depolarizing_default.csv"),
        (["channel", "--channel", "phase-damping"], "channel_phase_damping_default.csv"),
    ],
)
def test_default_csv_is_byte_identical(argv, pinned, tmp_path):
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / pinned).read_bytes()


class TestAsymmetricTripleAngles:
    """Winning angles for (0.7, -0.3, 0.5) at the default 64 steps."""

    rho = bell_diagonal_state((0.7, -0.3, 0.5))
    grid = GridSpec()

    def test_classical(self):
        a = minimize_relative_entropy_basis(self.rho, self.grid).best_angles
        assert (a.theta_a, a.phi_a, a.theta_b, a.phi_b) == (
            math.pi / 2,
            0.0,
            math.pi / 2,
            0.0,
        )

    def test_laqc(self):
        standard = (QubitBasis.standard(), QubitBasis.standard())
        a = maximize_laqc(self.rho, standard, self.grid).best_angles
        assert (a.phi_a, a.phi_b) == (0.0, 0.0)

    # Captured from the ket-route search, before the LAQC table moved onto
    # Bloch parameters.
    @pytest.mark.parametrize(
        "pair, pinned",
        [
            (((math.pi / 2, 0.0), (math.pi / 2, 0.0)), (0.0, 0.0)),
            (((0.9, 1.3), (2.1, 4.0)), (2.1696624263854507, 0.9130253649495337)),
        ],
        ids=["x", "generic"],
    )
    def test_laqc_over_rotated_bases(self, pair, pinned):
        bases = tuple(local_qubit_basis(*angles) for angles in pair)
        a = maximize_laqc(self.rho, bases, self.grid).best_angles
        assert (a.phi_a, a.phi_b) == pinned

    def test_discord(self):
        a = brute_force_discord(self.rho, self.grid).best_angles
        assert (a.theta_a, a.phi_a, a.theta_b, a.phi_b) == (math.pi / 2, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "cells",
    [
        [(699, 3, 0.0)],
        [(300, 1, 1e-11), (650, 2, 0.0)],
        [(10, 0, 0.0)],
        [(150, 2, 1e-11), (520, 1, 0.0)],  # a tie 370 rows before the minimum
        [(100, 4, 5e-11), (400, 0, 0.0)],  # a tie 300 rows before the minimum
        [(660, 3, 5e-11), (690, 0, 0.0), (690, 2, 0.0)],  # both in the last rows
        # Rows 256-383 have the lowest bound, a loose one, and may go first;
        # the tie at row 150, whose bound is tight, must still be found.
        [(300, 1, 0.0), (slice(256, 384), -2e-10), (150, 2, 8e-11), (150, 8e-11)],
        # Bounds that differ by ulps: rows 384-511 lie lower, but row 10 ties first.
        [(10, 0, 0.0), (500, 3, 0.0), (slice(0, 700), 0.0), (slice(384, 512), -1e-16)],
        # A tie and the minimum in the last rows, both bounds tight.
        [(660, 3, 5e-11), (690, 0, 0.0), (660, 5e-11), (690, 0.0)],
        # Row 0 holds the minimum of rows 0-127, but its first entry within
        # TIE_TOL of that is no tie of the lower minimum at row 200.
        [(0, 0, 5e-11), (0, 3, 0.0), (slice(0, 128), -5e-11), (200, 2, -9e-11), (200, -9e-11)],
        # The seed row 130 is the first within TIE_TOL of the lowest bound
        # but not the minimum; after it, only rows 150 and 200 live.
        [(130, 4, 5e-10), (150, 2, 0.0), (200, 3, -5e-11), (130, 0.0), (150, 0.0), (200, -5e-11)],
        # The seed row 10 holds no tie: row 3, above the floor by more than
        # TIE_TOL, holds the first one.
        [(3, 0, 1.5e-10), (10, 2, 1.8e-10), (3, 1.5e-10), (10, 0.0)],
    ],
)
def test_scan_matches_two_pass_reference(cells):
    # 700 rows, with bounds or without: whatever order the scan evaluates
    # them in, a near tie in an earlier row than the minimum must win, as in
    # a full scan for the minimum followed by a row-major scan for the
    # first entry within TIE_TOL. A (rows, value) cell sets the bound of
    # those rows, and the table then bounds every other row by 1.
    rng = np.random.default_rng(0)
    table = rng.uniform(1.0, 2.0, size=(700, 5))
    bound = np.ones(700)
    for *at, value in cells:
        (bound if len(at) == 1 else table)[tuple(at)] = value

    def rows(lo, hi):
        return table[lo:hi]

    if any(len(cell) == 2 for cell in cells):
        rows.bound = bound
    grids = (np.arange(700.0), np.arange(5.0))
    flat = table.reshape(-1)
    first = int(np.argmax(flat <= flat.min() + TIE_TOL))
    for stop_early in (False, True):
        angles, _ = _scan(grids, 1, lambda *_: rows, stop_early=stop_early)
        assert angles == divmod(first, 5)


# Full-precision JSON, written before the quantifiers took arrays. The
# 5x42 channel grid is the smallest where computing (1 - gamma)**2 with
# numpy's array power (x * x) instead of libm pow changes a printed digit
# of the JSON while leaving the CSV unchanged.
@pytest.mark.parametrize(
    "argv, pinned",
    [
        (["sweep"], "sweep_default.json"),
        (
            ["channel", "--channel", "depolarizing", "--z-steps", "5", "--gamma-steps", "42"],
            "channel_depolarizing_z5_g42.json",
        ),
    ],
)
def test_full_precision_json_is_byte_identical(argv, pinned, tmp_path):
    out = tmp_path / "out.json"
    assert main([*argv, "--format", "json", "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / pinned).read_bytes()


CLI_TEXT = json.loads((DATA / "cli_text.json").read_text())


@pytest.mark.parametrize("pinned", CLI_TEXT, ids=[" ".join(c["argv"]) for c in CLI_TEXT])
def test_cli_text_is_byte_identical(pinned, capsys):
    code = main(pinned["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (pinned["exit"], pinned["stdout"], pinned["stderr"])


ORACLE_RESULTS = json.loads((DATA / "oracle_results.json").read_text())


def _oracle_reprs(case):
    """The reprs a pinned case holds: the audit of a triple, or the three
    searches on a full-rank state (LAQC over the standard bases)."""
    grid = GridSpec(case["steps"], case["steps"], case["steps"])
    if "triple" in case:
        return [repr(audit_closed_forms(tuple(case["triple"]), grid))]
    rho = np.array(case["re"]) + 1j * np.array(case["im"])
    standard = (QubitBasis.standard(), QubitBasis.standard())
    return [
        repr(minimize_relative_entropy_basis(rho, grid)),
        repr(maximize_laqc(rho, standard, grid)),
        repr(brute_force_discord(rho, grid)),
    ]


@pytest.mark.parametrize(
    "case",
    ORACLE_RESULTS,
    ids=[
        f"{'triple' if 'triple' in c else 'full-rank'}-{i}-{c['steps']}"
        for i, c in enumerate(ORACLE_RESULTS)
    ],
)
def test_oracle_results_are_repr_identical(case):
    # 24 seeded physical triples at 64 and 65 steps, and 4 seeded full-rank
    # states at 64: a bit moved in any table can move a chosen angle.
    assert _oracle_reprs(case) == case["reprs"]
