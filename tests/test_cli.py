import argparse
import dataclasses
import errno
import io
import json
import os
import stat
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.cli
from qcorr.channels import WERNER_MAPS, correlation_trajectory
from qcorr.cli import CHANNEL_COLUMNS, SWEEP_COLUMNS, _fmt, _write_table, build_parser, main
from qcorr.correlations import full_report
from qcorr.oracle import GridSpec
from qcorr.qstate import BellDiagonalParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_werner_half(self, capsys):
        code, out, err = run(capsys, "report", "--werner", "0.5")
        assert code == 0 and err == ""
        fields = dict(line.split() for line in out.strip().splitlines())
        assert fields["classical"] == "0.188722"
        assert fields["laqc"] == "0.188722"
        assert fields["discord"] == "0.262483"
        assert fields["concurrence"] == "0.250000"
        assert fields["c_min"] == "0.500000"
        assert fields["c_max"] == "0.500000"

    def test_zero_triple(self, capsys):
        code, out, _ = run(capsys, "report", "--bd", "0,0,0")
        assert code == 0
        fields = dict(line.split() for line in out.strip().splitlines())
        for name in ("classical", "laqc", "discord", "concurrence"):
            assert float(fields[name]) == 0.0

    def test_nonphysical_triple_exits_2(self, capsys):
        code, out, err = run(capsys, "report", "--bd", "1,1,1")
        assert code == 2
        assert out == ""
        assert "eigenvalue" in err

    def test_json_full_precision(self, capsys):
        code, out, _ = run(capsys, "report", "--werner", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rep = full_report((0.5, -0.5, 0.5))
        assert payload["discord"] == rep.discord
        assert payload["c1"] == 0.5

    def test_coefficient_slack_prints_one(self, capsys):
        code, out, err = run(capsys, "report", "--bd=1.0000000000005,-1.0000000000005,1")
        assert code == 0 and err == ""
        fields = dict(line.split() for line in out.strip().splitlines())
        assert fields["c_max"] == "1.000000"

    # Three Bell eigenvalues are -5e-10, within PSD_TOL, but every |c_i| > 1.
    @pytest.mark.parametrize("command", [["report"], ["sweep"], ["verify", "--steps=4"]])
    def test_coefficient_past_one_exits_2(self, capsys, command):
        sliver = "--bd=1.000000002,-1.000000002,1.000000002"
        code, out, err = run(capsys, command[0], sliver, *command[1:])
        assert code == 2 and out == ""
        assert err == (
            "error: non-physical correlation triple (1.000000002, -1.000000002, 1.000000002): "
            "c1 = 1.000000002 lies outside [-1, 1]\n"
        )

    def test_requires_a_state(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2


class TestSweep:
    def test_default_grid_and_spot_rows(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--output", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "z,classical,laqc,discord,concurrence"
        assert len(lines) == 102  # header + 101 rows
        assert lines[1] == "0.000000,0.000000,0.000000,0.000000,0.000000"
        assert lines[51] == "0.500000,0.188722,0.188722,0.262483,0.250000"
        assert lines[101] == "1.000000,1.000000,1.000000,1.000000,1.000000"

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--output", str(path))
        first = path.read_bytes()
        run(capsys, "sweep", "--output", str(path))
        assert path.read_bytes() == first

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, "sweep", "--z-steps", "3")
        assert code == 0
        assert out.splitlines()[0] == "z,classical,laqc,discord,concurrence"
        assert len(out.splitlines()) == 4

    def test_custom_ray(self, capsys):
        code, out, _ = run(capsys, "sweep", "--bd", "0.5,-0.5,0.5", "--z-steps", "3")
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        rep = full_report((0.5, -0.5, 0.5))
        assert float(last[1]) == pytest.approx(rep.classical, abs=1e-6)

    def test_json_matches_library_values(self, capsys):
        code, out, _ = run(capsys, "sweep", "--z-steps", "3", "--format", "json")
        rows = json.loads(out)
        assert [r["z"] for r in rows] == [0.0, 0.5, 1.0]
        rep = full_report((0.5, -0.5, 0.5))
        assert rows[1]["discord"] == rep.discord  # full precision

    def test_rejects_nonphysical_ray(self, capsys):
        code, _, err = run(capsys, "sweep", "--bd", "1,1,1")
        assert code == 2 and "eigenvalue" in err

    def test_no_partial_file_on_error(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        code, _, _ = run(capsys, "sweep", "--bd", "1,1,1", "--output", str(path))
        assert code == 2
        assert not path.exists()


class TestChannel:
    def test_schema_and_gamma_zero_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "channel",
            "--channel",
            "depolarizing",
            "--z-steps",
            "3",
            "--gamma-steps",
            "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z,gamma,c1,c2,c3,classical,laqc,discord,concurrence"
        assert len(lines) == 10
        # gamma = 0 rows agree with the undamped report
        for line in lines[1::3]:
            vals = [float(v) for v in line.split(",")]
            z = vals[0]
            rep = full_report((z, -z, z))
            assert vals[5] == pytest.approx(rep.classical, abs=1e-6)
            assert vals[8] == pytest.approx(rep.concurrence, abs=1e-6)

    def test_phase_damping_spot_row(self, capsys):
        code, out, _ = run(
            capsys,
            "channel",
            "--channel",
            "phase-damping",
            "--z-steps",
            "3",
            "--gamma-steps",
            "3",
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        spot = [r for r in rows if r[0] == "0.500000" and r[1] == "0.500000"]
        assert spot == [
            [
                "0.500000",
                "0.500000",
                "0.250000",
                "-0.250000",
                "0.500000",
                "0.045566",
                "0.045566",
                "0.061278",
                "0.000000",
            ]
        ]

    def test_emitted_triples_are_physical(self, capsys):
        code, out, _ = run(
            capsys,
            "channel",
            "--channel",
            "depolarizing",
            "--z-steps",
            "5",
            "--gamma-steps",
            "5",
            "--format",
            "json",
        )
        for row in json.loads(out):
            assert BellDiagonalParams(row["c1"], row["c2"], row["c3"]).is_physical(
                tol=1e-12
            )

    def test_requires_channel_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["channel"])
        assert exc.value.code == 2


class TestSharedParser:
    """main parses with one parser per process and finds the command by name per call."""

    COMMANDS = [
        ["report", "--werner", "0.5"],
        ["report", "--bd=0.3,-0.2,0.1", "--format", "json"],
        ["sweep", "--z-steps", "3"],
        ["channel", "--channel", "phase-damping", "--z-steps=3", "--gamma-steps=2", "--format=json"],
        ["verify", "--werner", "0.5", "--steps", "8"],
        ["verify", "--bd=0.7,-0.3,0.5", "--steps", "8"],
        ["report", "--bd", "1,1,1"],
        ["verify", "--werner", "0.5", "--steps", "1"],
    ]
    REJECTED = ["verify", "--werner", "0.5", "--bd=0,0,0"]  # argparse exits 2

    def outcomes(self, capsys):
        results = []
        for argv in self.COMMANDS:
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.REJECTED)
        return exc.value.code, capsys.readouterr().err

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_are_byte_identical(self, capsys, monkeypatch):
        # The reference builds a parser per call, as main did before it shared one.
        with monkeypatch.context() as patch:
            patch.setattr(qcorr.cli, "build_parser", build_parser.__wrapped__)
            fresh, fresh_rejected = self.outcomes(capsys), self.rejected(capsys)
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 3, 2, 2]
        assert fresh_rejected[0] == 2 and "not allowed with argument" in fresh_rejected[1]
        first = self.outcomes(capsys)
        assert self.rejected(capsys) == fresh_rejected
        assert self.outcomes(capsys) == first == fresh
        assert self.rejected(capsys) == fresh_rejected

    def test_a_command_rebound_after_the_parser_is_built_is_called(self, capsys, monkeypatch):
        assert main(["verify", "--werner", "0.5", "--steps", "4"]) == 0
        seen = []

        def stub(args):
            seen.append((args.command, args.werner, args.steps))
            return 7

        monkeypatch.setattr(qcorr.cli, "cmd_verify", stub)
        assert main(["verify", "--werner", "0.25"]) == 7
        assert seen == [("verify", 0.25, 64)]
        assert main(["report", "--werner", "0.5"]) == 0


def _channel_choices():
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (flag,) = (a for a in sub.choices["channel"]._actions if "--channel" in a.option_strings)
    return flag.choices


class TestChannelTable:
    """The CLI table and the library trajectory come from one kind table and grid."""

    def test_choices_are_the_table_kinds(self):
        assert _channel_choices() == tuple(k.replace("_", "-") for k in WERNER_MAPS)

    @pytest.mark.parametrize("kind", list(WERNER_MAPS))
    @pytest.mark.parametrize("z_steps, gamma_steps", [(21, 21), (5, 42), (23, 107)])
    def test_json_rows_equal_the_trajectory(self, capsys, kind, z_steps, gamma_steps):
        code, out, _ = run(
            capsys,
            "channel",
            f"--channel={kind.replace('_', '-')}",
            f"--z-steps={z_steps}",
            f"--gamma-steps={gamma_steps}",
            "--format=json",
        )
        assert code == 0
        rows = json.loads(out)
        gammas = np.linspace(0.0, 1.0, gamma_steps)
        for i, z in enumerate(np.linspace(0.0, 1.0, z_steps)):
            want = [
                {
                    "z": z,
                    "gamma": p.gamma,
                    **dict(zip(("c1", "c2", "c3"), p.params.as_tuple())),
                    **{k: getattr(p.report, k) for k in SWEEP_COLUMNS[1:]},
                }
                for p in correlation_trajectory(z, gammas, kind)
            ]
            # repr keeps the sign of zero, which == would not compare.
            got = rows[i * gamma_steps : (i + 1) * gamma_steps]
            assert repr(got) == repr([{k: float(v) for k, v in w.items()} for w in want])


def reference_csv(columns, table):
    """The CSV text as one _fmt call per cell: the reference for the row templates."""
    lines = [",".join(map(_fmt, row)) for row in table.tolist()]
    return "\n".join([",".join(columns), *lines]) + "\n"


def reference_json(columns, table):
    """The JSON text as json.dumps of the row dicts: the reference for the row templates."""
    return json.dumps([dict(zip(columns, row)) for row in table.tolist()], indent=2) + "\n"


# -0.0, values that print as -0.000000 or round half at the 6th decimal,
# integral floats, 1.0 and any other finite float.
CELLS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 1e-7, -1e-7, 5e-7, -5e-7, 0.3799375, 1e300]),
    st.integers(-(10**7), 10**7).map(lambda k: (k + 0.5) / 1e6),
    st.integers(-(10**6), 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestRowTemplates:
    @settings(max_examples=100, deadline=None)
    @given(
        columns=st.sampled_from([SWEEP_COLUMNS, CHANNEL_COLUMNS]),
        rows=st.integers(1, 12),
        cells=st.lists(CELLS, min_size=108, max_size=108),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_text_is_byte_identical_to_the_per_cell_renderers(self, columns, rows, cells, fmt):
        table = np.array(cells[: rows * len(columns)]).reshape(rows, len(columns))
        lead = len(columns) - 4
        report = argparse.Namespace(**dict(zip(SWEEP_COLUMNS[1:], table[:, lead:].T)))
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, redirect_stdout(out):
            patch.setattr(qcorr.cli, "full_report", lambda params: report)
            args = argparse.Namespace(format=fmt, output="-")
            assert _write_table(args, columns, table[:, :lead].T, None) == 0
        reference = reference_json if fmt == "json" else reference_csv
        assert out.getvalue() == reference(columns, table)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", ["depolarizing", "phase-damping"])
    def test_channel_text_is_byte_identical_to_the_per_cell_renderers(self, capsys, fmt, kind):
        argv = ["channel", "--channel", kind, "--z-steps=23", "--gamma-steps=42", f"--format={fmt}"]
        _, out, _ = run(capsys, *argv)
        z, gamma = np.meshgrid(np.linspace(0, 1, 23), np.linspace(0, 1, 42), indexing="ij")
        params = qcorr.cli._werner_grid(kind.replace("-", "_"), np.linspace(0, 1, 23), gamma[0])
        rep = full_report(params)
        cells = (z, gamma, *params.as_tuple(), *(getattr(rep, k) for k in SWEEP_COLUMNS[1:]))
        table = np.column_stack([np.ravel(c) for c in cells])
        reference = reference_json if fmt == "json" else reference_csv
        assert out == reference(CHANNEL_COLUMNS, table)


class TestVerify:
    def test_werner_gaps_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "verify", "--werner", "0.5", "--steps", "16")
        assert code == 0
        assert "all gaps within" in out

    def test_zero_triple(self, capsys):
        code, out, _ = run(capsys, "verify", "--bd", "0,0,0", "--steps", "8")
        assert code == 0

    def test_asymmetric_triple_flags_observation(self, capsys):
        code, out, _ = run(capsys, "verify", "--bd", "0.7,-0.3,0.5", "--steps", "16")
        assert code == 3
        assert "OBSERVATION" in out
        assert "UNEXPECTED" not in out

    def test_invalid_state_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--bd", "2,0,0")
        assert code == 2 and err != ""

    def test_symmetric_triple_past_tolerance_is_unexpected(self, capsys, monkeypatch):
        # A symmetric triple has no known gap, so one past the tolerance is
        # reported as unexpected rather than as the known observation.
        real = qcorr.cli.audit_closed_forms

        def gapped(params, grid):
            audit = real(params, grid)
            return dataclasses.replace(audit, laqc=dataclasses.replace(audit.laqc, gap=0.5))

        monkeypatch.setattr(qcorr.cli, "audit_closed_forms", gapped)
        code, out, _ = run(capsys, "verify", "--werner", "0.5", "--steps", "4")
        assert code == 3
        assert out.splitlines()[-1] == (
            "UNEXPECTED: gap 5.000e-01 exceeds 1.0e-04 for a symmetric-triple state"
        )
        assert "OBSERVATION" not in out

    def test_negative_zero_werner_label(self, capsys):
        code, out, _ = run(capsys, "verify", "--werner=-0.0", "--steps", "4")
        assert code == 0
        assert out.splitlines()[0] == (
            "state: werner z=0.000000 (c1, c2, c3) = (0.000000, 0.000000, 0.000000)"
        )
        # JSON stays raw, as in the pinned channel data.
        code, out, _ = run(capsys, "report", "--werner=-0.0", "--format", "json")
        assert code == 0 and '"c1": -0.0' in out


class TestBoundaries:
    @pytest.mark.parametrize("command", ["report", "sweep", "verify"])
    @pytest.mark.parametrize("triple", ["nan,0,0", "0,inf,0", "0,0,-inf"])
    def test_non_finite_triple_exits_2(self, capsys, command, triple):
        code, out, err = run(capsys, command, "--bd", triple)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_missing_output_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "sweep", "--z-steps", "3", "--output", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cannot write" in err
        assert list(tmp_path.iterdir()) == []

    def test_output_onto_directory_leaves_no_temp_file(self, capsys, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        code, _, err = run(capsys, "sweep", "--z-steps", "3", "--output", str(target))
        assert code == 2 and "cannot write" in err
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]

    def test_failed_rename_leaves_the_target_and_no_temp_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def refuse(*_):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))

        monkeypatch.setattr(os, "replace", refuse)
        code, out, err = run(capsys, "sweep", "--z-steps", "3", "--output", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot write {path}: Permission denied\n"
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_fifo_output_is_refused_and_left_alone(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        code, out, err = run(capsys, "sweep", "--z-steps", "3", "--output", str(fifo))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not a regular file" in err
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_symlinked_output_writes_through_to_the_target(self, capsys, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert run(capsys, "sweep", "--z-steps", "3", "--output", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().startswith("z,classical")

    def test_dangling_symlink_creates_its_target(self, capsys, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "new.csv")
        assert run(capsys, "sweep", "--z-steps", "3", "--output", str(link))[0] == 0
        assert link.is_symlink() and (tmp_path / "new.csv").is_file()

    def test_existing_output_keeps_its_mode(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        assert run(capsys, "sweep", "--z-steps", "3", "--output", str(path))[0] == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_new_output_gets_the_umask_mode(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        old = os.umask(0o027)
        try:
            code = run(capsys, "sweep", "--z-steps", "3", "--output", str(path))[0]
        finally:
            os.umask(old)
        assert code == 0 and stat.S_IMODE(path.stat().st_mode) == 0o640

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--werner", "0.5"],
            ["verify", "--werner", "0.5", "--steps", "4"],
            ["sweep", "--z-steps", "3"],
            ["channel", "--channel", "depolarizing", "--z-steps", "3", "--output", "-"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_full_stdout_exits_2(self, capsys, monkeypatch, argv, method):
        # As on a full device: the write, or only the flush of what was
        # buffered, fails with ENOSPC.
        def no_space(*_):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stdout = io.StringIO()
        setattr(stdout, method, no_space)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(argv)
        assert code == 2
        assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"

    def test_verify_steps_above_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--werner", "0.5", "--steps", "129")
        assert code == 2 and out == ""
        assert "[2, 128]" in err

    def test_verify_steps_below_minimum_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--werner", "0.5", "--steps", "1")
        assert code == 2 and out == ""
        assert err == "error: --steps 1: steps_theta must lie in [2, 128]\n"

    def test_grid_spec_rejects_steps_above_cap(self):
        with pytest.raises(ValueError, match=r"\[2, 128\]"):
            GridSpec(steps_comp_phi=129)

    def test_sweep_rows_above_cap_exit_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--z-steps", str(10**6 + 1))
        assert code == 2 and out == "" and "at most" in err

    def test_channel_rows_above_cap_exit_2(self, capsys):
        code, out, err = run(
            capsys,
            "channel",
            "--channel",
            "depolarizing",
            "--z-steps",
            "1001",
            "--gamma-steps",
            "1000",
        )
        assert code == 2 and out == "" and "at most" in err


class TestParsing:
    def test_malformed_triple(self, capsys):
        code, _, err = run(capsys, "report", "--bd", "0.1,0.2")
        assert code == 2 and "three" in err

    def test_unparsable_coefficient(self, capsys):
        code, out, err = run(capsys, "verify", "--bd=1,2,x")
        assert code == 2 and out == ""
        assert err.startswith("error: could not parse --bd value '1,2,x'")

    def test_werner_out_of_range(self, capsys):
        code, _, err = run(capsys, "report", "--werner", "1.5")
        assert code == 2


# Float text the parser accepts: repr of any float (subnormals included),
# spellings float() takes for the extremes, and a few admissible values.
FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "Infinity", "1e308", "-1e308", "-0.0", "5e-324", "-1e-320"]
    ),
    st.sampled_from(["0", "0.5", "-0.25", "1"]),
)
TRIPLE_TEXT = st.lists(FLOAT_TEXT, min_size=3, max_size=3).map(",".join)


# A vertex of the physical tetrahedron scaled by 1 + delta: within about
# 4e-9 past it, every Bell eigenvalue is still within PSD_TOL.
BOUNDARY_TEXT = st.builds(
    lambda vertex, delta: ",".join(repr(c * (1.0 + delta)) for c in vertex),
    st.sampled_from([(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)]),
    st.floats(-1e-8, 1e-8) | st.sampled_from([0.0, 5e-13, 2e-9, 4e-9]),
)


def wide_ints(cheap_max, cap):
    # Below the minimum, a few cheap admissible sizes, and far above the cap.
    return st.one_of(
        st.integers(max_value=1), st.integers(2, cheap_max), st.integers(min_value=cap + 1)
    ).map(str)


def call(argv, codes=(0, 2)):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in codes
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")


class TestCliRobustness:
    """Arbitrary numeric flag text exits cleanly: never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(
        flag=st.sampled_from(["--werner", "--bd"]),
        text=FLOAT_TEXT,
        triple=TRIPLE_TEXT,
        fmt=st.sampled_from(["text", "json"]),
    )
    def test_report(self, flag, text, triple, fmt):
        value = text if flag == "--werner" else triple
        call(["report", f"{flag}={value}", "--format", fmt])

    @settings(max_examples=40, deadline=None)
    @given(triple=st.none() | TRIPLE_TEXT, steps=wide_ints(6, 10**6))
    def test_sweep(self, triple, steps):
        bd = [] if triple is None else [f"--bd={triple}"]
        call(["sweep", *bd, f"--z-steps={steps}"])

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["depolarizing", "phase-damping"]),
        z_steps=wide_ints(6, 10**6),
        gamma_steps=wide_ints(6, 10**6),
    )
    def test_channel(self, kind, z_steps, gamma_steps):
        steps = [f"--z-steps={z_steps}", f"--gamma-steps={gamma_steps}"]
        call(["channel", "--channel", kind, *steps])

    # Exit 3 (oracle gap) is the one further documented outcome: a 2-4 step
    # grid can miss an asymmetric triple's optimum.
    @settings(max_examples=30, deadline=None)
    @given(
        flag=st.sampled_from(["--werner", "--bd"]),
        text=FLOAT_TEXT,
        triple=TRIPLE_TEXT,
        steps=st.integers(2, 4).map(str) | wide_ints(4, 128),
    )
    def test_verify(self, flag, text, triple, steps):
        value = text if flag == "--werner" else triple
        call(["verify", f"{flag}={value}", f"--steps={steps}"], codes=(0, 2, 3))

    @settings(max_examples=40, deadline=None)
    @given(triple=BOUNDARY_TEXT, fmt=st.sampled_from(["text", "json"]))
    def test_report_and_sweep_at_the_boundary(self, triple, fmt):
        call(["report", f"--bd={triple}", "--format", fmt])
        call(["sweep", f"--bd={triple}", "--z-steps=3"])

    @settings(max_examples=20, deadline=None)
    @given(triple=BOUNDARY_TEXT, steps=st.integers(2, 4))
    def test_verify_at_the_boundary(self, triple, steps):
        call(["verify", f"--bd={triple}", f"--steps={steps}"], codes=(0, 2, 3))
