"""Command-line front end: single-state reports, sweeps, channel
trajectories, and oracle verification, emitting CSV or JSON.

Exit codes: 0 success, 2 invalid input, 3 oracle gap beyond tolerance.
Data goes to files or stdout ('-'); errors go to stderr. Output files are
written to a temporary name and atomically renamed, so a failed run never
leaves a partial file behind. A symlinked output path is written through
to its target, an existing target that is not a regular file is refused,
and the file gets the mode open(path, "w") would give it.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import WERNER_MAPS, _werner_grid
from .correlations import full_report
from .oracle import GridSpec, audit_closed_forms
from .qstate import BellDiagonalParams

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_GAP_EXCEEDED = 3

VERIFY_GAP_TOL = 1e-4
# sweep and channel evaluate their whole grid in one full_report call and
# render every row in memory before writing.
_MAX_ROWS = 10**6

SWEEP_COLUMNS = ("z", "classical", "laqc", "discord", "concurrence")
CHANNEL_COLUMNS = ("z", "gamma", "c1", "c2", "c3", *SWEEP_COLUMNS[1:])


class CliError(Exception):
    pass


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"--bd expects three comma-separated reals, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise CliError(f"could not parse --bd value {text!r}: {exc}") from None


def _bd_params(text: str) -> BellDiagonalParams:
    try:
        return BellDiagonalParams(*_parse_triple(text))
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _state_params(args) -> tuple[BellDiagonalParams, str]:
    if args.werner is not None:
        z = args.werner
        if not 0.0 <= z <= 1.0:
            raise CliError(f"--werner expects z in [0, 1], got {z}")
        return BellDiagonalParams(z, -z, z), f"werner z={_fmt(z)}"
    return _bd_params(args.bd), "bell-diagonal"


def _fmt(value: float) -> str:
    return f"{value + 0.0:.6f}"  # +0.0 normalizes -0.0


def _output_mode(target: Path) -> int:
    """The mode open(target, "w") would leave: the old file's, else 0o666 - umask."""
    try:
        st = target.stat()
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask
    if not stat.S_ISREG(st.st_mode):
        raise CliError(f"cannot write {target}: not a regular file")
    return stat.S_IMODE(st.st_mode)


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    target = Path(os.path.realpath(path))  # write through symlinks
    try:
        mode = _output_mode(target)
        fd, tmp = tempfile.mkstemp(
            dir=target.parent, prefix=target.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
                os.fchmod(handle.fileno(), mode)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_report(args) -> int:
    params, _ = _state_params(args)
    # classical, laqc, discord, concurrence, c_min, c_max: the report's field order
    fields = vars(full_report(params)).items()
    if args.format == "json":
        payload = {"c1": params.c1, "c2": params.c2, "c3": params.c3}
        payload.update(fields)
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for name, value in fields:
            sys.stdout.write(f"{name:<12}{_fmt(value)}\n")
    return EXIT_OK


def _write_table(args, columns, leading, params: BellDiagonalParams) -> int:
    """Write the leading columns and params' quantifiers, one row per element in C order."""
    rep = vars(full_report(params))
    table = np.column_stack([np.ravel(c) for c in (*leading, *map(rep.get, SWEEP_COLUMNS[1:]))])
    if args.format == "json":
        text = json.dumps([dict(zip(columns, row)) for row in table.tolist()], indent=2)
    else:  # row by row: no Python float object for every cell at once
        lines = [",".join(map(_fmt, row.tolist())) for row in table]
        text = "\n".join([",".join(columns), *lines])
    _emit(text + "\n", args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.z_steps < 2:
        raise CliError(f"--z-steps must be at least 2, got {args.z_steps}")
    if args.z_steps > _MAX_ROWS:
        raise CliError(f"--z-steps must be at most {_MAX_ROWS}, got {args.z_steps}")
    base = BellDiagonalParams(1.0, -1.0, 1.0) if args.bd is None else _bd_params(args.bd)
    z = np.linspace(0.0, 1.0, args.z_steps)
    params = BellDiagonalParams(z * base.c1, z * base.c2, z * base.c3)
    return _write_table(args, SWEEP_COLUMNS, (z,), params)


def cmd_channel(args) -> int:
    if args.z_steps < 2 or args.gamma_steps < 2:
        raise CliError("--z-steps and --gamma-steps must be at least 2")
    if args.z_steps * args.gamma_steps > _MAX_ROWS:
        raise CliError(f"--z-steps x --gamma-steps must be at most {_MAX_ROWS} rows")
    z = np.linspace(0.0, 1.0, args.z_steps)
    gammas = np.linspace(0.0, 1.0, args.gamma_steps)
    params, _ = _werner_grid(args.channel.replace("-", "_"), z, gammas)
    leading = (*np.meshgrid(z, gammas, indexing="ij"), *params.as_tuple())
    return _write_table(args, CHANNEL_COLUMNS, leading, params)


def cmd_verify(args) -> int:
    params, label = _state_params(args)
    try:
        grid = GridSpec(args.steps, args.steps, args.steps)
    except ValueError as exc:
        raise CliError(f"--steps {args.steps}: {exc}") from None
    audit = audit_closed_forms(params, grid)
    symmetric = (
        abs(abs(params.c1) - abs(params.c2)) <= 1e-12
        and abs(abs(params.c2) - abs(params.c3)) <= 1e-12
    )
    out = sys.stdout
    out.write(
        f"state: {label} (c1, c2, c3) = "
        f"({_fmt(params.c1)}, {_fmt(params.c2)}, {_fmt(params.c3)})\n"
    )
    out.write(f"oracle grid: {args.steps} steps/angle, refinement on\n")
    out.write(f"{'quantifier':<12}{'closed_form':>14}{'oracle':>14}{'gap':>14}\n")
    for name, result in (
        ("classical", audit.classical),
        ("laqc", audit.laqc),
        ("discord", audit.discord),
    ):
        out.write(
            f"{name:<12}{result.closed_form:>14.6f}"
            f"{result.objective:>14.6f}{result.gap:>14.2e}\n"
        )
    worst = audit.max_abs_gap()
    if worst <= VERIFY_GAP_TOL:
        out.write(f"all gaps within {VERIFY_GAP_TOL:.1e}\n")
        return EXIT_OK
    if symmetric:
        out.write(
            f"UNEXPECTED: gap {worst:.3e} exceeds {VERIFY_GAP_TOL:.1e} "
            "for a symmetric-triple state\n"
        )
    else:
        out.write(
            f"OBSERVATION: gap {worst:.3e} exceeds {VERIFY_GAP_TOL:.1e}; "
            "for asymmetric triples the exhaustive search optimizes over "
            "bases the printed min/max coefficient selection does not\n"
        )
    return EXIT_GAP_EXCEEDED


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--werner", type=float, metavar="Z", help="werner parameter z in [0, 1]")
    group.add_argument("--bd", metavar="C1,C2,C3", help="bell-diagonal correlation triple")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output", default="-", metavar="PATH", help="output file, or - for stdout"
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Correlation quantifiers for 2-qubit Bell-diagonal states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="print every quantifier for one state")
    _add_state_flags(report)
    report.add_argument("--format", choices=("text", "json"), default="text")
    report.set_defaults(func=cmd_report)

    sweep = sub.add_parser("sweep", help="quantifiers along a parameter ray")
    sweep.add_argument(
        "--bd",
        metavar="C1,C2,C3",
        help="sweep the ray t*(c1,c2,c3); default is the werner ray (1,-1,1)",
    )
    sweep.add_argument("--z-steps", type=int, default=101, metavar="N", help="grid points in [0, 1]")
    _add_output_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    channel = sub.add_parser("channel", help="werner quantifiers under decoherence")
    kinds = tuple(kind.replace("_", "-") for kind in WERNER_MAPS)
    channel.add_argument("--channel", choices=kinds, required=True, help="channel kind")
    channel.add_argument("--z-steps", type=int, default=21, metavar="N")
    channel.add_argument("--gamma-steps", type=int, default=21, metavar="N")
    _add_output_flags(channel)
    channel.set_defaults(func=cmd_channel)

    verify = sub.add_parser("verify", help="closed forms vs brute-force oracles")
    _add_state_flags(verify)
    verify.add_argument(
        "--steps", type=int, default=64, metavar="N", help="grid points per angle"
    )
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
