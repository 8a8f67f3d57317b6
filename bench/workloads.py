"""The three benchmark workloads: seeded inputs, one op each, and checks.

Every workload is a closed loop with one client: the next op is issued
only after the previous one returned and was checked. Inputs come from a
numpy Generator seeded by the caller; qcorr only ever sees the generated
values. Checks compare against :mod:`reference`, never against qcorr.

An op reports ``units``, the number of end-to-end ops it counts as: one
``verify`` call on ``audit``, the CSV rows one CLI call writes on ``grid``,
one evolution on ``kraus``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# Printed values carry 6 decimals, so they sit within half a unit of the 6th.
PRINT_TOL = 5e-7 + 1e-12
GAP_TOL = 1e-4  # the CLI's own verify tolerance


@dataclass(frozen=True)
class Op:
    label: str
    units: int
    kind: str  # "werner" or "asymmetric" on audit; channel kind or "sweep" otherwise
    argv: tuple = ()
    c: np.ndarray | None = None  # the state's triple; the ray of a sweep
    gamma: float = 0.0
    steps: tuple = ()  # grid sizes of a CLI call


def _call_cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _triple_flag(c) -> str:
    # "--bd=" form: argparse would take "--bd -0.3,..." for an option.
    return "--bd=" + ",".join(repr(float(v)) for v in c)


def asymmetric_triple(rng: np.random.Generator, axis: int) -> np.ndarray:
    """A physical triple whose largest |c_i| sits on ``axis``.

    The |c_i| are at least 0.05 apart and the largest is at least 0.2, so
    ``verify`` meets no near-tie and its classical gap is far above the
    1e-4 tolerance (at least f(0.2) - f(0.15) = 0.0128): the exit-3 path.
    Permuting coordinates keeps a triple inside the physical tetrahedron.
    """
    while True:
        c = ref.random_triple(rng)
        a = np.sort(np.abs(c))
        if a[2] >= 0.2 and np.diff(a).min() >= 0.05:
            break
    k = int(np.argmax(np.abs(c)))
    c[[k, axis]] = c[[axis, k]]
    return c


class Audit:
    """``qcorr verify`` at the default 64 steps, called in process.

    Each cycle holds one Werner state and asymmetric triples whose largest
    |c| lies on x, y, z, x, y. The oracle's second pass stops at the first
    tying grid row, so z-axis optima (Werner included) cost about a third
    less than x/y ones; keeping that cheap share at one third holds the
    median inside one cost mode for every seed.
    """

    name = "audit"
    trace_batch = 6
    CYCLE = ("werner", 0, 1, 2, 0, 1)

    def __init__(self, qcorr, workdir: Path):
        self.cli = qcorr.cli

    def ops(self, rng: np.random.Generator):
        while True:
            for kind in self.CYCLE:
                if kind == "werner":
                    z = float(rng.uniform())
                    yield Op(f"verify --werner {z!r}", 1, "werner",
                             argv=("verify", "--werner", repr(z)), c=np.array([z, -z, z]))
                else:
                    c = asymmetric_triple(rng, kind)
                    flag = _triple_flag(c)
                    yield Op(f"verify {flag}", 1, "asymmetric", argv=("verify", flag), c=c)

    def warm_up(self) -> None:
        # A full-size call first: the allocator only settles after the
        # oracle's large chunk arrays have been freed once.
        _call_cli(self.cli, ("verify", "--werner", "0.5"))
        _call_cli(self.cli, ("verify", "--bd=0.1,-0.2,0.6", "--steps", "8"))

    def run(self, op: Op):
        return _call_cli(self.cli, op.argv)

    def check(self, op: Op, result) -> tuple[int, str | None]:
        code, text = result
        want_code = 0 if op.kind == "werner" else 3
        if code != want_code:
            return 1, f"exit {code}, expected {want_code}"
        rows = {}
        for line in text.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[0] in ("classical", "laqc", "discord"):
                rows[parts[0]] = [float(v) for v in parts[1:]]
        if len(rows) != 3:
            return 1, "verify table incomplete"
        closed = {
            "classical": ref.classical(op.c),
            "laqc": ref.laqc(op.c),
            "discord": ref.discord(op.c),
        }
        for name, (printed, _, _) in rows.items():
            if abs(printed - closed[name]) > PRINT_TOL:
                return 1, f"{name} closed form {printed} != {closed[name]:.9f}"
        oracle = rows["classical"][1]
        if abs(oracle - ref.measured_classical(op.c)) > PRINT_TOL:
            return 1, f"classical oracle {oracle} != f(max|c|) = {ref.measured_classical(op.c):.9f}"
        for name in ("laqc", "discord"):
            if abs(rows[name][2]) > GAP_TOL:
                return 1, f"{name} gap {rows[name][2]} beyond {GAP_TOL}"
        return 0, None


CHANNEL_HEADER = "z,gamma,c1,c2,c3,classical,laqc,discord,concurrence"
SWEEP_HEADER = "z,classical,laqc,discord,concurrence"


class Grid:
    """In-process ``qcorr channel`` and ``qcorr sweep`` runs; an op is one row.

    Channel grids are seeded between 31x31 and 51x51 (the default is
    21x21); sweeps run 201 to 401 points along a seeded physical ray.
    Output goes to CSV files in a temporary directory of the checkout.
    """

    name = "grid"
    trace_batch = 4

    def __init__(self, qcorr, workdir: Path):
        self.cli = qcorr.cli
        self.workdir = workdir

    def _channel(self, kind: str, nz: int, ng: int) -> Op:
        argv = ("channel", "--channel", kind, "--z-steps", str(nz), "--gamma-steps", str(ng),
                "--output", str(self.workdir / f"{kind}.csv"))
        return Op(f"channel {kind} {nz}x{ng}", nz * ng, kind, argv=argv, steps=(nz, ng))

    def _sweep(self, ray: np.ndarray, n: int) -> Op:
        argv = ("sweep", _triple_flag(ray), "--z-steps", str(n),
                "--output", str(self.workdir / "sweep.csv"))
        return Op(f"sweep {argv[1]} {n}", n, "sweep", argv=argv, c=ray, steps=(n,))

    def ops(self, rng: np.random.Generator):
        while True:
            for kind in ("depolarizing", "phase-damping"):
                nz, ng = (int(v) for v in rng.integers(31, 52, size=2))
                yield self._channel(kind, nz, ng)
                yield self._sweep(ref.random_triple(rng), int(rng.integers(201, 402)))

    def warm_up(self) -> None:
        for op in (self._channel("depolarizing", 5, 5), self._channel("phase-damping", 5, 5),
                   self._sweep(np.array([0.5, -0.3, 0.2]), 11)):
            _call_cli(self.cli, op.argv)

    def run(self, op: Op):
        return _call_cli(self.cli, op.argv)

    @staticmethod
    def expected(op: Op) -> tuple[str, np.ndarray]:
        """Header and full table the op must write, from the closed forms."""
        if op.kind == "sweep":
            t = np.linspace(0.0, 1.0, op.steps[0])
            return SWEEP_HEADER, np.column_stack((t, ref.quantifiers(t[:, None] * op.c)))
        nz, ng = op.steps
        z = np.repeat(np.linspace(0.0, 1.0, nz), ng)
        gamma = np.tile(np.linspace(0.0, 1.0, ng), nz)
        c = ref.CHANNEL_MAPS[op.kind](np.column_stack((z, -z, z)), gamma)
        return CHANNEL_HEADER, np.column_stack((z, gamma, c, ref.quantifiers(c)))

    def check(self, op: Op, result) -> tuple[int, str | None]:
        code, _ = result
        if code != 0:
            return op.units, f"exit {code}"
        header, want = self.expected(op)
        path = Path(op.argv[-1])
        lines = path.read_text().splitlines()
        path.unlink()  # a later op that fails to write must not find this file
        if lines[0] != header:
            return op.units, f"header {lines[0]!r}"
        if len(lines) - 1 != op.units:
            return op.units, f"{len(lines) - 1} rows, expected {op.units}"
        got = np.array([line.split(",") for line in lines[1:]], dtype=float)
        if got.shape != want.shape:
            return op.units, f"table shape {got.shape}, expected {want.shape}"
        bad = int((np.abs(got - want) > 1e-6).any(axis=1).sum())
        return bad, (f"{bad} rows differ from the closed forms by more than 1e-6" if bad else None)


class Kraus:
    """One library-level evolution on explicit 4x4 matrices.

    bell_diagonal_state -> apply_product_channel(., *_kraus(gamma)) ->
    bloch_decompose -> concurrence, for a seeded physical triple and gamma,
    alternating depolarizing and phase damping.
    """

    name = "kraus"
    trace_batch = 200
    # Looked up on every call, so that the tracer's wrappers are seen.
    KRAUS = {"depolarizing": "depolarizing_kraus", "phase-damping": "phase_damping_kraus"}

    def __init__(self, qcorr, workdir: Path):
        self.q = qcorr

    def ops(self, rng: np.random.Generator):
        while True:
            for kind in self.KRAUS:
                c, gamma = ref.random_triple(rng), float(rng.uniform())
                yield Op(f"{kind} gamma={gamma!r} c={c.tolist()}", 1, kind, c=c, gamma=gamma)

    def warm_up(self) -> None:
        for op, _ in zip(self.ops(np.random.default_rng(0)), range(20)):
            self.run(op)

    def run(self, op: Op):
        q = self.q
        rho = q.bell_diagonal_state(tuple(float(v) for v in op.c))
        out = q.apply_product_channel(rho, getattr(q, self.KRAUS[op.kind])(op.gamma))
        return q.bloch_decompose(out), q.concurrence(out)

    def check(self, op: Op, result) -> tuple[int, str | None]:
        bloch, conc = result
        c = ref.CHANNEL_MAPS[op.kind](op.c, op.gamma)
        t = np.asarray(bloch.T)
        off = t - np.diag(np.diag(t))
        worst = max(np.abs(np.diag(t) - c).max(), np.abs(bloch.x).max(),
                    np.abs(bloch.y).max(), np.abs(off).max())
        if worst > 1e-12:
            return 1, f"Bloch parameters off the mapped triple by {worst:.3e}"
        if abs(conc - ref.concurrence(c)) > 1e-9:
            return 1, f"concurrence {conc!r} != Wootters {float(ref.concurrence(c))!r}"
        return 0, None


WORKLOADS = {w.name: w for w in (Audit, Grid, Kraus)}
