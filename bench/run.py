"""Run one qcorr benchmark workload and print its metrics.

    python3 bench/run.py --workload {audit,grid,kraus} --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in, never from an installed copy. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones
(set-up time, per-op latency median, throughput, peak RSS); with
``--trace 1`` they are per-layer calls and self-time shares from a traced
run, measured against an untraced run of the same ops. Lines before it,
prefixed with ``#``, repeat the metrics for people, with the run's
environment. Temporary files and the span dump go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from spans import LAYERS, SPAN_NAMES, Tracer, write_spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_LAUNCHES = 4  # timed launches before the workload, and again after it
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import qcorr, qcorr.cli\n"
    "qcorr.cli.build_parser()\n"
    "print(time.perf_counter() - t, qcorr.__file__)\n"
)


class BenchError(Exception):
    pass


def import_qcorr():
    sys.path.insert(0, str(SRC))
    try:
        import qcorr
        import qcorr.cli
    except ImportError as exc:
        raise BenchError(f"cannot import qcorr from {SRC}: {exc}") from None
    if not Path(qcorr.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"qcorr imported from {qcorr.__file__}, not from {SRC}")
    return qcorr


def measure_setup(launches: int, warm: bool) -> list[float]:
    """Times for fresh interpreters to import qcorr and build the CLI parser."""
    times = []
    for launch in range(launches + warm):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds, path = proc.stdout.strip().split(maxsplit=1)
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchError(f"set-up probe imported qcorr from {path}")
        if launch or not warm:  # a warming launch only fills the file cache
            times.append(float(seconds))
    return times


def cpu_ticks() -> tuple[int, int]:
    """(total, steal) jiffies of all CPUs; steal is time a hypervisor gave elsewhere."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return sum(fields), (fields[7] if len(fields) > 7 else 0)


class Tally:
    """Closed-loop op runner: times each op, then checks its result."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []  # seconds per unit, one entry per op
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op) -> None:
        start = time.perf_counter()
        try:
            result = self.workload.run(op)
        except (Exception, SystemExit) as exc:  # argparse exits on a rejected argv
            elapsed = time.perf_counter() - start
            bad, why = op.units, f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            try:
                bad, why = self.workload.check(op, result)
            except Exception as exc:
                bad, why = op.units, f"check raised {type(exc).__name__}: {exc}"
        self.busy += elapsed
        self.latencies.append(elapsed / op.units)
        self.attempted += op.units
        self.failed += bad
        if why and len(self.errors) < 5:
            self.errors.append(f"{op.label}: {why}")


def timed_run(workload, rng, seconds: float) -> tuple[Tally, dict]:
    tally = Tally(workload)
    deadline = time.perf_counter() + seconds
    for op in workload.ops(rng):
        tally.run(op)
        if time.perf_counter() >= deadline:
            break
    lat_ms = np.array(tally.latencies) * 1e3
    metrics = {
        "op_ms_p50": (float(np.median(lat_ms)), "ms"),
        "ops_per_s": ((tally.attempted - tally.failed) / tally.busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"{len(lat_ms)} op latencies sampled over {tally.busy:.3f} s busy"]
    for q in (90, 99):
        if len(lat_ms) * (100 - q) / 100 >= 10:  # at least ten samples beyond it
            notes.append(f"op_ms_p{q} = {np.percentile(lat_ms, q):.6g} ms")
    return tally, {"metrics": metrics, "notes": notes}


def traced_run(workload, rng, seconds: float, header: dict) -> tuple[Tally, dict]:
    """Alternate untraced and traced passes over one fixed batch of ops.

    Calls are per end-to-end op (per CSV row on grid) and self times are
    shares of traced time, both totalled over every traced pass; the
    overhead compares traced with untraced busy time over the same ops.
    """
    batch = list(itertools.islice(workload.ops(rng), workload.trace_batch))
    tracer = Tracer()
    tally = Tally(workload)
    plain_s = traced_s = 0.0
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        busy = tally.busy
        for op in batch:
            tally.run(op)
        plain_s += tally.busy - busy
        busy, op_starts = tally.busy, []
        tracer.install()
        try:
            for op in batch:
                op_starts.append(len(tracer.records))
                tally.run(op)
        finally:
            tracer.uninstall()
        traced_s += tally.busy - busy
        spans = tracer.absorb()
        passes += 1
        if time.perf_counter() >= deadline:
            break
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload.name}.jsonl"
    write_spans(dump, spans, op_starts, {**header, "ops_in_pass": len(batch)})

    # Self time is reported as a share of traced time: an uncalled function's
    # self time is exactly 0 on every run, and a time that never varies
    # reads as unmeasured. Self ms per op = share * trace.op_ms.
    n_ops = passes * sum(op.units for op in batch)
    metrics = {}
    for i, name in enumerate(SPAN_NAMES):
        metrics[f"{name}.calls"] = (float(tracer.calls[i]) / n_ops, "calls/op")
        metrics[f"{name}.self_frac"] = (tracer.self_ns[i] / 1e9 / traced_s, "fraction")
    for layer, fns in LAYERS.items():
        total = sum(metrics[f"{layer}.{fn}.self_frac"][0] for fn in fns)
        metrics[f"{layer}.self_frac"] = (total, "fraction")
    metrics["trace.op_ms"] = (traced_s * 1e3 / n_ops, "ms/op")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
    notes = [f"{passes} traced and {passes} untraced passes of {len(batch)} ops; "
             f"spans of the last traced pass in {dump.relative_to(ROOT)}"]
    return tally, {"metrics": metrics, "notes": notes}


def blas_threads() -> int | None:
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcorr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        qcorr = import_qcorr()
        setup = [] if args.trace else measure_setup(SETUP_LAUNCHES, warm=True)
        env = environment(args)
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
            workload = WORKLOADS[args.workload](qcorr, Path(work))
            workload.warm_up()
            rng = np.random.default_rng(args.seed)
            ticks = cpu_ticks()
            if args.trace:
                tally, report = traced_run(workload, rng, args.seconds, env)
            else:
                tally, report = timed_run(workload, rng, args.seconds)
            total, steal = (b - a for a, b in zip(ticks, cpu_ticks()))
            env["cpu_steal_frac"] = steal / total if total else None
        if not args.trace:  # launches on both sides of the workload even out drift
            setup += measure_setup(SETUP_LAUNCHES, warm=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = report["metrics"]
    if setup:
        metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}
    print(f"# env {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<48} {value:>14.6g} {unit}")
    print(f"# error_rate = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    for line in report["notes"] + tally.errors:
        print(f"# {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
