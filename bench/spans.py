"""Per-layer tracing of qcorr from outside the package.

The tracer replaces each traced function with a wrapper that records one
span (name, parent span, start, end) per call, in every qcorr module that
bound the function, including names bound by ``from ... import``. Spans
stay in memory; self times are computed after a batch of ops finishes.
Uninstalling restores the original functions, so untraced ops run the
unmodified code.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# Layer (qcorr module) -> public functions traced in it.
LAYERS = {
    "cli": ("cmd_verify", "cmd_sweep", "cmd_channel"),
    "oracle": (
        "audit_closed_forms",
        "minimize_relative_entropy_basis",
        "maximize_laqc",
        "brute_force_discord",
    ),
    "channels": (
        "correlation_trajectory",
        "apply_product_channel",
        "depolarizing_kraus",
        "phase_damping_kraus",
    ),
    "correlations": (
        "full_report",
        "concurrence",
        "discord_bd",
        "correlation_entropy_function",
        "mutual_information",
    ),
    "bases": (
        "joint_projective_distribution",
        "local_basis_pair",
        "complementary_qubit_basis",
    ),
    "qstate": (
        "bell_diagonal_state",
        "validate_density",
        "bloch_decompose",
        "xlog2",
        "von_neumann_entropy",
        "partial_trace",
    ),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Installs span-recording wrappers and turns recorded spans into totals."""

    def __init__(self):
        modules = [m for n, m in sys.modules.items() if n == "qcorr" or n.startswith("qcorr.")]
        self.records: list = []
        self._stack = [-1]
        self._patches = []  # (module, attribute, original, wrapper)
        for idx, name in enumerate(SPAN_NAMES):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"qcorr.{layer}"], fn_name)
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))
        self.calls = np.zeros(len(SPAN_NAMES), dtype=np.int64)
        self.self_ns = np.zeros(len(SPAN_NAMES))

    def _wrap(self, idx, fn):
        records, stack, clock = self.records, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(records)
            records.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[sid] = (idx, parent, start, end)

        return traced

    def install(self) -> None:
        self.records.clear()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def absorb(self) -> np.ndarray:
        """Add the recorded spans' calls and self times to the totals.

        Returns the spans as an (n, 4) array of (name index, parent, start,
        end); the caller keeps it if these are the spans to write out.
        """
        spans = np.array(self.records, dtype=np.int64).reshape(-1, 4)
        idx, parent = spans[:, 0], spans[:, 1]
        dur = (spans[:, 3] - spans[:, 2]).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(spans))
        self.calls += np.bincount(idx, minlength=len(SPAN_NAMES))
        self.self_ns += np.bincount(idx, weights=dur - child, minlength=len(SPAN_NAMES))
        self.records.clear()
        return spans


def write_spans(path, spans: np.ndarray, op_starts: list[int], header: dict) -> None:
    """One JSON header line, then one [op, id, parent, name, start_ns, end_ns] per span."""
    op_of = np.searchsorted(np.asarray(op_starts), np.arange(len(spans)), side="right") - 1
    with open(path, "w") as out:
        out.write(json.dumps({**header, "names": SPAN_NAMES}) + "\n")
        for sid, (op, (idx, parent, start, end)) in enumerate(zip(op_of.tolist(), spans.tolist())):
            out.write(json.dumps([op, sid, parent, SPAN_NAMES[idx], start, end]) + "\n")
