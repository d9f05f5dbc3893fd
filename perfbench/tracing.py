"""Span tracing of romkit's layers, installed from outside the package.

Each traced function is replaced, at every module that binds it by name,
with a wrapper that records a span: its name, its duration and the span
that caused it (the innermost open span of the same thread). Spans are kept
in memory as aggregates keyed by (name, parent), which is enough for call
counts, busy time, self time and attribution such as "rb_solve called from
greedy_build". Worker threads of the CLI's thread pool have no open span of
their own; their outermost spans are attributed to the CLI command running
in the main thread, and the part of the command's interval that such
parallel children cover is computed as the union of their intervals.

Nothing in ``src/`` changes; :meth:`Tracer.uninstall` restores every
original binding.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

import numpy as np

# (layer, function, modules that bind the function by name). The defining
# module is always patched too, so calls through its own globals are seen.
TRACED_FUNCTIONS = [
    ("assembly", "build_mesh", ["problem"]),
    ("assembly", "build_dofmap", ["problem"]),
    ("assembly", "assemble_thermal_block_operators", ["problem"]),
    ("assembly", "assemble_inner_product", ["problem"]),
    ("problem", "make_thermal_block", ["cli"]),
    ("problem", "sample_parameters", ["cli"]),
    ("truth", "solve_fom", ["pod", "greedy", "certify", "cli"]),
    ("truth", "assemble_at", ["certify"]),
    ("truth", "stability_constants", ["certify", "cli"]),
    ("pod", "collect_snapshots", ["cli"]),
    ("pod", "pod_basis", ["cli"]),
    ("pod", "correlation_matrix", []),
    ("greedy", "greedy_build", ["cli"]),
    ("greedy", "orthonormalize", []),
    ("reduced", "project", ["cli"]),
    ("reduced", "extend_projection", []),
    ("reduced", "rb_solve", ["certify", "cli"]),
    ("certify", "riesz_offline", ["cli"]),
    ("certify", "riesz_extend", []),
    ("certify", "residual_dual_norm", []),
    ("certify", "stability_bounds", ["cli"]),
    ("certify", "certificate", ["cli"]),
    ("certify", "effectivities", ["cli"]),
    ("hashing", "fnv1a64_hex", ["pod", "reduced", "persistence"]),
    ("persistence", "save_model", ["cli"]),
    ("persistence", "load_model", ["cli"]),
    ("persistence", "write_payload", ["cli"]),
    ("persistence", "read_payload", []),
    ("cli", "cmd_offline", []),
    ("cli", "cmd_online", []),
    ("cli", "cmd_validate", []),
    ("cli", "cmd_sweep", []),
]

LAYERS = ["assembly", "problem", "thetas", "truth", "pod", "greedy",
          "reduced", "certify", "hashing", "persistence", "cli"]


class _Frame:
    __slots__ = ("name", "child", "parallel")

    def __init__(self, name, parallel=None):
        self.name = name
        self.child = 0.0
        self.parallel = parallel  # intervals of worker-thread children


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        # per thread: {(name, parent): [calls, busy s, child s]}
        self._tables = []
        self._command = None   # open cli.cmd_* frame, seen by pool threads
        self._patches = []
        self.solve_seconds = []
        self.max_solve_residual = 0.0
        self.below_floor = 0
        self.cancellation = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.fnv_bytes = 0

    # -- installation -----------------------------------------------------

    def install(self):
        """Patch every binding; returns the bindings it could not patch.

        A function that a later romkit renames or stops importing somewhere
        is skipped there rather than failing the run; its metrics read 0.
        """
        skipped = []
        for layer, func, sites in TRACED_FUNCTIONS:
            home = importlib.import_module(f"romkit.{layer}")
            original = getattr(home, func, None)
            if original is None:
                skipped.append(f"romkit.{layer}.{func}")
                continue
            hook = getattr(self, f"_after_{func}", None)
            wrapped = self._wrap(f"{layer}.{func}", original, hook,
                                 command=layer == "cli")
            for site in [layer] + sites:
                module = importlib.import_module(f"romkit.{site}")
                if getattr(module, func, None) is not original:
                    skipped.append(f"romkit.{site}.{func}")
                    continue
                self._patches.append((module, func, original))
                setattr(module, func, wrapped)
        thetas = importlib.import_module("romkit.thetas")
        original = thetas.ThetaExpression.evaluate
        self._patches.append((thetas.ThetaExpression, "evaluate", original))
        thetas.ThetaExpression.evaluate = self._wrap("thetas.evaluate",
                                                     original, None)
        return skipped

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return local.stack, local.table

    def _wrap(self, name, fn, hook, command=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = tracer._thread_state()
            parent = stack[-1] if stack else None
            worker_root = (parent is None and tracer._command is not None
                           and threading.current_thread()
                           is not threading.main_thread())
            if worker_root:
                parent = tracer._command
            frame = _Frame(name, [] if command else None)
            stack.append(frame)
            if command:
                tracer._command = frame
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if command:
                    tracer._command = None
                    frame.child += _union_length(frame.parallel)
                if worker_root:
                    parent.parallel.append((start, end))
                elif parent is not None:
                    parent.child += end - start
                key = (name, None if parent is None else parent.name)
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += frame.child
            if hook is not None:
                hook(args, result, end - start)
            return result

        return traced

    # hooks run in the caller's thread, possibly a pool worker, after the
    # span closes
    def _after_solve_fom(self, args, result, seconds):
        with self._lock:
            self.solve_seconds.append(seconds)
            self.max_solve_residual = max(self.max_solve_residual,
                                          result.solve_residual)

    def _after_certificate(self, args, result, seconds):
        if result.below_floor or result.cancellation:
            with self._lock:
                self.below_floor += bool(result.below_floor)
                self.cancellation += bool(result.cancellation)

    def _after_fnv1a64_hex(self, args, result, seconds):
        with self._lock:
            self.fnv_bytes += len(args[0])

    def _after_write_payload(self, args, result, seconds):
        array = np.asarray(args[1])
        with self._lock:
            self.bytes_written += 20 + 8 * array.size

    def _after_read_payload(self, args, result, seconds):
        with self._lock:
            self.bytes_read += 20 + 8 * result.size

    # -- aggregation ------------------------------------------------------

    def table(self):
        """Merged {(name, parent): [calls, total_s, child_s]}."""
        merged = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, total, child) in table.items():
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += child
        return merged

    def metrics(self):
        """Per-layer metrics named as in BENCHMARK.json (without units)."""
        table = self.table()

        def calls(name, parent=...):
            return sum(c for (n, p), (c, _, _) in table.items()
                       if n == name and (parent is ... or p == parent))

        def busy(name, parent=...):
            return sum(t for (n, p), (_, t, _) in table.items()
                       if n == name and (parent is ... or p == parent))

        def self_time(layer):
            return sum(t - ch for (n, _), (_, t, ch) in table.items()
                       if n.split(".")[0] == layer)

        build = "greedy.greedy_build"
        fnv_s = busy("hashing.fnv1a64_hex")
        sweep_wall = busy("cli.cmd_sweep")
        out = {
            "assembly.mesh_s": busy("assembly.build_mesh"),
            "assembly.operators_s":
                busy("assembly.assemble_thermal_block_operators"),
            "problem.sample_s": busy("problem.sample_parameters"),
            "thetas.evaluate_calls": calls("thetas.evaluate"),
            "thetas.evaluate_s": busy("thetas.evaluate"),
            "truth.solve_calls": calls("truth.solve_fom"),
            "truth.solve_s": busy("truth.solve_fom"),
            "truth.solve_p50_ms": (1e3 * float(np.median(self.solve_seconds))
                                   if self.solve_seconds else 0.0),
            "truth.max_solve_residual": self.max_solve_residual,
            "truth.assemble_at_calls": calls("truth.assemble_at"),
            "truth.stability_constants_s": busy("truth.stability_constants"),
            "pod.collect_snapshots_s": busy("pod.collect_snapshots"),
            "pod.pod_basis_s": busy("pod.pod_basis"),
            "pod.correlation_matrix_s": busy("pod.correlation_matrix"),
            "greedy.iterations": calls("truth.solve_fom", build),
            "greedy.scan_points": calls("certify.residual_dual_norm", build),
            "greedy.scan_s": (busy("reduced.rb_solve", build)
                              + busy("certify.residual_dual_norm", build)),
            "greedy.orthonormalize_s": busy("greedy.orthonormalize"),
            "reduced.project_s": busy("reduced.project"),
            "reduced.extend_projection_s": busy("reduced.extend_projection"),
            "reduced.rb_solve_calls": calls("reduced.rb_solve"),
            "reduced.rb_solve_s": busy("reduced.rb_solve"),
            "certify.riesz_offline_s": busy("certify.riesz_offline"),
            "certify.riesz_extend_s": busy("certify.riesz_extend"),
            "certify.residual_dual_norm_s":
                busy("certify.residual_dual_norm"),
            "certify.certificate_s": busy("certify.certificate"),
            "certify.stability_bounds_calls":
                calls("certify.stability_bounds"),
            "certify.effectivities_s": busy("certify.effectivities"),
            "certify.below_floor": self.below_floor,
            "certify.cancellation": self.cancellation,
            "hashing.fnv_calls": calls("hashing.fnv1a64_hex"),
            "hashing.fnv_bytes": self.fnv_bytes,
            "hashing.fnv_s": fnv_s,
            "hashing.fnv_MBps": self.fnv_bytes / 1e6 / fnv_s if fnv_s else 0.0,
            "persistence.save_s": busy("persistence.save_model"),
            "persistence.load_s": busy("persistence.load_model"),
            "persistence.bytes_written": self.bytes_written,
            "persistence.bytes_read": self.bytes_read,
            "cli.sweep_busy_over_wall": (
                busy("certify.certificate", "cli.cmd_sweep") / sweep_wall
                if sweep_wall else 0.0),
            "trace.spans": sum(c for c, _, _ in table.values()),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time(layer)
        return out


def _union_length(intervals):
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total
