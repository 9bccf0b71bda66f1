"""Call tracing installed from outside the library.

`Tracer.install()` wraps the public functions of the repstab modules that
the per-layer metrics need, and the numerical kernels they call, and
rebinds every name under which a repstab module (or the kernel's own
module) refers to them; `uninstall()` puts the originals back. No library
code changes. Spans (id, parent, name, start, end, thread) are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span name, module, attribute)
LIBRARY_TARGETS = (
    ("schatten.norm", "repstab.schatten", "schatten_norm"),
    ("schatten.rep_distance", "repstab.schatten", "rep_distance"),
    ("irreps.components", "repstab.irreps", "irreducible_components"),
    ("irreps.multiplicities", "repstab.irreps", "multiplicities"),
    ("graphs.relators", "repstab.graphs", "relators"),
    ("graphs.measure_defect", "repstab.graphs", "measure_defect"),
    ("graphs.generator_distance", "repstab.graphs", "generator_distance"),
    ("graphs.perturb", "repstab.graphs", "perturb"),
    ("intertwiners.invariant", "repstab.intertwiners", "invariant_intertwiner"),
    ("intertwiners.unitary", "repstab.intertwiners", "unitary_intertwiner"),
    ("cones.project", "repstab.cones", "project_to_kernel_cone"),
    ("stabilize.replace_summands", "repstab.stabilize", "replace_summands"),
    ("stabilize.correct_vertex", "repstab.stabilize", "correct_vertex"),
    ("stabilize.realize", "repstab.stabilize", "realize"),
    ("stabilize.stabilize", "repstab.stabilize", "stabilize"),
    ("sweep.run_sweep", "repstab.sweep", "run_sweep"),
    ("sweep.write_csv", "repstab.sweep", "write_csv"),
)
KERNEL_TARGETS = (
    ("schatten.svd", "numpy.linalg", "svd"),
    ("irreps.eigh", "numpy.linalg", "eigh"),
    ("intertwiners.null_space", "scipy.linalg", "null_space"),
    ("cones.milp", "repstab.cones", "milp"),
)
KERNELS = tuple(name for name, _, _ in KERNEL_TARGETS)
STAGES = ("measure_defect", "cone_projection", "vertex_corrections",
          "edge_corrections", "verification")
CELL_SPANS = ("stabilize.realize", "graphs.perturb", "stabilize.stabilize")

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "schatten.norm.calls": ("count/op", "lower"),
    "schatten.norm.ms": ("ms/op", "lower"),
    "schatten.rep_distance.ms": ("ms/op", "lower"),
    "schatten.svd.calls": ("count/op", "lower"),
    "schatten.svd.ms": ("ms/op", "lower"),
    "graphs.measure_defect.calls": ("count/op", "lower"),
    "graphs.measure_defect.ms": ("ms/op", "lower"),
    "graphs.generator_distance.ms": ("ms/op", "lower"),
    "graphs.relators.calls": ("count/op", "lower"),
    "irreps.components.calls": ("count/op", "lower"),
    "irreps.components.ms": ("ms/op", "lower"),
    "irreps.components.attempts_per_call": ("count/call", "lower"),
    "irreps.eigh.calls": ("count/op", "lower"),
    "irreps.multiplicities.calls": ("count/op", "lower"),
    "irreps.multiplicities.ms": ("ms/op", "lower"),
    "intertwiners.unitary.calls": ("count/op", "lower"),
    "intertwiners.unitary.self_ms": ("ms/op", "lower"),
    "intertwiners.invariant.ms": ("ms/op", "lower"),
    "intertwiners.kept_fraction": ("fraction", "higher"),
    "intertwiners.null_space.calls": ("count/op", "lower"),
    "cones.project.calls": ("count/op", "lower"),
    "cones.project.ms": ("ms/op", "lower"),
    "cones.project.in_kernel_fraction": ("fraction", "higher"),
    "cones.milp.calls": ("count/op", "lower"),
    "cones.milp.ms": ("ms/op", "lower"),
    **{f"stabilize.stage.{s}_ms": ("ms/op", "lower") for s in STAGES},
    "stabilize.correct_vertex.ms": ("ms/op", "lower"),
    "stabilize.replace_summands.ms": ("ms/op", "lower"),
    "stabilize.realize.ms": ("ms/op", "lower"),
    "stabilize.warnings": ("count/op", "lower"),
    "sweep.cells": ("count/op", "higher"),
    "sweep.workers": ("count", "higher"),
    "sweep.busy_fraction": ("fraction", "higher"),
    "trace.overhead_ms": ("ms/op", "lower"),
}


def _ratio(num: float, den: float) -> float:
    """num / den, reading 0 when nothing was counted."""
    return num / den if den else 0.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder; wrappers record only while `active` is set."""

    def __init__(self):
        self.spans: list[tuple] = []          # (id, parent, name, start_ns, end_ns, thread)
        self.notes: Counter = Counter()       # sums read off arguments and results
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    def _note(self, **values):
        with self._lock:
            self.notes.update(values)

    def _annotate(self, name, args, kwargs, result):
        if name == "intertwiners.invariant":
            self._note(kept_dim=result.kept_dim, dim=_arg(args, kwargs, 0, "rho1").dim)
        elif name == "cones.project":
            lam, bmap = _arg(args, kwargs, 0, "lam"), _arg(args, kwargs, 1, "bmap")
            self._note(project_in_kernel=int(bmap.apply(lam).is_zero()))
        elif name == "stabilize.stabilize":
            self._note(**{f"stage.{k}": v for k, v in result[1].timings_ms.items()})
        elif name == "sweep.run_sweep":
            self._note(sweep_cells=len(result))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, threading.get_ident()))
            tracer._annotate(name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Rebind each target in its own module and in every repstab module
        that imported it under the same name."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repstab" or n.startswith("repstab."))]
        for name, module_name, attr in LIBRARY_TARGETS + KERNEL_TARGETS:
            home = sys.modules[module_name]
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in {id(m): m for m in [home, *modules]}.values():
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextmanager
    def paused(self):
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def kernel_counts(self, first: int, last: int) -> dict:
        counts = Counter(span[2] for span in self.spans[first:last])
        return {k: counts[k] for k in KERNELS}

    def write(self, path, header: dict):
        """JSON lines: a header naming the span fields, then one list per span."""
        fields = ["id", "parent", "name", "start_ns", "end_ns", "thread"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "fields": fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, n_ops: int, warnings: int, overhead_ms: float) -> dict:
        """Per-layer metrics, normalised per timed operation."""
        calls: Counter = Counter()
        ms: defaultdict = defaultdict(float)
        child_ms: defaultdict = defaultdict(float)
        names = {}
        for sid, parent, name, start, end, _ in self.spans:
            dur = (end - start) / 1e6
            calls[name] += 1
            ms[name] += dur
            child_ms[parent] += dur
            names[sid] = name
        unitary_self = sum((end - start) / 1e6 - child_ms[sid]
                           for sid, _, name, start, end, _ in self.spans
                           if name == "intertwiners.unitary")
        attempts = sum(1 for _, parent, name, *_ in self.spans
                       if name == "irreps.eigh" and names.get(parent) == "irreps.components")
        workers, busy = self._sweep_pool()
        n = self.notes
        per_op = {
            "schatten.norm.calls": calls["schatten.norm"],
            "schatten.norm.ms": ms["schatten.norm"],
            "schatten.rep_distance.ms": ms["schatten.rep_distance"],
            "schatten.svd.calls": calls["schatten.svd"],
            "schatten.svd.ms": ms["schatten.svd"],
            "graphs.measure_defect.calls": calls["graphs.measure_defect"],
            "graphs.measure_defect.ms": ms["graphs.measure_defect"],
            "graphs.generator_distance.ms": ms["graphs.generator_distance"],
            "graphs.relators.calls": calls["graphs.relators"],
            "irreps.components.calls": calls["irreps.components"],
            "irreps.components.ms": ms["irreps.components"],
            "irreps.eigh.calls": calls["irreps.eigh"],
            "irreps.multiplicities.calls": calls["irreps.multiplicities"],
            "irreps.multiplicities.ms": ms["irreps.multiplicities"],
            "intertwiners.unitary.calls": calls["intertwiners.unitary"],
            "intertwiners.unitary.self_ms": unitary_self,
            "intertwiners.invariant.ms": ms["intertwiners.invariant"],
            "intertwiners.null_space.calls": calls["intertwiners.null_space"],
            "cones.project.calls": calls["cones.project"],
            "cones.project.ms": ms["cones.project"],
            "cones.milp.calls": calls["cones.milp"],
            "cones.milp.ms": ms["cones.milp"],
            **{f"stabilize.stage.{s}_ms": n[f"stage.{s}"] for s in STAGES},
            "stabilize.correct_vertex.ms": ms["stabilize.correct_vertex"],
            "stabilize.replace_summands.ms": ms["stabilize.replace_summands"],
            "stabilize.realize.ms": ms["stabilize.realize"],
            "stabilize.warnings": warnings,
            "sweep.cells": n["sweep_cells"],
        }
        out = {k: _ratio(v, n_ops) for k, v in per_op.items()}
        out.update({
            "irreps.components.attempts_per_call": _ratio(attempts, calls["irreps.components"]),
            "intertwiners.kept_fraction": _ratio(n["kept_dim"], n["dim"]),
            "cones.project.in_kernel_fraction": _ratio(n["project_in_kernel"],
                                                       calls["cones.project"]),
            "sweep.workers": workers,
            "sweep.busy_fraction": busy,
            "trace.overhead_ms": overhead_ms,
        })
        return {k: out[k] for k in PER_LAYER}

    def _sweep_pool(self) -> tuple[float, float]:
        """Mean worker threads per sweep, and cell time over (wall x workers).

        A cell span is a realize, perturb or stabilize span that runs at the
        top of a pool thread, or directly under run_sweep when the sweep
        runs serially; it belongs to the sweep whose interval holds it.
        """
        sweeps = [s for s in self.spans if s[2] == "sweep.run_sweep"]
        if not sweeps:
            return 0.0, 0.0
        sweep_ids = {s[0] for s in sweeps}
        main = threading.main_thread().ident
        cells = [s for s in self.spans if s[2] in CELL_SPANS
                 and (s[1] in sweep_ids or (s[1] == 0 and s[5] != main))]
        threads, cell_ms, capacity_ms = 0, 0.0, 0.0
        for _, _, _, start, end, _ in sweeps:
            mine = [c for c in cells if start <= c[3] and c[4] <= end]
            k = len({c[5] for c in mine})
            threads += k
            cell_ms += sum(c[4] - c[3] for c in mine) / 1e6
            capacity_ms += (end - start) / 1e6 * k
        return threads / len(sweeps), _ratio(cell_ms, capacity_ms)
