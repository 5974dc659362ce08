"""In-memory span recorder that wraps the public functions of each layer.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent) and the benchmark operation it
belongs to.  Spans live in flat arrays while the run goes on and are
written once, when the run ends.

Wrapping is done from outside the program: every module of the package that
holds a layer function under some name (``solver`` holds ``modal.solve_mode``
as ``solve_mode``) gets a wrapper under that same name, so calls that go
through either lookup are recorded.  A function that a later refactor
removes is reported as absent; its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import tracemalloc
from array import array

import numpy as np

# (layer module, public function) pairs that get spans.
LAYER_FUNCTIONS = {
    "spectrum": ("modes_for", "interval_modes", "box_modes", "exceptional_for_c",
                 "exceptional_for_sigma", "distance_to_exceptional"),
    "modal": ("solve_mode", "eval_mode", "characteristic_roots",
              "solve_second_order"),
    "solver": ("check_wellposed", "evolve_homogeneous", "field_norm",
               "project_samples", "reconstruct"),
    "boundary": ("build_blocks", "evolve_with_boundary", "dirichlet_map_interval"),
    "experiments": ("limit1_scan", "limit1_reference", "limit2_scan", "limit3_scan",
                    "heat_comparison", "whole_line_mode", "singularity_scan",
                    "propagation_burst"),
    "oracle": ("quad_integrate", "integrate_mode", "integrate_mode_batch"),
}

OP_SPAN = "bench.op"
IMPORT_SPAN = "cli.import"
MAIN_SPAN = "cli.main"


class Tracer:
    """Flat arrays of spans plus named counters, for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None):
        """Wrapper that records a span per call; ``before(args, kwargs)`` may
        adjust counters and return replacement ``(args, kwargs)``."""
        nid = self.name_id(name)
        starts, ends, names, parents, ops = (self.start, self.end, self.name,
                                             self.parent, self.op)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        traced.__bench_traced__ = True
        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span."""
        self.name.append(self.name_id(name))
        self.parent.append(-1)
        self.op.append(self.current_op)
        self.start.append(start)
        self.end.append(end)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    # ---- output ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, the name table and the counters to ``path``."""
        np.savez_compressed(path, names=np.array(self.names, dtype=object),
                            counters=np.array([self.counters, self.peaks,
                                               self.absent], dtype=object),
                            **self.arrays())

    def merge_file(self, path, op: int, parent: int) -> None:
        """Append the spans another process saved, under operation ``op``,
        with its top-level spans as children of span ``parent``."""
        with np.load(path, allow_pickle=True) as z:
            names = list(z["names"])
            counters, peaks, absent = z["counters"]
            remap = np.array([self.name_id(n) for n in names], dtype=np.int32)
            base = len(self.start)
            theirs = z["parent"]
            self.name.extend(remap[z["name"]].tolist())
            self.parent.extend(np.where(theirs >= 0, theirs + base, parent).tolist())
            self.op.extend([op] * len(theirs))
            self.start.extend(z["start"].tolist())
            self.end.extend(z["end"].tolist())
        for k, v in counters.items():
            self.count(k, v)
        for k, v in peaks.items():
            self.peak(k, v)
        for name in absent:
            if name not in self.absent:
                self.absent.append(name)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        return out


# ---- hooks that add counts at a layer boundary ------------------------------

def _projection_terms(tracer, args, kwargs):
    """modes x sample points of ``project_samples(samples, basis)``."""
    if len(args) >= 2:
        tracer.count("solver.sample_terms",
                     args[1].truncation * np.asarray(args[0][1]).size)
    return args, kwargs


def _reconstruction_terms(tracer, args, kwargs):
    """modes x points of ``reconstruct(field, points)``."""
    if len(args) >= 2:
        points = np.asarray(args[1])
        npts = points.shape[0] if points.ndim == 2 else points.size
        tracer.count("solver.sample_terms", args[0].basis.truncation * npts)
    return args, kwargs


def _counting_signal(tracer, args, kwargs):
    """Count boundary-signal evaluations: one per quadrature node plus ends."""
    if len(args) >= 4 and dataclasses.is_dataclass(args[3]):
        signal = args[3]
        value = signal.value

        def counted(s, _v=value):
            tracer.count("boundary.quad_nodes", 1)
            return _v(s)

        args = args[:3] + (dataclasses.replace(signal, value=counted),) + args[4:]
    return args, kwargs


def _alloc_peak(fn, tracer):
    """Peak of traced allocations inside one call, in MB."""

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            if started:
                tracemalloc.stop()
            tracer.peak("boundary.alloc_peak_mb", peak / 2 ** 20)

    return measured


HOOKS = {
    "solver.project_samples": _projection_terms,
    "solver.reconstruct": _reconstruction_terms,
    "boundary.evolve_with_boundary": _counting_signal,
}


def install(tracer: Tracer, package) -> None:
    """Wrap every layer function wherever a package module binds it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package.__name__
                                     or name.startswith(package.__name__ + "."))]
    for layer, functions in LAYER_FUNCTIONS.items():
        module = sys.modules.get(f"{package.__name__}.{layer}")
        for fname in functions:
            qual = f"{layer}.{fname}"
            original = getattr(module, fname, None) if module is not None else None
            if original is None or getattr(original, "__bench_traced__", False):
                if original is None:
                    tracer.absent.append(qual)
                continue
            inner = original
            if qual == "boundary.evolve_with_boundary":
                inner = _alloc_peak(original, tracer)
            wrapped = tracer.wrap(qual, inner, HOOKS.get(qual))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
