"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits the package.  It wraps the public functions at
the names where `nit_sim.spectra` and `nit_sim.cli` look them up at call
time (and the functions the benchmark itself calls), so each call into a
layer becomes a span: name, start, end, the span that caused it, and the
workload cycle it belongs to.  Spans stay in memory and are written out
when the run ends.

The closed form is called once per detuning point, so its calls are
tallied instead: one record per (parent span, name) with the call count
and the summed busy time.

A span's self time is its duration minus the part of it that its children
cover (the union of their intervals, so pool workers running side by side
are not counted twice); a tally's self time is its busy time.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# record fields
NAME, START, END, PARENT, CYCLE, CALLS, BUSY, TALLY = range(8)
# counts that keep their largest value; the others add up
MAX_COUNTS = frozenset({"quantum.generator_nnz"})


def _add(counts: dict, key: str, value: float) -> None:
    if key in MAX_COUNTS:
        counts[key] = max(counts.get(key, value), value)
    else:
        counts[key] = counts.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self.cycle = -1
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._tallies: dict[tuple[int, str], int] = {}

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[int]) -> int:
        # a pool worker's first span hangs off what the main thread is in
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else -1

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        start = perf_counter()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, start, start, self._parent(stack), self.cycle, 1, 0.0, False])
        stack.append(idx)
        try:
            yield idx
        finally:
            stack.pop()
            end = perf_counter()
            rec = self.spans[idx]
            rec[END], rec[BUSY] = end, end - start

    def tally(self, name: str, start: float, end: float) -> None:
        parent = self._parent(self._stack())
        with self._lock:
            idx = self._tallies.get((parent, name))
            if idx is None:
                idx = self._tallies[(parent, name)] = len(self.spans)
                self.spans.append([name, start, end, parent, self.cycle, 0, 0.0, True])
            rec = self.spans[idx]
            rec[END] = end
            rec[CALLS] += 1
            rec[BUSY] += end - start

    def count(self, key: str, value: float) -> None:
        with self._lock:
            _add(self.counts[self.cycle], key, value)

    def merge(self, spans: list[list], counts: dict[str, float], parent: int) -> None:
        """Adopt the spans of a traced child process under ``parent``.

        perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes,
        so the child's times line up with this process's.
        """
        with self._lock:
            base = len(self.spans)
            for rec in spans:
                rec = list(rec)
                rec[PARENT] = parent if rec[PARENT] < 0 else rec[PARENT] + base
                rec[CYCLE] = self.cycle
                self.spans.append(rec)
            for key, value in counts.items():
                _add(self.counts[self.cycle], key, value)

    def wrap(self, fn, name, tally: bool = False, on_return=None):
        """``fn`` recording a span per call; ``name`` may be a function of
        the call's arguments.  ``on_return(tracer, result, args)`` records
        counts at the same boundary."""
        name_of = name if callable(name) else (lambda *a, **k: name)
        if tally:
            def traced(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.tally(name_of(*args, **kwargs), start, perf_counter())
        else:
            def traced(*args, **kwargs):
                with self.span(name_of(*args, **kwargs)):
                    result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(self, result, args)
                return result
        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        payload = {"fields": ["name", "start", "end", "parent", "cycle", "calls", "busy", "tally"],
                   "spans": self.spans,
                   "counts": {str(k): v for k, v in self.counts.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans: list[list]) -> list[float]:
    """Self time of every record (see the module docstring)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        if rec[TALLY]:
            out.append(rec[BUSY])
            continue
        covered, lo_hi = 0.0, []
        for j in children.get(i, ()):
            child = spans[j]
            if child[TALLY]:
                covered += child[BUSY]
            else:
                lo_hi.append((max(child[START], rec[START]), min(child[END], rec[END])))
        reach = rec[START]
        for lo, hi in sorted(lo_hi):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(rec[BUSY] - covered)
    return out


# --- what is wrapped -------------------------------------------------------

def _csv_bytes(tr, text, args):
    tr.count("spectra.csv_bytes", len(text.encode("utf-8")))


def _integrated(tr, traj, args):
    tr.count("meanfield.integrate_steps", len(traj) - 1)


def _generator(tr, liou, args):
    tr.count("quantum.generator_nnz", liou.matrix.nnz)


def _written(tr, result, args):
    tr.count("cli.output_bytes", len(args[2].encode("utf-8")))


def _dm_name(liou, *a, **k):
    return f"quantum.steady_state_dm.{liou.spec.n_a}x{liou.spec.n_b}"


# attribute name (as spectra, cli and the benchmark look it up) ->
# (span name, tally, on_return)
WRAPS = {
    "parse_config": ("config.parse_config", False, None),
    "sweep": ("spectra.sweep", False, None),
    "run_sweep": ("spectra.sweep", False, None),
    "run_dephasing_scan": ("spectra.dephasing_scan", False, None),
    "to_csv_text": ("spectra.to_csv_text", False, _csv_bytes),
    "analyze_windows": ("spectra.analyze_windows", False, None),
    "emit_svg": ("svgplot.emit_svg", False, None),
    "steady_state": ("analytic.steady_state", True, None),
    "integrate": ("meanfield.integrate", False, _integrated),
    "build_operators": ("quantum.build_operators", False, None),
    "build_liouvillian": ("quantum.build_liouvillian", False, _generator),
    "steady_state_dm": (_dm_name, False, None),
    "expectation": ("quantum.expectation", False, None),
    "_write_text": ("cli.write_text", False, _written),
}


def install(tracer: Tracer, module) -> list[tuple[object, str, object]]:
    """Wrap every name of WRAPS that ``module`` has; returns the undo list."""
    undo = []
    for attr, (name, tally, hook) in WRAPS.items():
        fn = getattr(module, attr, None)
        if callable(fn):
            undo.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, tally=tally, on_return=hook))
    return undo


def uninstall(undo) -> None:
    for module, attr, fn in reversed(undo):
        setattr(module, attr, fn)
