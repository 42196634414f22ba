"""Span tracer that times kinsde from outside, by wrapping public functions.

Each wrapped function records a span (name, start, end, parent) around its
call.  Functions called once per step or per sample point are aggregated per
parent span instead (one node holding the call count, total and self time),
which keeps memory bounded on runs with 10^5 calls.  A span's self time is
its duration minus the union of its children's intervals.  Calls in pool
threads are children of the span open on the main thread; their intervals
are kept and merged when the run ends, since they overlap each other.

Wrappers pass arguments and return values through untouched, so tracing on
or off leaves every output byte-identical (checked by the self-tests).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute path, aggregated) for every timed boundary.  Attributes
# are patched on their class, and plain functions in every kinsde module that
# bound them by name.
TARGETS = [
    ("kinsde.cli", "write_csv", False),
    ("kinsde.cli", "write_json", False),
    ("kinsde.integrators", "save_snapshot", False),
    ("kinsde.core", "CoefficientSet.apply_sigma", True),
    ("kinsde.core", "CoefficientSet.drift_y", True),
    ("kinsde.core", "EmpiricalLaw.__init__", True),
    ("kinsde.core", "localized_lpq_norm", False),
    ("kinsde.fields", "RieszDrift.__call__", True),
    ("kinsde.fields", "ConfiningDrift.z1", True),
    ("kinsde.fields", "ConfiningDrift.z2", True),
    ("kinsde.fields", "MeanFieldKernel.mean_against", True),
    ("kinsde.fields", "LyapunovV.blocks", True),
    ("kinsde.integrators", "simulate_ensemble", False),
    ("kinsde.integrators", "step_normals", True),
    ("kinsde.integrators", "khasminskii_estimate", False),
    ("kinsde.ergodicity", "histogram_law", True),
    ("kinsde.ergodicity", "bootstrap_noise_floor", False),
    ("kinsde.ergodicity", "HTransform.value", True),
    ("kinsde.ergodicity", "HTransform.inverse", True),
    ("kinsde.ergodicity", "h_envelope", True),
    ("kinsde.ergodicity", "fit_h_envelope", False),
    ("kinsde.lyapunov", "drift_condition_lhs", True),
    ("kinsde.lyapunov", "search_constants", False),
    ("kinsde.zvonkin", "solve_resolvent_1d", False),
    ("kinsde.zvonkin", "ZvonkinSolution.theta_inv", True),
    ("kinsde.mckean", "particle_system_run", False),
    ("kinsde.mckean", "picard_iterate", False),
    ("kinsde.mckean", "MeasureFlow.law_at", True),
    ("kinsde.mckean", "rho_lambda", False),
]


def _ensemble_counts(ens, counters):
    counters["particle_steps"] += ens.n * (ens.times.size - 1)
    counters["dead_particles"] += ens.n_dead


def _count_simulate(args, kwargs, result, counters):
    _ensemble_counts(result, counters)


def _count_particle_run(args, kwargs, result, counters):
    _ensemble_counts(result[1], counters)


def _count_kernel(args, kwargs, result, counters):
    kernel, x, _y, law = args[:4]
    if kernel.structure == "pairwise":
        counters["kernel_pair_evals"] += x.shape[0] * law.n
    elif kernel.structure == "target":
        counters["kernel_pair_evals"] += law.n


COUNTED = ("particle_steps", "dead_particles", "kernel_pair_evals")

# Counts read from arguments or returned objects, keyed by wrapped name.
COUNTERS = {
    "simulate_ensemble": _count_simulate,
    "particle_system_run": _count_particle_run,
    "MeanFieldKernel.mean_against": _count_kernel,
}


class _Frame:
    __slots__ = ("key", "covered")

    def __init__(self, key):
        self.key = key          # span id, or (parent key, name) for an aggregate
        self.covered = 0.0      # time covered by children in the same thread


class _ThreadState:
    """What one thread records; only that thread writes to it, so no locks
    (a lock taken inside pool workers convoys on the interpreter lock)."""

    def __init__(self, stack: list):
        self.stack = stack
        self.aggs: dict = {}                 # key -> [count, total, covered]
        # (parent key, start, end) of calls whose parent is on the main thread
        self.cross: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)


class Tracer:
    """Holds spans and aggregates in memory until :meth:`dump`."""

    def __init__(self):
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[_Frame] = []
        self._ids = itertools.count(1)
        self._threads: list[_ThreadState] = []
        self.spans: list[tuple] = []        # (id, name, parent key, start, end, covered)
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            main = threading.current_thread() is self._main
            st = self._local.state = _ThreadState(self._main_stack if main else [])
            self._threads.append(st)
        return st

    def call(self, name: str, aggregated: bool, fn, args, kwargs):
        st = self._state()
        stack = st.stack
        cross = not stack and stack is not self._main_stack and bool(self._main_stack)
        # a pool thread starts with an empty stack: its calls are children of
        # the span the main thread is blocked in
        parent = stack[-1] if stack else (self._main_stack[-1] if cross else None)
        pkey = parent.key if parent is not None else 0
        frame = _Frame((pkey, name) if aggregated else next(self._ids))
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            if cross:
                st.cross.append((pkey, t0, t1))
            elif parent is not None:
                parent.covered += t1 - t0
            if aggregated:
                rec = st.aggs.get(frame.key)
                if rec is None:
                    rec = st.aggs[frame.key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += frame.covered
            else:
                self.spans.append((frame.key, name, pkey, t0, t1, frame.covered))
        hook = COUNTERS.get(name)
        if hook is not None:
            hook(args, kwargs, result, st.counters)
        return result

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a top-level span named ``name``."""
        return self.call(name, False, fn, args, {})

    # -- patching ---------------------------------------------------------------

    def _wrap(self, name: str, aggregated: bool, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, aggregated, fn, args, kwargs)

        return wrapper

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "kinsde" or n.startswith("kinsde.")]
        for modname, path, aggregated in TARGETS:
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(path, aggregated, orig))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(path, aggregated, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def dump(self, path, extra: dict):
        aggs: dict = {}
        counters: dict[str, int] = defaultdict(int)
        cross: dict = defaultdict(list)
        for st in self._threads:
            for key, (count, total, covered) in st.aggs.items():
                rec = aggs.setdefault(key, [0, 0.0, 0.0])
                rec[0] += count
                rec[1] += total
                rec[2] += covered
            for k, v in st.counters.items():
                counters[k] += v
            for pkey, t0, t1 in st.cross:
                cross[pkey].append((t0, t1))
        union = {pkey: _union_length(iv) for pkey, iv in cross.items()}
        ids = {0: 0}
        ids.update((s[0], s[0]) for s in self.spans)
        next_id = max(ids.values()) + 1
        for key in aggs:
            ids[key] = next_id
            next_id += 1
        out = dict(extra)
        out["spans"] = [
            {"id": i, "name": name, "parent": ids[p], "start": t0, "end": t1,
             "self": (t1 - t0) - covered - union.get(i, 0.0)}
            for i, name, p, t0, t1, covered in self.spans
        ]
        out["aggs"] = [
            {"id": ids[key], "name": key[1], "parent": ids[key[0]], "count": count,
             "total": total, "self": total - covered - union.get(key, 0.0)}
            for key, (count, total, covered) in aggs.items()
        ]
        out["counters"] = {k: counters[k] for k in COUNTED}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total
