"""Span tracing of hoggar from outside the package, for the traced benchmark run.

Every public module-level function of the library modules is replaced, at
every module attribute that binds it, by a wrapper that records a span.
Modules import by name, so ``hoggar.cli.capacity_search``,
``hoggar.capacity_search`` and ``hoggar.optimize.capacity_search`` are three
bindings of one function, and all three must be patched for every call path
to be seen.  No file of the package changes.

A span is recorded only where a call crosses from one group into another (a
group is a library module, or one of the optimizer functions measured on its
own, listed in ``GROUPS``).  A call from a function into its own group runs
unwrapped, so the per-element helpers of a module cost one frame, not a span.
Counters (solver iterations, bytes written, ...) are taken from the return
values at every call, also the unwrapped ones.

The tracer is single-threaded: it keeps one span stack, so hoggar's optional
``--jobs`` thread pool must stay at its default of one job while tracing.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

LIBRARY_MODULES = ("algebra", "sic", "infotheory", "optimize", "designs", "bloch", "serialize")

# Functions measured as their own group rather than as part of their module.
GROUPS = {
    "optimize.blahut_arimoto": "optimize.ba",
    "sic.projector_distance": "optimize.dedup",
    "optimize.min_entropy_search": "optimize.min_entropy",
    "optimize.capacity_search": "optimize.capacity",
    "optimize.random_pure_state": "optimize.sampling",
    "optimize.entropy_gradient": "optimize.gradient",
}

OP_GROUP = "op"

# Restarts whose value lies this close to the best one count as global hits.
GLOBAL_HIT_MARGIN = 1e-7

PER_LAYER = (
    ("optimize.ba.calls", "count"),
    ("optimize.ba.iters", "count"),
    ("optimize.ba.capped", "count"),
    ("optimize.ba.busy_s", "s"),
    ("optimize.ba.cells", "count"),
    ("optimize.ba.ns_per_cell", "ns"),
    ("optimize.dedup.calls", "count"),
    ("optimize.dedup.busy_s", "s"),
    ("optimize.min_entropy.busy_s", "s"),
    ("optimize.min_entropy.descent_iters", "count"),
    ("optimize.min_entropy.global_hit_ratio", "ratio"),
    ("optimize.capacity.self_s", "s"),
    ("optimize.capacity.descent_iters", "count"),
    ("optimize.capacity.outer_rounds", "count"),
    ("optimize.capacity.ensemble_size", "count"),
    ("optimize.sampling.busy_s", "s"),
    ("optimize.sampling.states", "count"),
    ("optimize.gradient.calls", "count"),
    ("optimize.gradient.busy_s", "s"),
    ("infotheory.busy_s", "s"),
    ("infotheory.calls", "count"),
    ("infotheory.outcome_rows", "count"),
    ("sic.busy_s", "s"),
    ("sic.calls", "count"),
    ("sic.covariance_s", "s"),
    ("designs.busy_s", "s"),
    ("designs.calls", "count"),
    ("bloch.busy_s", "s"),
    ("bloch.calls", "count"),
    ("algebra.busy_s", "s"),
    ("serialize.busy_s", "s"),
    ("serialize.bytes_written", "B"),
    ("serialize.bytes_read", "B"),
    ("cli.self_s", "s"),
    ("cli.manifest_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# Counts that must repeat exactly for the same operations and seed.
SELF_TEST_COUNTS = (
    "optimize.ba.calls",
    "optimize.ba.iters",
    "optimize.ba.capped",
    "optimize.min_entropy.descent_iters",
    "optimize.capacity.descent_iters",
    "optimize.dedup.calls",
    "optimize.min_entropy.global_hit_ratio",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_ba(c, result, args, kwargs):
    channel = _arg(args, kwargs, 0, "Q")
    rows, cols = len(channel), len(channel[0])
    c["optimize.ba.iters"] += result.iterations
    c["optimize.ba.capped"] += not result.converged
    c["optimize.ba.cells"] += result.iterations * rows * cols


def _count_min_entropy(c, result, args, kwargs):
    c["optimize.min_entropy.descent_iters"] += result.iterations_used
    c["optimize.min_entropy.restarts"] += len(result.restart_values)
    c["optimize.min_entropy.global_hits"] += sum(
        v <= result.best_value + GLOBAL_HIT_MARGIN for v in result.restart_values
    )


def _count_capacity(c, result, args, kwargs):
    c["optimize.capacity.descent_iters"] += result.iterations_used
    c["optimize.capacity.outer_rounds"] += len(result.restart_values)
    c["optimize.capacity.ensemble_size"] += result.best_ensemble.size


def _count_states(c, result, args, kwargs):
    c["optimize.sampling.states"] += 1 if result.ndim == 1 else result.shape[0]


def _count_rows(c, result, args, kwargs):
    c["infotheory.outcome_rows"] += 1 if result.ndim == 1 else result.shape[0]


def _bytes(key, index):
    def count(c, result, args, kwargs):
        c[key] += os.path.getsize(_arg(args, kwargs, index, "path"))

    return count


COUNTERS = {
    "optimize.blahut_arimoto": _count_ba,
    "optimize.min_entropy_search": _count_min_entropy,
    "optimize.capacity_search": _count_capacity,
    "optimize.random_pure_state": _count_states,
    "infotheory.outcome_probabilities": _count_rows,
    "infotheory.outcome_matrix": _count_rows,
    "serialize.dump_json": _bytes("serialize.bytes_written", 1),
    "serialize.write_csv": _bytes("serialize.bytes_written", 0),
    "serialize.load_json": _bytes("serialize.bytes_read", 0),
}


class Tracer:
    """Spans as ``[name, group, start_ns, end_ns, parent, op]`` plus counters.

    ``parent`` is the index of the enclosing span in ``spans`` (None at the
    top); ``op`` is the operation id the span belongs to.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None
        self._patches = []

    def _functions(self):
        for short in LIBRARY_MODULES:
            module = sys.modules[f"hoggar.{short}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == module.__name__:
                    yield f"{short}.{attr}", fn

    def install(self):
        """Patch every binding of every public library function."""
        modules = [m for n, m in sys.modules.items() if n == "hoggar" or n.startswith("hoggar.")]
        for name, fn in list(self._functions()):
            wrapper = self._wrap(fn, name, GROUPS.get(name, name.split(".")[0]), COUNTERS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, name, group, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][1] == group:
                result = fn(*args, **kwargs)
            else:
                span = [name, group, 0, 0, stack[-1] if stack else None, self.op]
                stack.append(len(spans))
                spans.append(span)
                span[2] = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = time.perf_counter_ns()
                    stack.pop()
            if counter is not None:
                counter(self.counts, result, args, kwargs)
            return result

        return wrapper

    def begin_op(self, op_id):
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append([f"op:{op_id}", OP_GROUP, time.perf_counter_ns(), 0, None, op_id])

    def end_op(self):
        self.spans[self.stack.pop()][3] = time.perf_counter_ns()
        self.op = None


def layer_metrics(spans, lo, hi, counts):
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one pass) and its counters."""
    child_ns = Counter()
    for span in spans[lo:hi]:
        if span[4] is not None:
            child_ns[span[4]] += span[3] - span[2]

    def outermost(i):
        group, parent = spans[i][1], spans[i][4]
        while parent is not None:
            if spans[parent][1] == group:
                return False
            parent = spans[parent][4]
        return True

    calls, busy_ns, self_ns, by_name_ns = Counter(), Counter(), Counter(), Counter()
    for i in range(lo, hi):
        name, group, start, end = spans[i][:4]
        calls[group] += 1
        self_ns[group] += end - start - child_ns[i]
        by_name_ns[name] += end - start
        if outermost(i):
            busy_ns[group] += end - start

    def seconds(ns):
        return ns / 1e9

    cells = counts["optimize.ba.cells"]
    restarts = counts["optimize.min_entropy.restarts"]
    m = {
        "optimize.ba.calls": calls["optimize.ba"],
        "optimize.ba.iters": counts["optimize.ba.iters"],
        "optimize.ba.capped": counts["optimize.ba.capped"],
        "optimize.ba.busy_s": seconds(busy_ns["optimize.ba"]),
        "optimize.ba.cells": cells,
        "optimize.ba.ns_per_cell": busy_ns["optimize.ba"] / cells if cells else 0.0,
        "optimize.dedup.calls": calls["optimize.dedup"],
        "optimize.dedup.busy_s": seconds(busy_ns["optimize.dedup"]),
        "optimize.min_entropy.busy_s": seconds(busy_ns["optimize.min_entropy"]),
        "optimize.min_entropy.descent_iters": counts["optimize.min_entropy.descent_iters"],
        "optimize.min_entropy.global_hit_ratio": (
            counts["optimize.min_entropy.global_hits"] / restarts if restarts else 0.0
        ),
        "optimize.capacity.self_s": seconds(self_ns["optimize.capacity"]),
        "optimize.capacity.descent_iters": counts["optimize.capacity.descent_iters"],
        "optimize.capacity.outer_rounds": counts["optimize.capacity.outer_rounds"],
        "optimize.capacity.ensemble_size": counts["optimize.capacity.ensemble_size"],
        "optimize.sampling.busy_s": seconds(busy_ns["optimize.sampling"]),
        "optimize.sampling.states": counts["optimize.sampling.states"],
        "optimize.gradient.calls": calls["optimize.gradient"],
        "optimize.gradient.busy_s": seconds(busy_ns["optimize.gradient"]),
        "infotheory.busy_s": seconds(busy_ns["infotheory"]),
        "infotheory.calls": calls["infotheory"],
        "infotheory.outcome_rows": counts["infotheory.outcome_rows"],
        "sic.busy_s": seconds(busy_ns["sic"]),
        "sic.calls": calls["sic"],
        "sic.covariance_s": seconds(by_name_ns["sic.verify_covariance"]),
        "designs.busy_s": seconds(busy_ns["designs"]),
        "designs.calls": calls["designs"],
        "bloch.busy_s": seconds(busy_ns["bloch"]),
        "bloch.calls": calls["bloch"],
        "algebra.busy_s": seconds(busy_ns["algebra"]),
        "serialize.busy_s": seconds(busy_ns["serialize"]),
        "serialize.bytes_written": counts["serialize.bytes_written"],
        "serialize.bytes_read": counts["serialize.bytes_read"],
        "cli.self_s": seconds(self_ns[OP_GROUP]),
        "trace.spans": hi - lo - calls[OP_GROUP],
    }
    return m
