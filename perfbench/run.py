"""End-to-end and per-layer benchmark of hoggar.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-d8 --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``.  Each runs in this one process as
a closed loop with one client: the workload's fixed operation list (a
"pass") runs back to back, and passes repeat while the next one is expected
to end within ``--seconds``.  BLAS and OpenMP threads are set to the number
of CPUs the process may use.  The program is imported from ``./src``; the
benchmark touches it only through ``hoggar.cli.run(argv)`` and public
library functions.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median, over fresh interpreters, of the time from interpreter
start to ``import hoggar.cli`` done, plus constructing and writing the family
for verify-d8) and ``peak_rss_mb`` of this process; beside them it shows the
median operation time ``op_p50_s`` (and ``op_p90_s`` from 100 operations on)
and the failed-operation ratio.  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics of ``spans.py`` for one
traced pass (times are medians over traced passes); the spans go to a JSONL
file under ``.bench_work``.

Every operation's outputs are checked (see ``workloads.py``); an operation
fails on a failed check, on bytes that differ from an earlier run of the same
operation and seed with the same sources, and, when traced, on solver counts
that differ in the same way.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from spans import PER_LAYER, SELF_TEST_COUNTS, Tracer, layer_metrics
from workloads import WORKLOADS, Outcome, run_cli, run_library

WORK_ROOT = ".bench_work"
STORE = os.path.join(WORK_ROOT, "store.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PROBE = """
import contextlib, io, sys, time
import hoggar.cli
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = hoggar.cli.run(sys.argv[1:])
    if rc != 0:
        sys.exit(rc)
print(time.monotonic())
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tree_digest(root):
    """sha256 over every file under ``root``: stored results are per source tree."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def load_store(src_digest):
    try:
        with open(STORE, encoding="utf-8") as fh:
            store = json.load(fh)
    except FileNotFoundError:
        store = {}
    if store.get("src") != src_digest:
        store = {"src": src_digest, "digests": {}, "counts": {}}
    return store


def save_store(store):
    tmp = STORE + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(store, fh, sort_keys=True)
    os.replace(tmp, STORE)


def measure_setup(workload, probe_dir):
    """Median over fresh interpreters of the time to import hoggar.cli (and run set-up).

    The first probe is not timed: it compiles the bytecode, which users pay once.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        shutil.rmtree(probe_dir, ignore_errors=True)
        os.makedirs(probe_dir)
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, *workload.setup_argv(probe_dir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}: {proc.stderr}")
        if i:
            times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


def machine_metadata(nproc):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = {}
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Runner:
    """Runs operations, checks them and keeps the evidence a run reports."""

    def __init__(self, args, workload, cli, store, tracer):
        self.args = args
        self.workload = workload
        self.cli = cli
        self.store = store
        self.tracer = tracer
        self.attempted = 0
        self.failures = []  # (op id, problems) of every failed operation
        self.digests = {}

    def run_op(self, op, traced):
        if traced:
            self.tracer.begin_op(op.op_id)
        start = time.perf_counter()
        try:
            if op.argv is not None:
                out_dir = os.path.join(self.workload.work_dir, op.op_id)
                outcome = run_cli(self.cli, op, out_dir, time.perf_counter)
            else:
                outcome = run_library(op, time.perf_counter)
        except Exception as exc:  # a crashing operation is a failed one; the run goes on
            message = traceback.format_exception_only(exc)[-1].strip()
            outcome = Outcome(time.perf_counter() - start, [f"raised {message}"])
        finally:
            if traced:
                self.tracer.end_op()
        if outcome.digests:
            seen = self.digests.setdefault(op.op_id, outcome.digests)
            stored = self.store["digests"].setdefault(f"{self.args.workload}:{op.op_id}", outcome.digests)
            if outcome.digests != seen or outcome.digests != stored:
                outcome.problems.append("output bytes differ from an earlier run of the same operation and seed")
        return outcome

    def count_self_test(self, counts):
        """Problems if the solver counts differ from an earlier traced pass with this seed."""
        key = f"{self.args.workload}:{self.args.seed}"
        mine = {name: counts[name] for name in SELF_TEST_COUNTS}
        reference = self.store["counts"].setdefault(key, mine)
        return [] if mine == reference else [f"solver counts {mine} differ from {reference}"]

    def record(self, op_id, problems):
        self.attempted += 1
        if problems:
            self.failures.append((op_id, problems))


def run_passes(runner, seconds, trace):
    """Repeat the pass while the next one is expected to end within ``seconds``.

    With tracing, passes alternate untraced / traced, starting untraced, and
    at least one of each runs.
    """
    ops = runner.workload.ops
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            runner.tracer.counts.clear()
            lo = len(runner.tracer.spans)
            runner.tracer.install()
        t0 = time.perf_counter()
        try:
            outcomes = [runner.run_op(op, traced) for op in ops]
        finally:
            if traced:
                runner.tracer.uninstall()
        record = {
            "traced": traced,
            "wall": time.perf_counter() - t0,
            "op_seconds": [o.seconds for o in outcomes],
            "manifest_bytes": sum(o.manifest_bytes for o in outcomes),
        }
        count_problems = []
        if traced:
            spans = runner.tracer.spans
            record["layers"] = layer_metrics(spans, lo, len(spans), runner.tracer.counts)
            count_problems = runner.count_self_test(record["layers"])
        for op, outcome in zip(ops, outcomes):
            runner.record(op.op_id, outcome.problems + count_problems)
        passes.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if trace and len(passes) < 2:
            continue
        if elapsed + typical > seconds:
            return passes


def end_to_end(passes, setup_s):
    """The end-to-end metrics, and the operation-time percentiles shown beside them.

    The percentiles are not among the metrics: where a pass mixes operations
    of different cost (certify-small-d), the median falls between their
    clusters and moves with the seed more than any bound allows.
    """
    walls = [p["wall"] for p in passes]
    op_times = [t for p in passes for t in p["op_seconds"]]
    m = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    percentiles = {"op_p50_s": statistics.median(op_times)}
    if len(op_times) >= 100:
        percentiles["op_p90_s"] = statistics.quantiles(op_times, n=10)[-1]
    return m, {"passes": len(walls), "ops": len(op_times)}, percentiles


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    m = dict(traced[0]["layers"])  # counts: equal on every traced pass (count self-test)
    m["cli.manifest_bytes"] = traced[0]["manifest_bytes"]
    m["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - statistics.median(
        p["wall"] for p in untraced
    )
    for name, unit in PER_LAYER:
        if unit in ("s", "ns") and name != "trace.overhead_s":
            m[name] = statistics.median(p["layers"][name] for p in traced)
    return {name: m[name] for name, _ in PER_LAYER}


def write_spans(path, spans, origin):
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, group, start, end, parent, op) in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": name, "layer": group, "start_ns": start - origin,
                "end_ns": end - origin, "parent": parent, "op": op,
            }) + "\n")


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "hoggar", "cli.py")):
        print("perfbench: no hoggar sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)

    import hoggar
    import hoggar.cli

    if os.path.dirname(os.path.abspath(hoggar.__file__)) != os.path.join(src, "hoggar"):
        print(f"perfbench: imported hoggar from {hoggar.__file__}, not ./src", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    workload = WORKLOADS[args.workload](args.seed, work_dir, hoggar)
    setup_s = None if args.trace else measure_setup(workload, os.path.join(work_dir, "setup-probe"))

    store = load_store(tree_digest(src))
    tracer = Tracer()
    runner = Runner(args, workload, hoggar.cli, store, tracer)
    origin = time.perf_counter_ns()
    for op in workload.prepare:
        runner.record(op.op_id, runner.run_op(op, traced=False).problems)
    passes = run_passes(runner, args.seconds, bool(args.trace))
    save_store(store)

    if args.trace:
        metrics = per_layer(passes)
        units = dict(PER_LAYER)
        spans_path = os.path.join(work_dir, f"spans-seed{args.seed}.jsonl")
        write_spans(spans_path, tracer.spans, origin)
        info = {"passes": len(passes), "spans_file": spans_path}
        percentiles = {}
    else:
        metrics, info, percentiles = end_to_end(passes, setup_s)
        units = dict(END_TO_END)

    print("meta " + json.dumps(machine_metadata(nproc), sort_keys=True))
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed, **info}, sort_keys=True))
    for op_id, digests in runner.digests.items():
        for path, digest in digests.items():
            print(f"digest {op_id} {os.path.basename(path)} {digest}")
    for op_id, problems in runner.failures:
        print(f"FAILED {op_id}: {'; '.join(problems)}")
    failed = len(runner.failures)
    print(f"failed_ops_ratio {failed / runner.attempted:.6g} ({failed}/{runner.attempted})")
    for name, value in metrics.items():
        print(f"metric {name} {value:.9g} {units[name]}")
    for name, value in percentiles.items():
        print(f"{name} {value:.9g} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
