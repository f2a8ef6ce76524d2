"""The benchmark's workloads: fixed operation lists and the checks on every output.

An operation is one CLI invocation through ``hoggar.cli.run(argv)`` or one
call of a public library function.  Each operation is checked on its own:
exit code 0, a manifest whose every check passed (and that has at least one
check), and the closed forms the benchmark computes from ``d`` itself:
minimum entropy ``ln(d(d+1)/2)`` within 1e-8, informational power
``ln d^2 - ln(d(d+1)/2)`` within 1e-6 and a certificate gap of at most 1e-6.
Every manifest and artifact is hashed, so that byte changes between two runs
of the same operation and seed show.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field

MIN_ENTROPY_TOL = 1e-8
POWER_TOL = 1e-6
GAP_TOL = 1e-6
HOGGAR_V = "-1+2i"


def min_entropy_closed_form(d):
    return math.log(d * (d + 1) / 2)


def power_closed_form(d):
    return math.log(d * d) - min_entropy_closed_form(d)


@dataclass
class Op:
    """One operation: a CLI argv (``argv``) or a library call (``call``)."""

    op_id: str
    argv: list | None = None
    call: object = None


@dataclass
class Outcome:
    seconds: float
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    manifest_bytes: int = 0


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _near(problems, what, value, expected, tol):
    if value is None or not abs(value - expected) <= tol:
        problems.append(f"{what} = {value!r}, closed form {expected!r} +- {tol:g}")


def _gap_ok(problems, gap):
    if gap is None or not gap <= GAP_TOL:
        problems.append(f"certificate_gap = {gap!r} > {GAP_TOL:g}")


def _check_value(manifest, name):
    for check in manifest["checks"]:
        if check["name"] == name:
            return check["value"]
    return None


def _closed_form_checks(command, manifest, problems):
    d = manifest["parameters"]["d"]
    if command in ("report", "certify"):
        results = {}
        for artifact in manifest["artifacts"]:
            base = os.path.basename(artifact)
            if base in ("min_entropy_result.json", "info_power_result.json"):
                with open(artifact, encoding="utf-8") as fh:
                    results[base] = json.load(fh)
        min_h = results.get("min_entropy_result.json", {}).get("best_value")
        power = results.get("info_power_result.json", {})
        _near(problems, "min entropy", min_h, min_entropy_closed_form(d), MIN_ENTROPY_TOL)
        _near(problems, "informational power", power.get("best_value"), power_closed_form(d), POWER_TOL)
        _gap_ok(problems, power.get("certificate_gap"))
    elif command == "entropy":
        value = _check_value(manifest, "twin_entropy_min_bound")
        _near(problems, "twin entropy", value, min_entropy_closed_form(d), MIN_ENTROPY_TOL)
    elif command == "mutual-info":
        value = _check_value(manifest, "mutual_information_expected")
        _near(problems, "twin mutual information", value, power_closed_form(d), POWER_TOL)


def run_cli(cli, op, out_dir, clock):
    """Run ``op.argv`` with its artifacts in ``out_dir``; check and hash the outputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    argv = op.argv + ["--out-dir", out_dir]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = clock()
        try:
            rc = cli.run(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        seconds = clock() - start
    outcome = Outcome(seconds)
    problems = outcome.problems
    if rc != 0:
        problems.append(f"exit code {rc}")
    command = op.argv[0]
    manifest_path = os.path.join(out_dir, command.replace("-", "_") + "_manifest.json")
    if not os.path.isfile(manifest_path):
        problems.append("no manifest written")
        return outcome
    outcome.manifest_bytes = os.path.getsize(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not manifest["checks"]:
        problems.append("manifest has no checks")
    problems.extend(f"check {c['name']} failed" for c in manifest["checks"] if c["pass"] is not True)
    _closed_form_checks(command, manifest, problems)
    for path in [manifest_path, *manifest["artifacts"]]:
        outcome.digests[path] = _sha256(path)
    return outcome


def _hash_result(h, result):
    h.update(repr((result.best_value, result.iterations_used, result.converged)).encode())
    h.update(repr((result.restart_values, result.upper_bound, result.certificate_gap)).encode())
    if result.best_state is not None:
        h.update(result.best_state.tobytes())
    if result.best_ensemble is not None:
        h.update(result.best_ensemble.weights.tobytes())
        for state in result.best_ensemble.states:
            h.update(state.tobytes())


def run_library(op, clock):
    """Run a library operation; ``op.call`` returns a list of (result, d, kind)."""
    start = clock()
    results = op.call()
    outcome = Outcome(clock() - start)
    problems = outcome.problems
    h = hashlib.sha256()
    for result, d, kind in results:
        if not result.converged:
            problems.append(f"{kind} search did not converge")
        if kind == "min_entropy":
            _near(problems, "min entropy", result.best_value, min_entropy_closed_form(d), MIN_ENTROPY_TOL)
        else:
            _near(problems, "informational power", result.best_value, power_closed_form(d), POWER_TOL)
            _gap_ok(problems, result.certificate_gap)
        _hash_result(h, result)
    outcome.digests["results"] = h.hexdigest()
    return outcome


# ------------------------------------------------------------------ workloads
#
# Why each workload exists:
# - report-d8: the headline run users make; Blahut-Arimoto (BA) dominates.
# - verify-d8: the optimizer-free subcommands on a family file (zero BA
#   calls); the "no change" side for any optimizer change.
# - certify-small-d: certification on channels of at most a few hundred
#   cells, where per-call overhead rules rather than flops.
# - effects-povm: the generic (k, d, d) effect-stack path of the optimizer,
#   which no CLI subcommand reaches.
#
# certify-small-d and effects-povm cost up to twice as much on one optimizer
# seed as on another, so their operation lists span several consecutive
# program seeds; a single seed would make the figures depend on the seed
# more than on the code.

CERTIFY_SEEDS = 8
EFFECTS_SEEDS = 16
SMALL_D_FAMILIES = (
    ("d2", "2", "(1+sqrt3)(1+i)/2"),
    ("d3-v0", "3", "0"),
    ("d3-v1+sqrt3i", "3", "1+sqrt3 i"),
)
VERIFY_COMMANDS = (
    ["verify-sic"],
    ["covariance"],
    ["entropy", "--twin"],
    ["mutual-info"],
    ["design-check", "--t", "3"],
    ["zero-design", "--format", "csv"],
    ["bloch", "--format", "csv"],
)


class Workload:
    """A named workload: ``prepare`` ops run once, then ``ops`` repeat as passes."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.prepare = []
        self.ops = []

    def setup_argv(self, probe_dir):
        """Arguments of the CLI call a set-up probe makes after importing hoggar.cli."""
        return []


class ReportD8(Workload):
    def __init__(self, seed, work_dir, hoggar):
        super().__init__(work_dir)
        argv = ["report", "--d", "8", f"--v={HOGGAR_V}", "--seed", str(seed), "--restarts", "64"]
        self.ops = [Op(f"report-d8@{seed}", argv=argv)]


class VerifyD8(Workload):
    def __init__(self, seed, work_dir, hoggar):
        super().__init__(work_dir)
        family = os.path.join(work_dir, "family.json")
        self.prepare = [Op("construct-d8", argv=self._construct(family))]
        # The seed sets the order of the commands in a pass; their outputs do
        # not depend on it, so an operation's id leaves the seed out.
        commands = list(VERIFY_COMMANDS)
        random.Random(seed).shuffle(commands)
        self.ops = [Op("-".join(c).replace("--", ""), argv=c + ["--family", family]) for c in commands]

    @staticmethod
    def _construct(family):
        return ["construct", "--d", "8", f"--v={HOGGAR_V}", "--out", family]

    def setup_argv(self, probe_dir):
        return self._construct(os.path.join(probe_dir, "family.json")) + ["--out-dir", probe_dir]


class CertifySmallD(Workload):
    def __init__(self, seed, work_dir, hoggar):
        super().__init__(work_dir)
        for s in range(seed, seed + CERTIFY_SEEDS):
            for label, d, v in SMALL_D_FAMILIES:
                argv = ["certify", "--d", d, f"--v={v}", "--seed", str(s), "--restarts", "64"]
                self.ops.append(Op(f"certify-{label}@{s}", argv=argv))


class EffectsPovm(Workload):
    def __init__(self, seed, work_dir, hoggar):
        super().__init__(work_dir)
        import numpy as np

        effects8 = np.array(hoggar.hoggar_family().effects)
        effects3 = np.array(hoggar.hadamard_sic_family(hoggar.fourier_matrix(3), 0).effects)

        def searches(s):
            cfg = hoggar.OptimizerConfig(restarts=64, seed=s)
            return lambda: [
                (hoggar.min_entropy_search(effects8, cfg), 8, "min_entropy"),
                (hoggar.capacity_search(effects3, cfg), 3, "capacity"),
            ]

        # One operation is both searches at one seed: their costs differ by
        # about 5x, and a median over two interleaved kinds of operation would
        # fall in the gap between them.
        self.ops = [Op(f"effects-searches@{s}", call=searches(s)) for s in range(seed, seed + EFFECTS_SEEDS)]


WORKLOADS = {
    "report-d8": ReportD8,
    "verify-d8": VerifyD8,
    "certify-small-d": CertifySmallD,
    "effects-povm": EffectsPovm,
}
