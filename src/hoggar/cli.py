"""Command-line orchestration: construct families, verify, optimize, report.

Every subcommand is one row of ``COMMANDS``: its name, the default of its
``--tol`` (None when it takes no ``--tol``), its flags beyond the common
ones, and the ordered steps that make its manifest.  A step is a check group
or an artifact writer: it takes the :class:`Run` and a tolerance and returns
a list of :class:`Check` records (a writer returns none).  A row gives each
step a fixed tolerance, or ``TOL`` for the value of ``--tol``.  One runner
builds or loads the family, runs the steps in order and writes
``<command>_manifest.json`` listing every check (name / pass / value /
expected / tolerance) and the artifact files produced.  Exit codes: 0 all
checks pass, 1 some check failed, 2 usage or I/O error.  All numeric
manifest fields are in nats; ``--bits`` converts displayed values only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .algebra import dephase, fourier_matrix, is_hadamard, sylvester_hadamard
from .bloch import hermitian_basis, simplex_check, transpose_reflection_check
from .designs import (
    StateSet,
    block_translation_check,
    difference_set_check,
    frame_potential,
    haar_moment,
    verify_symmetric_design,
    zero_blocks,
)
from .errors import HoggarError, InvalidArgumentError, NotADesignError
from .infotheory import (
    Measurement,
    holevo_quantity,
    mutual_information,
    outcome_distribution,
    outcome_matrix,
    outcome_probabilities,
    eta,
    shannon_entropy,
    sic_min_entropy_bound,
    sic_power_bound,
    twin_ensemble,
)
from .optimize import (
    GRAD_TOL,
    MAX_ITERS,
    STEP_INIT,
    VALUE_TOL,
    OptimizerConfig,
    blahut_arimoto,
    capacity_search,
    entropy_gradient,
    haar_blocks,
    min_entropy_search,
    random_pure_state,
    row_blocks,
)
from .serialize import (
    FORMAT_VERSION,
    complex_to_pair,
    dump_json,
    ensemble_from_dict,
    ensemble_to_dict,
    hadamard_from_dict,
    load_family,
    load_json,
    parse_complex,
    save_family,
    state_from_dict,
    write_csv,
)
from .sic import (
    conjugate_set,
    hadamard_sic_family,
    verify_covariance,
    verify_sic,
)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Check:
    """One manifest check; a ``dimensionless`` value is a count, never shown in bits."""

    name: str
    passed: bool
    value: float | None = None
    expected: float | None = None
    tolerance: float | None = None
    dimensionless: bool = False

    def to_dict(self):
        record = {"name": self.name, "pass": bool(self.passed)}
        for key in ("value", "expected", "tolerance"):
            x = getattr(self, key)
            record[key] = None if x is None else float(x)
        return record


def near(name, value, expected, tolerance):
    """The check ``abs(value - expected) <= tolerance``, showing ``value``."""
    return Check(name, abs(value - expected) <= tolerance, value, expected, tolerance)


class Run:
    """The evaluation context of one subcommand: its arguments, family, artifacts and entropy result.

    ``entropy`` is the min-entropy step's search result, once that step has
    run; the capacity step passes it on, so the first restart batch is
    descended once.  ``twin`` and ``measurement`` are built on first use, once.
    """

    def __init__(self, args):
        self.args = args
        self.fam = _family(args)
        self.artifacts = []
        self.entropy = None

    def artifact(self, name, path=None):
        """Record an artifact written to ``path``, by default ``name`` in the output directory."""
        path = path or os.path.join(_out_dir(self.args), name)
        self.artifacts.append(path)
        return path

    def config(self):
        return OptimizerConfig(restarts=self.args.restarts, seed=self.args.seed)

    @functools.cached_property
    def twin(self):
        return conjugate_set(self.fam)

    @functools.cached_property
    def measurement(self):
        return Measurement(self.fam)


def _out_dir(args):
    out_dir = args.out_dir or os.environ.get("HOGGAR_OUT_DIR") or "."
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _family(args):
    if getattr(args, "family", None):
        return load_family(args.family)
    if args.d is None:
        if args.command == "construct":
            raise InvalidArgumentError("construct requires --d (and usually --v)")
        raise InvalidArgumentError("provide --family FILE or --d/--v construction flags")
    d = args.d
    v = parse_complex(args.v)
    choice = args.hadamard
    if choice == "auto":
        choice = "sylvester" if d & (d - 1) == 0 else "fourier"
    if choice == "sylvester":
        n = d.bit_length() - 1
        if 2**n != d:
            raise InvalidArgumentError(f"Sylvester matrices need d = 2^n, got d={d}")
        hadamard = sylvester_hadamard(n)
    elif choice == "fourier":
        hadamard = fourier_matrix(d)
    else:
        hadamard = hadamard_from_dict(load_json(choice))
        if hadamard.d != d:
            raise InvalidArgumentError(f"Hadamard file has side {hadamard.d}, expected {d}")
    return hadamard_sic_family(hadamard, v)


# ------------------------------------------------------ check groups, writers


def _save_family(run, tol):
    save_family(run.fam, run.artifact("family.json", run.args.family_out))
    return []


def _hadamard(run, tol):
    check = is_hadamard(run.fam.hadamard, tol)
    return [Check("hadamard_valid", check.ok, check.max_deviation, 0.0, tol)]


def _sic(run, tol):
    report = verify_sic(run.fam, tol)
    return [
        near("identity_resolution", report.identity_deviation, 0.0, tol),
        Check(
            "equiangular_overlaps", report.max_deviation <= tol,
            report.overlap_value, report.expected_overlap, tol,
        ),
    ]


def _covariance(run, tol):
    report = verify_covariance(run.fam, tol)
    return [Check("pauli_covariance", report.covariant, report.worst_deviation, 0.0, tol)]


def _twin_theorem_applies(fam):
    # the twin-minimizer structure holds for the admissible real-source cases
    return fam.admissible and fam.hadamard.is_real and fam.d in (2, 8)


def _twin_entropy(run, tol):
    fam = run.fam
    probs = outcome_matrix(run.twin.states, run.measurement)
    if not _twin_theorem_applies(fam):
        return [
            Check(
                "twin_distributions_normalized",
                float(np.abs(probs.sum(axis=1) - 1.0).max()) <= 1e-12,
                float(eta(probs).sum(axis=1).mean()), tolerance=1e-12,
            )
        ]
    entropies = eta(probs).sum(axis=1)
    zeros = (probs < 1e-10).sum(axis=1)
    expected_zeros = fam.d * (fam.d - 1) // 2
    expected_entropy = sic_min_entropy_bound(fam.d)
    return [
        Check(
            "twin_zero_pattern", int(zeros.min()) == expected_zeros == int(zeros.max()),
            float(zeros.max()), float(expected_zeros), 0.0, dimensionless=True,
        ),
        Check(
            "twin_entropy_min_bound", float(np.abs(entropies - expected_entropy).max()) <= tol,
            float(entropies.mean()), expected_entropy, tol,
        ),
    ]


def _entropy(run, tol):
    fam = run.fam
    if run.args.twin:
        return _twin_entropy(run, tol)
    if run.args.state:
        dist = outcome_distribution(state_from_dict(load_json(run.args.state)), run.measurement)
        return [
            Check(
                "distribution_normalized", abs(dist.probs.sum() - 1.0) <= 1e-12,
                shannon_entropy(dist), tolerance=1e-12,
            )
        ]
    dist = outcome_distribution(np.eye(fam.d) / fam.d, run.measurement)
    return [
        Check(
            "maximally_mixed_uniform", float(np.abs(dist.probs - 1.0 / fam.k).max()) <= 1e-12,
            shannon_entropy(dist), math.log(fam.k), 1e-12,
        )
    ]


def _mutual_info(run, tol):
    fam, args = run.fam, run.args
    if args.ensemble == "twin":
        ensemble = twin_ensemble(run.twin)
        expected = sic_power_bound(fam.d) if _twin_theorem_applies(fam) else None
    else:
        ensemble = ensemble_from_dict(load_json(args.ensemble))
        expected = None
    if args.expected is not None:
        expected = args.expected
    info = mutual_information(ensemble, run.measurement)
    chi = holevo_quantity(ensemble, run.measurement)
    flat = outcome_probabilities(ensemble.average_state(), run.measurement)
    checks = [
        near("holevo_equals_mutual_information", abs(info - chi), 0.0, 1e-12),
        near("average_state_uniform_outcomes", float(np.abs(flat - 1.0 / fam.k).max()), 0.0, tol),
    ]
    if expected is not None:
        checks.append(near("mutual_information_expected", info, expected, tol))
    return checks


def _search_result_dict(result):
    data = {
        "best_value": float(result.best_value),
        "converged": bool(result.converged),
        "iterations_used": int(result.iterations_used),
        "restart_values": [float(x) for x in result.restart_values],
        "config": {
            "restarts": result.config.restarts,
            "max_iters": MAX_ITERS,
            "step_init": STEP_INIT,
            "grad_tol": GRAD_TOL,
            "value_tol": VALUE_TOL,
            "seed": result.config.seed,
        },
    }
    if result.best_state is not None:
        data["best_state"] = [complex_to_pair(z) for z in result.best_state]
    if result.best_ensemble is not None:
        data["best_ensemble"] = ensemble_to_dict(result.best_ensemble)
    if result.upper_bound is not None:
        data["upper_bound"] = float(result.upper_bound)
        data["certificate_gap"] = float(result.certificate_gap)
        data["capped_solves"] = int(result.capped_solves)
    return data


def _min_entropy(run, tol):
    fam = run.fam
    result = run.entropy = min_entropy_search(fam, run.config())
    recheck = shannon_entropy(outcome_distribution(result.best_state, run.measurement))
    checks = [
        Check("min_entropy_converged", result.converged, result.best_value),
        near("min_entropy_self_consistent", abs(recheck - result.best_value), 0.0, 1e-12),
    ]
    if fam.admissible:
        checks.append(near("min_entropy_equals_sic_bound", result.best_value, sic_min_entropy_bound(fam.d), tol))
    dump_json(_search_result_dict(result), run.artifact("min_entropy_result.json"))
    return checks


def _capacity(run, tol):
    fam = run.fam
    result = capacity_search(fam, run.config(), entropy=run.entropy)
    checks = [
        Check("capacity_converged", result.converged, result.best_value),
        Check(
            "capacity_below_certificate", result.best_value <= result.upper_bound + 1e-9,
            result.best_value, result.upper_bound, 1e-9,
        ),
        Check("certificate_gap", result.certificate_gap <= tol, result.certificate_gap, 0.0, tol),
    ]
    if fam.admissible:
        checks.append(near("informational_power_equals_sic_bound", result.best_value, sic_power_bound(fam.d), tol))
    dump_json(_search_result_dict(result), run.artifact("info_power_result.json"))
    return checks


def _design(run, tol):
    state_set = StateSet.from_family(run.fam)
    checks = []
    for s in range(1, run.args.t + 1):
        fp = frame_potential(state_set, s)
        hm = haar_moment(run.fam.d, s)
        if s <= 2:
            checks.append(near(f"frame_potential_t{s}_matches_moment", fp, hm, tol))
        else:
            checks.append(Check(f"frame_potential_t{s}_exceeds_moment", fp - hm > 1e-3, fp, hm, 1e-3))
    return checks


def _zero_design(run, tol):
    fam = run.fam
    try:
        design = zero_blocks(fam, run.twin)
    except NotADesignError:  # a zero pattern that is no design is a failed check, not bad input
        return [Check("design_parameters", False, expected=28.0, tolerance=0.0, dimensionless=True)]
    checks = [
        Check(
            "design_parameters", design.params == (64, 28, 12),
            float(design.params[1]), 28.0, 0.0, dimensionless=True,
        ),
        Check("symmetric_design_axioms", verify_symmetric_design(design).passed),
    ]
    diff = difference_set_check(design.blocks[0], design.law)
    checks.append(
        Check(
            "difference_set_development", diff.passed,
            float(diff.max_count), 12.0, 0.0, dimensionless=True,
        )
    )
    checks.append(Check("block_translation", block_translation_check(design)))
    # point p lies in block b exactly where the dephased matrix is -1 at b + p
    g = dephase(fam.hadamard).signs.ravel()
    checks.append(Check("membership_criterion_sign", np.array_equal(design.incidence() == 1, g[design.law] == -1)))
    dump_json(design.to_dict(), run.artifact("zero_design.json"))
    if run.args.format == "csv":
        write_csv(run.artifact("zero_design_incidence.csv"), design.incidence())
    return checks


def _hoggar_only(run, tol):
    """Pauli covariance and the zero-block design, which exist for a real d = 8 family only."""
    if run.fam.d != 8 or not run.fam.hadamard.is_real:
        return []
    return _covariance(run, tol) + _zero_design(run, tol)


def _bloch(run, tol):
    fam = run.fam
    basis = hermitian_basis(fam.d)
    expected_sym = (fam.d + 2) * (fam.d - 1) // 2
    checks = [
        Check(
            "symmetric_subspace_dimension", basis.symmetric_count() == expected_sym,
            float(basis.symmetric_count()), float(expected_sym), 0.0, dimensionless=True,
        )
    ]
    vectors = {}
    for name, family in (("family", fam), ("twin", run.twin)):
        report = simplex_check(family, basis, tol)
        vectors[name] = report.coords
        checks.append(
            Check(
                f"regular_simplex_{name}", report.passed,
                max(report.norm_deviation, report.gram_deviation, report.centroid_deviation), 0.0, tol,
            )
        )
    if fam.hadamard.is_real:
        report = transpose_reflection_check(fam, run.twin, basis, tol)
        checks.append(Check("transpose_reflection", report.passed, report.worst_deviation, 0.0, tol))
    if run.args.format == "csv":
        for name, matrix in vectors.items():
            write_csv(run.artifact(f"bloch_{name}.csv"), matrix, header=basis.names)
        # numpy forms M @ M.T of one buffer by a symmetric rank-k update, whose
        # last bits differ from the general product of two buffers (d = 5)
        write_csv(run.artifact("bloch_gram.csv"), vectors["family"] @ vectors["family"].copy().T)
    return checks


def _statistics(run, tol):
    d = run.fam.d
    rng = np.random.default_rng((run.args.seed, 2**32))
    floor = sic_min_entropy_bound(d)
    ceiling = math.log(d) + ((d - 1) / d) * math.log(d + 1)
    ic_expected = 2.0 / (d * (d + 1))
    # running reductions over the blocks; np.minimum and np.maximum carry a NaN through
    low, high, ic_dev = math.inf, -math.inf, 0.0
    for _, states in haar_blocks(d, rng, run.args.samples):
        probs = run.measurement.probabilities(states)[0]
        entropies = eta(probs).sum(axis=1)
        low, high = np.minimum(low, entropies.min()), np.maximum(high, entropies.max())
        ic_dev = np.maximum(ic_dev, np.abs((probs * probs).sum(axis=1) - ic_expected).max())
    return [
        Check("pure_state_entropy_floor", float(low) >= floor - 1e-9, float(low), floor, 1e-9),
        Check("pure_state_entropy_ceiling", float(high) <= ceiling + 1e-9, float(high), ceiling, 1e-9),
        near("index_of_coincidence_constant", float(ic_dev), 0.0, 1e-12),
    ]


def _oracles(run, tol):
    fam, seed, mc_samples = run.fam, run.args.seed, run.args.mc_samples
    # discrete-channel solver against the closed-form binary symmetric channel
    flip = 0.1
    ba = blahut_arimoto(np.array([[1 - flip, flip], [flip, 1 - flip]]), tol=1e-13)
    bsc = math.log(2.0) - float(eta([flip, 1 - flip]).sum())
    checks = [near("bsc_capacity", ba.capacity, bsc, 1e-9)]
    # Haar moment by unitary invariance: |<a|b>|^2 has the law of every |<e_i|b>|^2, so
    # draw b alone and take the basis average (1/d) sum_i |b_i|^4, one unbiased sample per b
    d = fam.d
    rng = np.random.default_rng((seed, 2**33))
    u = np.empty(mc_samples)
    for rows in row_blocks(mc_samples):
        x = rng.standard_normal((rows.stop - rows.start, 2 * d))
        np.square(x, out=x)
        w = x[:, :d] + x[:, d:]  # |b_i|^2 before normalization
        s = x.sum(axis=1)
        np.divide((w * w).sum(axis=1), s * s * d, out=u[rows])
    mc = float(u.mean())
    # the standard error as u.std(ddof=1) / sqrt(n) forms it, without a second n-float array
    u -= mc
    np.square(u, out=u)
    se = math.sqrt(float(u.sum()) / (mc_samples - 1)) / math.sqrt(mc_samples)
    checks.append(near("haar_moment_monte_carlo", mc, haar_moment(d, 2), 3 * se))
    # analytic gradient against central finite differences
    worst = 0.0
    h = 1e-6
    for i in range(100):
        psi = random_pure_state(fam.d, np.random.default_rng((seed, 2**34 + i)))
        grad = entropy_gradient(psi, run.measurement)
        direction = grad / np.linalg.norm(grad)
        fwd = (psi + h * direction) / np.linalg.norm(psi + h * direction)
        bwd = (psi - h * direction) / np.linalg.norm(psi - h * direction)
        fd = (
            shannon_entropy(outcome_distribution(fwd, run.measurement))
            - shannon_entropy(outcome_distribution(bwd, run.measurement))
        ) / (2 * h)
        analytic = float(np.real(np.vdot(direction, grad)))
        worst = max(worst, abs(fd - analytic) / max(abs(analytic), 1e-12))
    checks.append(near("entropy_gradient_finite_difference", worst, 0.0, 1e-6))
    return checks


# ------------------------------------------------------------- command table


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return value

    return integer


def _float_above(low):
    """argparse type: a finite float greater than ``low``."""

    def number(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > low):
            raise argparse.ArgumentTypeError(f"must be a finite number > {low:g}, got {text}")
        return value

    return number


def _flag(*names, **options):
    return names, options


COMMON = (
    _flag("--d", type=int, help="dimension for in-place construction"),
    _flag("--v", default="-1+2i", help="complex parameter, e.g. -1+2i or (1+sqrt3)(1+i)/2"),
    _flag("--hadamard", default="auto", help="sylvester | fourier | auto | path to a Hadamard JSON file"),
    _flag("--out-dir", help="directory for artifacts (default . or $HOGGAR_OUT_DIR)"),
    _flag("--bits", action="store_true", help="display values in bits (storage stays in nats)"),
)
VERIFY = (
    _flag("--family", help="family JSON file produced by construct"),
    _flag("--out", help="manifest output path"),
)
SEARCH = (
    _flag("--restarts", type=_int_at_least(1), default=64),
    _flag("--seed", type=_int_at_least(0), default=1),
)
FORMAT = (_flag("--format", choices=("json", "csv")),)

# Defaults of the settings the steps read; a command without the flag keeps the
# default, so report checks the design at t = 3 and writes no CSV.
SETTINGS = {
    "family_out": None, "t": 3, "format": "json", "ensemble": "twin", "expected": None,
}

TOL = object()  # in a step list: the value of --tol

COMMANDS = (
    (
        "construct", 1e-12, (_flag("--out", dest="family_out", help="family output path"),),
        ((_save_family, None), (_hadamard, TOL)),
    ),
    ("verify-sic", 1e-12, VERIFY, ((_sic, TOL),)),
    ("covariance", 1e-12, VERIFY, ((_covariance, TOL),)),
    (
        "entropy", 1e-10,
        VERIFY + (
            _flag("--twin", action="store_true", help="evaluate all twin states"),
            _flag("--state", help="state JSON file ({kind: pure|mixed, ...})"),
        ),
        ((_entropy, TOL),),
    ),
    ("min-entropy", 1e-8, VERIFY + SEARCH, ((_min_entropy, TOL),)),
    ("info-power", 1e-6, VERIFY + SEARCH, ((_capacity, TOL),)),
    ("certify", 1e-6, VERIFY + SEARCH, ((_sic, 1e-12), (_min_entropy, 1e-8), (_capacity, TOL))),
    (
        "mutual-info", 1e-10,
        VERIFY + (
            _flag("--ensemble", help="ensemble JSON file or 'twin'"),
            _flag("--expected", type=_float_above(-math.inf), help="expected mutual information in nats"),
        ),
        ((_mutual_info, TOL),),
    ),
    ("design-check", 1e-12, VERIFY + (_flag("--t", type=_int_at_least(1)),), ((_design, TOL),)),
    ("zero-design", None, VERIFY + FORMAT, ((_zero_design, None),)),
    ("bloch", 1e-12, VERIFY + FORMAT, ((_bloch, TOL),)),
    (
        "report", None,
        VERIFY + SEARCH + (
            _flag("--samples", type=_int_at_least(1), default=100000),
            _flag("--mc-samples", type=_int_at_least(2), default=100000),
        ),
        (
            (_save_family, None), (_sic, 1e-12), (_twin_entropy, 1e-10), (_mutual_info, 1e-10),
            (_min_entropy, 1e-8), (_capacity, 1e-6), (_design, 1e-12), (_hoggar_only, 1e-12),
            (_bloch, 1e-12), (_statistics, None), (_oracles, None),
        ),
    ),
)


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process.

    Every default is immutable and each ``parse_args`` returns a fresh
    namespace, so one parser serves every :func:`run`; callers must not
    change it.
    """
    parser = argparse.ArgumentParser(
        prog="hoggar",
        description="Construct SIC-POVMs from Hadamard matrices and certify their entropy, "
        "informational power, design combinatorics and Bloch geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, tol, flags, steps in COMMANDS:
        p = sub.add_parser(name)
        for names, options in COMMON + flags:
            p.add_argument(*names, **options)
        if tol is not None:
            p.add_argument("--tol", type=_float_above(0.0), default=tol)
        p.set_defaults(steps=steps, **SETTINGS)
    return parser


def _execute(args):
    run = Run(args)
    checks = []
    for step, tol in args.steps:
        checks += step(run, args.tol if tol is TOL else tol)
    records = [c.to_dict() for c in checks]
    out = getattr(args, "out", None) or os.path.join(
        _out_dir(args), args.command.replace("-", "_") + "_manifest.json"
    )
    dump_json(
        {
            "command": args.command,
            "parameters": {
                "d": run.fam.d,
                "v": complex_to_pair(run.fam.v),
                "admissible": bool(run.fam.admissible),
                "family_file": getattr(args, "family", None) or "",
            },
            "checks": records,
            "artifacts": run.artifacts,
            "version": {"tool": __version__, "format": FORMAT_VERSION},
        },
        out,
    )
    for check, c in zip(checks, records):
        scale, unit = 1.0, ""
        if args.bits and not check.dimensionless:
            scale, unit = 1.0 / LN2, " [bits]"
        detail = ""
        if c["value"] is not None:
            detail = f" value={c['value'] * scale:.12g}"
            if c["expected"] is not None:
                detail += f" expected={c['expected'] * scale:.12g}"
            detail += unit
        print(f"{'PASS' if c['pass'] else 'FAIL'} {c['name']}{detail}")
    print(f"manifest: {out}")
    return 0 if all(c["pass"] for c in records) else 1


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _execute(args)
    except (HoggarError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    raise SystemExit(run())


if __name__ == "__main__":
    entry_point()
