"""Command-line orchestration: construct families, verify, optimize, report.

Every verification command writes a run manifest (JSON) listing the checks it
performed, each with name / pass / value / expected / tolerance, plus the
artifact files produced.  Exit codes: 0 all checks pass, 1 some check failed,
2 usage or I/O error.  All numeric manifest fields are in nats; ``--bits``
converts displayed values only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .algebra import fourier_matrix, is_hadamard, sylvester_hadamard
from .bloch import bloch_matrix, hermitian_basis, simplex_check, transpose_reflection_check
from .designs import (
    StateSet,
    block_translation_check,
    difference_set_check,
    frame_potential,
    haar_moment,
    verify_symmetric_design,
    zero_blocks,
)
from .errors import HoggarError, InvalidArgumentError
from .infotheory import (
    holevo_quantity,
    mutual_information,
    outcome_distribution,
    outcome_matrix,
    eta,
    shannon_entropy,
    sic_min_entropy_bound,
    sic_power_bound,
    twin_ensemble,
)
from .optimize import (
    OptimizerConfig,
    blahut_arimoto,
    capacity_search,
    entropy_gradient,
    min_entropy_search,
    random_pure_state,
)
from .serialize import (
    FORMAT_VERSION,
    complex_to_pair,
    dump_json,
    ensemble_from_dict,
    ensemble_to_dict,
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


class Manifest:
    def __init__(self, command, parameters):
        self.command = command
        self.parameters = parameters
        self.checks = []
        self.artifacts = []
        self._dimensionless = set()

    def add_check(self, name, passed, value=None, expected=None, tolerance=None, dimensionless=False):
        if dimensionless:
            self._dimensionless.add(name)
        self.checks.append(
            {
                "name": name,
                "pass": bool(passed),
                "value": None if value is None else float(value),
                "expected": None if expected is None else float(expected),
                "tolerance": None if tolerance is None else float(tolerance),
            }
        )

    def add_artifact(self, path):
        self.artifacts.append(str(path))

    def all_passed(self):
        return all(c["pass"] for c in self.checks)

    def to_dict(self):
        return {
            "command": self.command,
            "parameters": self.parameters,
            "checks": self.checks,
            "artifacts": self.artifacts,
            "version": {"tool": __version__, "format": FORMAT_VERSION},
        }

    def finish(self, out_path, bits=False):
        dump_json(self.to_dict(), out_path)
        for c in self.checks:
            status = "PASS" if c["pass"] else "FAIL"
            scale, unit = 1.0, ""
            if bits and c["name"] not in self._dimensionless:
                scale, unit = 1.0 / LN2, " [bits]"
            detail = ""
            if c["value"] is not None:
                detail = f" value={c['value'] * scale:.12g}"
                if c["expected"] is not None:
                    detail += f" expected={c['expected'] * scale:.12g}"
                detail += unit
            print(f"{status} {c['name']}{detail}")
        print(f"manifest: {out_path}")
        return 0 if self.all_passed() else 1


def _out_dir(args):
    out_dir = getattr(args, "out_dir", None) or os.environ.get("HOGGAR_OUT_DIR") or "."
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _manifest_path(args, default_name):
    if getattr(args, "out", None):
        return args.out
    return os.path.join(_out_dir(args), default_name)


def _load_or_build_family(args):
    if getattr(args, "family", None):
        return load_family(args.family)
    if getattr(args, "d", None) is None:
        raise InvalidArgumentError("provide --family FILE or --d/--v construction flags")
    return _build_family(args)


def _build_family(args):
    d = args.d
    v = parse_complex(args.v)
    choice = getattr(args, "hadamard", None) or "auto"
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
        from .serialize import hadamard_from_dict

        hadamard = hadamard_from_dict(load_json(choice))
        if hadamard.d != d:
            raise InvalidArgumentError(f"Hadamard file has side {hadamard.d}, expected {d}")
    return hadamard_sic_family(hadamard, v)


def _family_params(args, fam):
    return {
        "d": fam.d,
        "v": complex_to_pair(fam.v),
        "admissible": bool(fam.admissible),
        "family_file": getattr(args, "family", None) or "",
    }


# ---------------------------------------------------------------- check cores


def _checks_verify_sic(manifest, fam, tol):
    report = verify_sic(fam, tol)
    manifest.add_check(
        "identity_resolution", report.identity_deviation <= tol,
        value=report.identity_deviation, expected=0.0, tolerance=tol,
    )
    manifest.add_check(
        "equiangular_overlaps", report.max_deviation <= tol,
        value=report.overlap_value, expected=report.expected_overlap, tolerance=tol,
    )
    return report


def _checks_covariance(manifest, fam, tol):
    report = verify_covariance(fam, tol)
    manifest.add_check(
        "pauli_covariance", report.covariant,
        value=report.worst_deviation, expected=0.0, tolerance=tol,
    )
    return report


def _twin_theorem_applies(fam):
    # the twin-minimizer structure holds for the admissible real-source cases
    return fam.admissible and fam.hadamard.is_real and fam.d in (2, 8)


def _checks_twin_entropy(manifest, fam, tol):
    twin = conjugate_set(fam)
    probs = outcome_matrix(twin.states, fam)
    if not _twin_theorem_applies(fam):
        manifest.add_check(
            "twin_distributions_normalized",
            float(np.abs(probs.sum(axis=1) - 1.0).max()) <= 1e-12,
            value=float(eta(probs).sum(axis=1).mean()), tolerance=1e-12,
        )
        return twin
    entropies = eta(probs).sum(axis=1)
    zeros = (probs < 1e-10).sum(axis=1)
    expected_zeros = fam.d * (fam.d - 1) // 2
    expected_entropy = sic_min_entropy_bound(fam.d)
    manifest.add_check(
        "twin_zero_pattern", int(zeros.min()) == expected_zeros == int(zeros.max()),
        value=float(zeros.max()), expected=float(expected_zeros), tolerance=0.0, dimensionless=True,
    )
    manifest.add_check(
        "twin_entropy_min_bound",
        float(np.abs(entropies - expected_entropy).max()) <= tol,
        value=float(entropies.mean()), expected=expected_entropy, tolerance=tol,
    )
    return twin


def _checks_mutual_info(manifest, fam, ensemble, tol, expected=None):
    info = mutual_information(ensemble, fam)
    chi = holevo_quantity(ensemble, fam)
    manifest.add_check(
        "holevo_equals_mutual_information", abs(info - chi) <= 1e-12,
        value=abs(info - chi), expected=0.0, tolerance=1e-12,
    )
    avg = ensemble.average_state()
    flat = np.einsum("kij,ji->k", fam.effects, avg).real
    manifest.add_check(
        "average_state_uniform_outcomes",
        float(np.abs(flat - 1.0 / fam.k).max()) <= tol,
        value=float(np.abs(flat - 1.0 / fam.k).max()), expected=0.0, tolerance=tol,
    )
    if expected is not None:
        manifest.add_check(
            "mutual_information_expected", abs(info - expected) <= tol,
            value=info, expected=expected, tolerance=tol,
        )
    return info


def _search_result_dict(result):
    data = {
        "best_value": float(result.best_value),
        "converged": bool(result.converged),
        "iterations_used": int(result.iterations_used),
        "restart_values": [float(x) for x in result.restart_values],
    }
    if result.config is not None:
        data["config"] = {
            "restarts": result.config.restarts,
            "max_iters": result.config.max_iters,
            "step_init": result.config.step_init,
            "grad_tol": result.config.grad_tol,
            "value_tol": result.config.value_tol,
            "seed": result.config.seed,
        }
    if result.best_state is not None:
        data["best_state"] = [complex_to_pair(z) for z in result.best_state]
    if result.best_ensemble is not None:
        data["best_ensemble"] = ensemble_to_dict(result.best_ensemble)
    if result.upper_bound is not None:
        data["upper_bound"] = float(result.upper_bound)
        data["certificate_gap"] = float(result.certificate_gap)
    return data


def _run_min_entropy(manifest, fam, cfg, tol):
    result = min_entropy_search(fam, cfg)
    recheck = shannon_entropy(outcome_distribution(result.best_state, fam))
    manifest.add_check("min_entropy_converged", result.converged, value=result.best_value)
    manifest.add_check(
        "min_entropy_self_consistent", abs(recheck - result.best_value) <= 1e-12,
        value=abs(recheck - result.best_value), expected=0.0, tolerance=1e-12,
    )
    if fam.admissible:
        bound = sic_min_entropy_bound(fam.d)
        manifest.add_check(
            "min_entropy_equals_sic_bound", abs(result.best_value - bound) <= tol,
            value=result.best_value, expected=bound, tolerance=tol,
        )
    return result


def _run_capacity(manifest, fam, cfg, gap_tol):
    result = capacity_search(fam, cfg)
    manifest.add_check("capacity_converged", result.converged, value=result.best_value)
    manifest.add_check(
        "capacity_below_certificate", result.best_value <= result.upper_bound + 1e-9,
        value=result.best_value, expected=result.upper_bound, tolerance=1e-9,
    )
    manifest.add_check(
        "certificate_gap", result.certificate_gap <= gap_tol,
        value=result.certificate_gap, expected=0.0, tolerance=gap_tol,
    )
    if fam.admissible:
        bound = sic_power_bound(fam.d)
        manifest.add_check(
            "informational_power_equals_sic_bound", abs(result.best_value - bound) <= gap_tol,
            value=result.best_value, expected=bound, tolerance=gap_tol,
        )
    return result


def _checks_design(manifest, fam, t, tol):
    state_set = StateSet.from_family(fam)
    for s in range(1, t + 1):
        fp = frame_potential(state_set, s)
        hm = haar_moment(fam.d, s)
        expected_design = s <= 2
        ok = (abs(fp - hm) <= tol) if expected_design else (fp - hm > 1e-3)
        manifest.add_check(
            f"frame_potential_t{s}" + ("_matches_moment" if expected_design else "_exceeds_moment"),
            ok, value=fp, expected=hm, tolerance=tol if expected_design else 1e-3,
        )


def _checks_zero_design(manifest, fam, threshold):
    twin = conjugate_set(fam)
    design = zero_blocks(fam, twin, threshold)
    manifest.add_check(
        "design_parameters", design.params == (64, 28, 12),
        value=float(design.params[1]), expected=28.0, tolerance=0.0, dimensionless=True,
    )
    report = verify_symmetric_design(design)
    manifest.add_check("symmetric_design_axioms", report.passed)
    diff = difference_set_check(design.blocks[0])
    manifest.add_check(
        "difference_set_development", diff.passed,
        value=float(diff.max_count), expected=12.0, tolerance=0.0, dimensionless=True,
    )
    manifest.add_check("block_translation", block_translation_check(design))
    signs = fam.hadamard.signs
    member_mask = np.zeros((64, 64), dtype=bool)
    for b, members in enumerate(design.blocks):
        member_mask[b, list(members)] = True
    iota, kappa = np.arange(64) // 8, np.arange(64) % 8
    criterion = np.zeros((64, 64), dtype=bool)
    for b in range(64):
        mu, nu = b // 8, b % 8
        criterion[b] = signs[iota ^ mu, kappa ^ nu] == -1
    manifest.add_check("membership_criterion_sign", bool((member_mask == criterion).all()))
    return design


def _checks_bloch(manifest, fam, tol):
    basis = hermitian_basis(fam.d)
    expected_sym = (fam.d + 2) * (fam.d - 1) // 2
    manifest.add_check(
        "symmetric_subspace_dimension", basis.symmetric_count() == expected_sym,
        value=float(basis.symmetric_count()), expected=float(expected_sym), tolerance=0.0, dimensionless=True,
    )
    twin = conjugate_set(fam)
    for name, family in (("family", fam), ("twin", twin)):
        report = simplex_check(family, basis, tol)
        manifest.add_check(
            f"regular_simplex_{name}", report.passed,
            value=max(report.norm_deviation, report.gram_deviation, report.centroid_deviation),
            expected=0.0, tolerance=tol,
        )
    if fam.hadamard.is_real:
        report = transpose_reflection_check(fam, twin, basis, tol)
        manifest.add_check(
            "transpose_reflection", report.passed,
            value=report.worst_deviation, expected=0.0, tolerance=tol,
        )
    return basis, twin


def _checks_statistics(manifest, fam, samples, seed):
    rng = np.random.default_rng((seed, 2**32))
    states = random_pure_state(fam.d, rng, size=samples)
    probs = outcome_matrix(states, fam)
    entropies = eta(probs).sum(axis=1)
    ics = (probs * probs).sum(axis=1)
    d = fam.d
    floor = sic_min_entropy_bound(d)
    ceiling = math.log(d) + ((d - 1) / d) * math.log(d + 1)
    ic_expected = 2.0 / (d * (d + 1))
    manifest.add_check(
        "pure_state_entropy_floor", float(entropies.min()) >= floor - 1e-9,
        value=float(entropies.min()), expected=floor, tolerance=1e-9,
    )
    manifest.add_check(
        "pure_state_entropy_ceiling", float(entropies.max()) <= ceiling + 1e-9,
        value=float(entropies.max()), expected=ceiling, tolerance=1e-9,
    )
    manifest.add_check(
        "index_of_coincidence_constant",
        float(np.abs(ics - ic_expected).max()) <= 1e-12,
        value=float(np.abs(ics - ic_expected).max()), expected=0.0, tolerance=1e-12,
    )


def _checks_oracles(manifest, fam, seed, mc_samples):
    # discrete-channel solver against the closed-form binary symmetric channel
    flip = 0.1
    ba = blahut_arimoto(np.array([[1 - flip, flip], [flip, 1 - flip]]), tol=1e-13)
    bsc = math.log(2.0) - float(eta([flip, 1 - flip]).sum())
    manifest.add_check(
        "bsc_capacity", abs(ba.capacity - bsc) <= 1e-9,
        value=ba.capacity, expected=bsc, tolerance=1e-9,
    )
    # invariant-measure moment against Monte Carlo
    rng = np.random.default_rng((seed, 2**33))
    a = random_pure_state(fam.d, rng, size=mc_samples)
    b = random_pure_state(fam.d, rng, size=mc_samples)
    u = np.abs(np.einsum("ni,ni->n", a.conj(), b)) ** 2
    mc = float((u**2).mean())
    se = float((u**2).std(ddof=1) / math.sqrt(mc_samples))
    hm = haar_moment(fam.d, 2)
    manifest.add_check(
        "haar_moment_monte_carlo", abs(mc - hm) <= 3 * se,
        value=mc, expected=hm, tolerance=3 * se,
    )
    # analytic gradient against central finite differences
    worst = 0.0
    h = 1e-6
    for i in range(100):
        psi = random_pure_state(fam.d, np.random.default_rng((seed, 2**34 + i)))
        grad = entropy_gradient(psi, fam)
        direction = grad / np.linalg.norm(grad)
        fwd = (psi + h * direction) / np.linalg.norm(psi + h * direction)
        bwd = (psi - h * direction) / np.linalg.norm(psi - h * direction)
        fd = (
            shannon_entropy(outcome_distribution(fwd, fam))
            - shannon_entropy(outcome_distribution(bwd, fam))
        ) / (2 * h)
        analytic = float(np.real(np.vdot(direction, grad)))
        worst = max(worst, abs(fd - analytic) / max(abs(analytic), 1e-12))
    manifest.add_check(
        "entropy_gradient_finite_difference", worst <= 1e-6,
        value=worst, expected=0.0, tolerance=1e-6,
    )


# ---------------------------------------------------------------- subcommands


def cmd_construct(args):
    if args.d is None:
        raise InvalidArgumentError("construct requires --d (and usually --v)")
    fam = _build_family(args)
    manifest = Manifest("construct", _family_params(args, fam))
    out = getattr(args, "out", None) or os.path.join(_out_dir(args), "family.json")
    save_family(fam, out)
    manifest.add_artifact(out)
    check = is_hadamard(fam.hadamard, args.tol)
    manifest.add_check(
        "hadamard_valid", check.ok, value=check.max_deviation, expected=0.0, tolerance=args.tol
    )
    path = os.path.join(_out_dir(args), "construct_manifest.json")
    return manifest.finish(path, args.bits)


def cmd_verify_sic(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("verify-sic", _family_params(args, fam))
    _checks_verify_sic(manifest, fam, args.tol)
    return manifest.finish(_manifest_path(args, "verify_sic_manifest.json"), args.bits)


def cmd_covariance(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("covariance", _family_params(args, fam))
    _checks_covariance(manifest, fam, args.tol)
    return manifest.finish(_manifest_path(args, "covariance_manifest.json"), args.bits)


def cmd_entropy(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("entropy", _family_params(args, fam))
    if args.twin:
        _checks_twin_entropy(manifest, fam, args.tol)
    elif args.state:
        state = state_from_dict(load_json(args.state))
        dist = outcome_distribution(state, fam)
        manifest.add_check(
            "distribution_normalized", abs(dist.probs.sum() - 1.0) <= 1e-12,
            value=shannon_entropy(dist), tolerance=1e-12,
        )
    else:
        rho = np.eye(fam.d) / fam.d
        dist = outcome_distribution(rho, fam)
        manifest.add_check(
            "maximally_mixed_uniform",
            float(np.abs(dist.probs - 1.0 / fam.k).max()) <= 1e-12,
            value=shannon_entropy(dist), expected=math.log(fam.k), tolerance=1e-12,
        )
    return manifest.finish(_manifest_path(args, "entropy_manifest.json"), args.bits)


def cmd_min_entropy(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("min-entropy", _family_params(args, fam))
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    result = _run_min_entropy(manifest, fam, cfg, args.tol)
    out = os.path.join(_out_dir(args), "min_entropy_result.json")
    dump_json(_search_result_dict(result), out)
    manifest.add_artifact(out)
    return manifest.finish(_manifest_path(args, "min_entropy_manifest.json"), args.bits)


def cmd_info_power(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("info-power", _family_params(args, fam))
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    result = _run_capacity(manifest, fam, cfg, args.tol)
    out = os.path.join(_out_dir(args), "info_power_result.json")
    dump_json(_search_result_dict(result), out)
    manifest.add_artifact(out)
    return manifest.finish(_manifest_path(args, "info_power_manifest.json"), args.bits)


def cmd_certify(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("certify", _family_params(args, fam))
    _checks_verify_sic(manifest, fam, 1e-12)
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    min_result = _run_min_entropy(manifest, fam, cfg, 1e-8)
    cap_result = _run_capacity(manifest, fam, cfg, args.tol)
    for name, result in (("min_entropy", min_result), ("info_power", cap_result)):
        out = os.path.join(_out_dir(args), f"{name}_result.json")
        dump_json(_search_result_dict(result), out)
        manifest.add_artifact(out)
    return manifest.finish(_manifest_path(args, "certify_manifest.json"), args.bits)


def cmd_mutual_info(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("mutual-info", _family_params(args, fam))
    if args.ensemble == "twin":
        ensemble = twin_ensemble(conjugate_set(fam))
        expected = sic_power_bound(fam.d) if _twin_theorem_applies(fam) else None
    else:
        ensemble = ensemble_from_dict(load_json(args.ensemble))
        expected = None
    if args.expected is not None:
        expected = args.expected
    _checks_mutual_info(manifest, fam, ensemble, args.tol, expected)
    return manifest.finish(_manifest_path(args, "mutual_info_manifest.json"), args.bits)


def cmd_design_check(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("design-check", _family_params(args, fam))
    _checks_design(manifest, fam, args.t, args.tol)
    return manifest.finish(_manifest_path(args, "design_check_manifest.json"), args.bits)


def cmd_zero_design(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("zero-design", _family_params(args, fam))
    design = _checks_zero_design(manifest, fam, args.threshold)
    out = os.path.join(_out_dir(args), "zero_design.json")
    dump_json(design.to_dict(), out)
    manifest.add_artifact(out)
    if args.format == "csv":
        csv_path = os.path.join(_out_dir(args), "zero_design_incidence.csv")
        write_csv(csv_path, design.incidence())
        manifest.add_artifact(csv_path)
    return manifest.finish(_manifest_path(args, "zero_design_manifest.json"), args.bits)


def cmd_bloch(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("bloch", _family_params(args, fam))
    basis, twin = _checks_bloch(manifest, fam, args.tol)
    if args.format == "csv":
        for name, family in (("family", fam), ("twin", twin)):
            coords = bloch_matrix(family, basis)
            path = os.path.join(_out_dir(args), f"bloch_{name}.csv")
            write_csv(path, coords, header=basis.names)
            manifest.add_artifact(path)
        gram = bloch_matrix(fam, basis) @ bloch_matrix(fam, basis).T
        path = os.path.join(_out_dir(args), "bloch_gram.csv")
        write_csv(path, gram)
        manifest.add_artifact(path)
    return manifest.finish(_manifest_path(args, "bloch_manifest.json"), args.bits)


def cmd_report(args):
    fam = _load_or_build_family(args)
    manifest = Manifest("report", _family_params(args, fam))
    family_path = os.path.join(_out_dir(args), "family.json")
    save_family(fam, family_path)
    manifest.add_artifact(family_path)

    _checks_verify_sic(manifest, fam, 1e-12)
    _checks_twin_entropy(manifest, fam, 1e-10)
    _checks_mutual_info(
        manifest, fam, twin_ensemble(conjugate_set(fam)), 1e-10,
        expected=sic_power_bound(fam.d) if _twin_theorem_applies(fam) else None,
    )
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    min_result = _run_min_entropy(manifest, fam, cfg, 1e-8)
    cap_result = _run_capacity(manifest, fam, cfg, 1e-6)
    for name, result in (("min_entropy", min_result), ("info_power", cap_result)):
        out = os.path.join(_out_dir(args), f"{name}_result.json")
        dump_json(_search_result_dict(result), out)
        manifest.add_artifact(out)
    _checks_design(manifest, fam, 3, 1e-12)
    if fam.d == 8 and fam.hadamard.is_real:
        _checks_covariance(manifest, fam, 1e-12)
        design = _checks_zero_design(manifest, fam, 1e-10)
        out = os.path.join(_out_dir(args), "zero_design.json")
        dump_json(design.to_dict(), out)
        manifest.add_artifact(out)
    _checks_bloch(manifest, fam, 1e-12)
    _checks_statistics(manifest, fam, args.samples, args.seed)
    _checks_oracles(manifest, fam, args.seed, args.mc_samples)
    return manifest.finish(_manifest_path(args, "report_manifest.json"), args.bits)


# -------------------------------------------------------------------- parser


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


def _add_family_flags(p, construction=True):
    p.add_argument("--family", help="family JSON file produced by construct")
    if construction:
        p.add_argument("--d", type=int, help="dimension for in-place construction")
        p.add_argument("--v", default="-1+2i", help="complex parameter, e.g. -1+2i or (1+sqrt3)(1+i)/2")
        p.add_argument(
            "--hadamard", default="auto",
            help="sylvester | fourier | auto | path to a Hadamard JSON file",
        )


def _add_common_flags(p, tol):
    p.add_argument("--tol", type=_float_above(0.0), default=tol)
    p.add_argument("--out", help="manifest output path")
    p.add_argument("--out-dir", help="directory for artifacts (default . or $HOGGAR_OUT_DIR)")
    p.add_argument("--bits", action="store_true", help="display values in bits (storage stays in nats)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hoggar",
        description="Construct SIC-POVMs from Hadamard matrices and certify their entropy, "
        "informational power, design combinatorics and Bloch geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("construct", cmd_construct, 1e-12, {}),
        ("verify-sic", cmd_verify_sic, 1e-12, {}),
        ("covariance", cmd_covariance, 1e-12, {}),
        ("entropy", cmd_entropy, 1e-10, {"twin": True, "state": True}),
        ("min-entropy", cmd_min_entropy, 1e-8, {"opt": True}),
        ("info-power", cmd_info_power, 1e-6, {"opt": True}),
        ("certify", cmd_certify, 1e-6, {"opt": True}),
        ("mutual-info", cmd_mutual_info, 1e-10, {"ensemble": True}),
        ("design-check", cmd_design_check, 1e-12, {"t": True}),
        ("zero-design", cmd_zero_design, 1e-12, {"threshold": True, "format": True}),
        ("bloch", cmd_bloch, 1e-12, {"format": True}),
        ("report", cmd_report, 1e-12, {"opt": True, "stats": True}),
    ]
    for name, func, tol, extra in specs:
        p = sub.add_parser(name)
        _add_family_flags(p)
        _add_common_flags(p, tol)
        if extra.get("twin"):
            p.add_argument("--twin", action="store_true", help="evaluate all twin states")
        if extra.get("state"):
            p.add_argument("--state", help="state JSON file ({kind: pure|mixed, ...})")
        if extra.get("opt") or extra.get("stats"):
            p.add_argument("--restarts", type=_int_at_least(1), default=64)
            p.add_argument("--seed", type=_int_at_least(0), default=1)
        if extra.get("ensemble"):
            p.add_argument("--ensemble", default="twin", help="ensemble JSON file or 'twin'")
            p.add_argument("--expected", type=_float_above(-math.inf), help="expected mutual information in nats")
        if extra.get("t"):
            p.add_argument("--t", type=_int_at_least(1), default=3)
        if extra.get("threshold"):
            p.add_argument("--threshold", type=_float_above(0.0), default=1e-10)
        if extra.get("format"):
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if extra.get("stats"):
            p.add_argument("--samples", type=_int_at_least(1), default=100000)
            p.add_argument("--mc-samples", type=_int_at_least(2), default=1000000)
        p.set_defaults(func=func)
    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HoggarError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    raise SystemExit(run())


if __name__ == "__main__":
    entry_point()
