import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from hoggar import optimize, sic
from hoggar.cli import Run, _oracles, _statistics, build_parser, run
from hoggar.infotheory import Measurement, eta, outcome_matrix
from hoggar.optimize import ROW_BLOCK, haar_blocks, row_blocks
from hoggar.serialize import dumps, load_json


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_construct_and_verify(tmp_path):
    family = tmp_path / "hoggar.json"
    code = run(
        ["construct", "--d", "8", "--v=-1+2i", "--out", str(family), "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert family.exists()
    manifest_path = tmp_path / "construct_manifest.json"
    manifest = load_json(manifest_path)
    assert manifest["command"] == "construct"
    assert str(family) in manifest["artifacts"]
    assert all(c["pass"] for c in manifest["checks"])

    code = run(["verify-sic", "--family", str(family), "--out-dir", str(tmp_path)])
    assert code == 0
    checks = {c["name"]: c for c in load_json(tmp_path / "verify_sic_manifest.json")["checks"]}
    assert checks["equiangular_overlaps"]["value"] == pytest.approx(1 / 576, abs=1e-15)


def test_construct_deterministic_bytes(tmp_path):
    fam_a, fam_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["construct", "--d", "2", "--v", "(1+sqrt3)(1+i)/2", "--out", str(fam_a), "--out-dir", str(tmp_path)]) == 0
    assert run(["construct", "--d", "2", "--v", "(1+sqrt3)(1+i)/2", "--out", str(fam_b), "--out-dir", str(tmp_path)]) == 0
    assert read(fam_a) == read(fam_b)


# These artifacts hold only exact integers, so their bytes are the same on every
# platform; the digests pin the file format across versions of the code.
PINNED_SHA256 = {
    "hoggar.json": "3f6f0157b2221f4031b3aaefa299358c89d059a8dd33838fe004c613bcce71f9",
    "zero_design.json": "2e3dfaaf96dbd66c8985ddaa628a4f5865c2a234d799e019bfc60e23e5a30310",
    "zero_design_incidence.csv": "4a90fb4527db2434eb2e9ccfe3c38e114561d850b1ac5cf1293a9dde00a7c444",
}


def test_exact_artifacts_keep_their_pinned_bytes(tmp_path):
    family = tmp_path / "hoggar.json"
    assert run(["construct", "--d", "8", "--v=-1+2i", "--out", str(family), "--out-dir", str(tmp_path)]) == 0
    assert run(["zero-design", "--family", str(family), "--format", "csv", "--out-dir", str(tmp_path)]) == 0
    assert {name: hashlib.sha256(read(tmp_path / name)).hexdigest() for name in PINNED_SHA256} == PINNED_SHA256


def test_family_file_roundtrips_through_subcommands(tmp_path):
    family = tmp_path / "fam.json"
    assert run(["construct", "--d", "8", "--v=-1+2i", "--out", str(family), "--out-dir", str(tmp_path)]) == 0
    for sub in ("verify-sic", "covariance", "design-check", "zero-design", "bloch"):
        assert run([sub, "--family", str(family), "--out-dir", str(tmp_path)]) == 0


def test_entropy_twin_and_mixed(tmp_path):
    family = tmp_path / "fam.json"
    run(["construct", "--d", "8", "--v=-1+2i", "--out", str(family), "--out-dir", str(tmp_path)])
    assert run(["entropy", "--family", str(family), "--twin", "--out-dir", str(tmp_path)]) == 0
    checks = {c["name"]: c for c in load_json(tmp_path / "entropy_manifest.json")["checks"]}
    assert checks["twin_entropy_min_bound"]["value"] == pytest.approx(math.log(36), abs=1e-10)
    assert run(["entropy", "--family", str(family), "--out-dir", str(tmp_path)]) == 0


def test_mutual_info_twin(tmp_path):
    family = tmp_path / "fam.json"
    run(["construct", "--d", "8", "--v=-1+2i", "--out", str(family), "--out-dir", str(tmp_path)])
    assert run(["mutual-info", "--family", str(family), "--out-dir", str(tmp_path)]) == 0
    checks = {c["name"]: c for c in load_json(tmp_path / "mutual_info_manifest.json")["checks"]}
    assert checks["mutual_information_expected"]["value"] == pytest.approx(
        2 * math.log(4 / 3), abs=1e-10
    )


def test_entropy_state_file(tmp_path):
    from hoggar import hoggar_family
    from hoggar.serialize import dump_json, state_to_dict

    family = tmp_path / "fam.json"
    run(["construct", "--d", "8", "--v=-1+2i", "--out", str(family), "--out-dir", str(tmp_path)])
    state_path = tmp_path / "state.json"
    dump_json(state_to_dict(hoggar_family().states[0]), state_path)
    assert run(
        ["entropy", "--family", str(family), "--state", str(state_path), "--out-dir", str(tmp_path)]
    ) == 0
    checks = {c["name"]: c for c in load_json(tmp_path / "entropy_manifest.json")["checks"]}
    expected = math.log(8) + (7 / 8) * math.log(9)  # the family's own states sit at the ceiling
    assert checks["distribution_normalized"]["value"] == pytest.approx(expected, abs=1e-12)


def test_mutual_info_ensemble_file(tmp_path):
    from hoggar import conjugate_set, hoggar_family, twin_ensemble
    from hoggar.serialize import dump_json, ensemble_to_dict

    family = tmp_path / "fam.json"
    run(["construct", "--d", "8", "--v=-1+2i", "--out", str(family), "--out-dir", str(tmp_path)])
    ens_path = tmp_path / "ens.json"
    dump_json(ensemble_to_dict(twin_ensemble(conjugate_set(hoggar_family()))), ens_path)
    assert run(
        [
            "mutual-info", "--family", str(family), "--ensemble", str(ens_path),
            "--expected", str(2 * math.log(4 / 3)), "--out-dir", str(tmp_path),
        ]
    ) == 0


def test_min_entropy_command_d2(tmp_path):
    family = tmp_path / "tetra.json"
    run(["construct", "--d", "2", "--v", "(1+sqrt3)(1+i)/2", "--out", str(family), "--out-dir", str(tmp_path)])
    code = run(
        ["min-entropy", "--family", str(family), "--restarts", "16", "--seed", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    checks = {c["name"]: c for c in load_json(tmp_path / "min_entropy_manifest.json")["checks"]}
    assert checks["min_entropy_equals_sic_bound"]["value"] == pytest.approx(math.log(3), abs=1e-8)
    result = load_json(tmp_path / "min_entropy_result.json")
    assert len(result["restart_values"]) == 16


def test_info_power_command_d2(tmp_path):
    family = tmp_path / "tetra.json"
    run(["construct", "--d", "2", "--v", "(1+sqrt3)(1+i)/2", "--out", str(family), "--out-dir", str(tmp_path)])
    code = run(
        ["info-power", "--family", str(family), "--restarts", "16", "--seed", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    checks = {c["name"]: c for c in load_json(tmp_path / "info_power_manifest.json")["checks"]}
    assert checks["certificate_gap"]["pass"]
    assert checks["informational_power_equals_sic_bound"]["value"] == pytest.approx(
        math.log(4 / 3), abs=1e-6
    )


def test_certify_results_match_the_single_searches(tmp_path, monkeypatch):
    from hoggar import optimize

    calls = []
    descend = optimize._descend
    monkeypatch.setattr(optimize, "_descend", lambda *args: calls.append(1) or descend(*args))
    flags = ["--d", "3", "--v=0", "--seed", "1"]
    descents = {}
    for command in ("certify", "min-entropy", "info-power"):
        calls.clear()
        assert run([command] + flags + ["--out-dir", str(tmp_path / command)]) == 0
        descents[command] = len(calls)
    for command, name in (("min-entropy", "min_entropy_result.json"), ("info-power", "info_power_result.json")):
        assert read(tmp_path / "certify" / name) == read(tmp_path / command / name)
    # certify descends the first restart batch once, not once per search
    assert descents["certify"] == descents["min-entropy"] + descents["info-power"] - 1


def test_zero_design_csv_artifacts(tmp_path):
    family = tmp_path / "fam.json"
    run(["construct", "--d", "8", "--v=-1+2i", "--out", str(family), "--out-dir", str(tmp_path)])
    assert run(
        ["zero-design", "--family", str(family), "--format", "csv", "--out-dir", str(tmp_path)]
    ) == 0
    incidence = np.loadtxt(tmp_path / "zero_design_incidence.csv", delimiter=",", dtype=int)
    assert incidence.shape == (64, 64)
    assert incidence.sum() == 64 * 28
    design = load_json(tmp_path / "zero_design.json")
    assert design["params"] == [64, 28, 12]


def test_bloch_csv_artifacts(tmp_path):
    family = tmp_path / "fam.json"
    run(["construct", "--d", "8", "--v=-1+2i", "--out", str(family), "--out-dir", str(tmp_path)])
    assert run(["bloch", "--family", str(family), "--format", "csv", "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "bloch_family.csv").read_text().strip().split("\n")
    assert len(rows) == 65  # header + 64 vectors
    assert rows[0].startswith("sym_0_1,")


def test_exit_codes(tmp_path):
    # check failure -> 1, with manifest still written
    family = tmp_path / "bad.json"
    run(["construct", "--d", "8", "--v", "2", "--out", str(family), "--out-dir", str(tmp_path)])
    assert run(["verify-sic", "--family", str(family), "--out-dir", str(tmp_path)]) == 1
    assert (tmp_path / "verify_sic_manifest.json").exists()
    # usage / IO errors -> 2
    assert run(["verify-sic", "--family", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path)]) == 2
    assert run(["construct", "--d", "7", "--hadamard", "sylvester", "--v", "1", "--out-dir", str(tmp_path)]) == 2
    with pytest.raises(SystemExit) as excinfo:
        run(["not-a-command"])
    assert excinfo.value.code == 2


def test_optimizer_artifact_bytes_deterministic(tmp_path):
    family = tmp_path / "tetra.json"
    run(["construct", "--d", "2", "--v", "(1+sqrt3)(1+i)/2", "--out", str(family), "--out-dir", str(tmp_path)])
    blobs = []
    for sub in ("r1", "r2"):
        out_dir = tmp_path / sub
        assert run(
            ["min-entropy", "--family", str(family), "--restarts", "8", "--seed", "4", "--out-dir", str(out_dir)]
        ) == 0
        blobs.append(read(out_dir / "min_entropy_result.json"))
    assert blobs[0] == blobs[1]


def test_manifest_bytes_deterministic(tmp_path):
    family = tmp_path / "fam.json"
    run(["construct", "--d", "8", "--v=-1+2i", "--out", str(family), "--out-dir", str(tmp_path)])
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    run(["verify-sic", "--family", str(family), "--out", str(out1), "--out-dir", str(tmp_path)])
    run(["verify-sic", "--family", str(family), "--out", str(out2), "--out-dir", str(tmp_path)])
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    a.pop("parameters"), b.pop("parameters")  # paths differ only via --out
    assert dumps(a) == dumps(b)


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "envdir"
    monkeypatch.setenv("HOGGAR_OUT_DIR", str(target))
    assert run(["construct", "--d", "2", "--v", "(1+sqrt3)(1+i)/2"]) == 0
    assert (target / "family.json").exists()


def test_certify_command_d2(tmp_path):
    family = tmp_path / "tetra.json"
    run(["construct", "--d", "2", "--v", "(1+sqrt3)(1+i)/2", "--out", str(family), "--out-dir", str(tmp_path)])
    code = run(
        ["certify", "--family", str(family), "--restarts", "16", "--seed", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    checks = {c["name"]: c for c in load_json(tmp_path / "certify_manifest.json")["checks"]}
    assert checks["min_entropy_equals_sic_bound"]["value"] == pytest.approx(math.log(3), abs=1e-8)
    assert checks["informational_power_equals_sic_bound"]["value"] == pytest.approx(
        math.log(4 / 3), abs=1e-6
    )
    assert (tmp_path / "info_power_result.json").exists()


def test_report_command_d2(tmp_path):
    code = run(
        [
            "report", "--d", "2", "--v", "(1+sqrt3)(1+i)/2",
            "--restarts", "16", "--seed", "1",
            "--samples", "2000", "--mc-samples", "20000",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    manifest = load_json(tmp_path / "report_manifest.json")
    names = [c["name"] for c in manifest["checks"]]
    for expected in (
        "identity_resolution",
        "twin_entropy_min_bound",
        "mutual_information_expected",
        "certificate_gap",
        "regular_simplex_twin",
        "transpose_reflection",
        "pure_state_entropy_ceiling",
        "bsc_capacity",
    ):
        assert expected in names
    assert all(c["pass"] for c in manifest["checks"])
    assert (tmp_path / "family.json").exists()


def report_run(tmp_path, samples, mc_samples):
    """The shared state of the steps of ``report --d 8`` at seed 1."""
    argv = ["report", "--d", "8", "--samples", str(samples), "--mc-samples", str(mc_samples)]
    return Run(build_parser().parse_args(argv + ["--out-dir", str(tmp_path)]))


def test_sampling_checks_match_full_arrays(tmp_path, one_shot_haar):
    # 8193 rows stream as seven blocks of 1024 rows, then 1023 and 2 rows
    n, d = 8193, 8
    report = report_run(tmp_path, n, n)
    states = one_shot_haar(d, np.random.default_rng((1, 2**32)), size=n)
    probs = outcome_matrix(states, report.fam)
    entropies = eta(probs).sum(axis=1)
    ics = (probs * probs).sum(axis=1)
    expected = [float(entropies.min()), float(entropies.max()), float(np.abs(ics - 2.0 / (d * (d + 1))).max())]
    assert [c.value for c in _statistics(report, None)] == expected
    # the oracle draws only the second state b, d real and d imaginary parts per row,
    # block by block, and averages |<e_i|b>|^4 over the basis
    rng = np.random.default_rng((1, 2**33))
    x = np.concatenate([rng.standard_normal((rows.stop - rows.start, 2 * d)) for rows in row_blocks(n)])
    b = (x[:, :d] + 1j * x[:, d:]) / np.linalg.norm(x, axis=1)[:, None]
    x *= x
    w = x[:, :d] + x[:, d:]
    s = x.sum(axis=1)
    u = (w * w).sum(axis=1) / (s * s * d)
    np.testing.assert_allclose(u, (np.abs(b) ** 4).mean(axis=1), rtol=1e-14)
    mc, se = float(u.mean()), float(u.std(ddof=1) / math.sqrt(n))
    check = next(c for c in _oracles(report, None) if c.name == "haar_moment_monte_carlo")
    assert (check.value, check.tolerance) == (mc, 3 * se)


def test_moment_draw_is_the_haar_sweep_draw():
    # the oracle's rows of 2 * d normals, as complex states, are the rows haar_blocks
    # draws from the same generator: d real parts, then d imaginary parts per state
    n, d = 2 * ROW_BLOCK + 1, 8
    rng = np.random.default_rng((1, 2**33))
    x = np.concatenate([rng.standard_normal((rows.stop - rows.start, 2 * d)) for rows in row_blocks(n)])
    b = x[:, :d] + 1j * x[:, d:]
    b /= np.linalg.norm(b, axis=1)[:, None]
    for rows, states in haar_blocks(d, np.random.default_rng((1, 2**33)), n):
        assert np.array_equal(states.view(np.float64), b[rows].view(np.float64))


def test_statistics_carry_a_nan_through_the_running_reductions(tmp_path, monkeypatch):
    from hoggar import cli

    report = report_run(tmp_path, 8193, 2)
    blocks = []

    class Poisoned(Measurement):
        def probabilities(self, rows):
            probs, amps = super().probabilities(rows)
            blocks.append(probs)
            if len(blocks) == 2:
                probs[0, 0] = np.nan
            return probs, amps

    monkeypatch.setattr(cli, "Measurement", Poisoned)
    checks = _statistics(report, None)
    assert len(blocks) == len(row_blocks(8193))
    assert not any(c.passed for c in checks) and all(math.isnan(c.value) for c in checks)


def test_report_builds_the_twin_and_the_measurement_once(tmp_path, monkeypatch):
    from hoggar import cli

    runs, twins, povms = [], [], {}

    class Recorded(Run):
        def __init__(self, args):
            super().__init__(args)
            runs.append(self)

    def recorded(name, fn):
        def call(*args):
            povms.setdefault(name, []).append(args[1])
            return fn(*args)

        return call

    def conjugate_set(fam):
        twins.append(fam)
        return sic.conjugate_set(fam)

    names = (
        "outcome_distribution", "outcome_matrix", "mutual_information", "holevo_quantity", "outcome_probabilities",
        "entropy_gradient",
    )
    for name in names:
        monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
    monkeypatch.setattr(cli, "conjugate_set", conjugate_set)
    monkeypatch.setattr(cli, "Run", Recorded)
    argv = ["report", "--d", "2", "--restarts", "8", "--samples", "2000", "--mc-samples", "2000"]
    run(argv + ["--out-dir", str(tmp_path)])
    (context,) = runs
    assert len(twins) == 1
    assert type(context.measurement) is Measurement
    assert set(povms) == set(names)
    assert all(povm is context.measurement for calls in povms.values() for povm in calls)


def test_sampling_checks_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    values = []
    # 20001 rows leave a lone last row at 1000 rows a block
    for block in (8192, 4096, 1024, 1000):
        monkeypatch.setattr(optimize, "ROW_BLOCK", block)
        report = report_run(tmp_path, 20001, 20001)
        values.append(_statistics(report, None) + _oracles(report, None))
    assert all(v == values[0] for v in values[1:])


@pytest.mark.parametrize("seed", [1, 59])
def test_moment_oracle_catches_a_moment_half_a_percent_off(tmp_path, monkeypatch, seed):
    # at the default --mc-samples the tolerance is about 6.7e-5, and 0.5% of 1/36 is 1.4e-4
    from hoggar import cli

    report = Run(build_parser().parse_args(["report", "--d", "8", "--seed", str(seed), "--out-dir", str(tmp_path)]))

    def moment_check():
        return next(c for c in _oracles(report, None) if c.name == "haar_moment_monte_carlo")

    assert moment_check().passed
    true_moment = cli.haar_moment
    monkeypatch.setattr(cli, "haar_moment", lambda d, t: 1.005 * true_moment(d, t))
    assert not moment_check().passed


def traced_peak(step, report):
    """The checks of one report step, and the peak of memory it traced."""
    tracemalloc.start()
    try:
        checks = step(report, None)
        return checks, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampling_steps_stream_in_bounded_memory(tmp_path):
    # a full-size sweep holds several (n, 64) float arrays: about 690 MiB here;
    # streamed, it keeps one block of states, amplitudes, probabilities, eta's
    # guarded copy and running reductions (about 2 MiB at any n).  The oracle
    # keeps one n-float array and forms its standard error in place (about
    # 3 MiB), where n first states took 32 MiB.  An untraced first call leaves
    # both traced _statistics peaks at the process's steady state
    _statistics(report_run(tmp_path, 2048, 2), None)
    report = report_run(tmp_path, 262144, 262144)
    peaks = {}
    for step, bound_mib in ((_statistics, 4), (_oracles, 4)):
        checks, peaks[step] = traced_peak(step, report)
        assert all(c.passed for c in checks)
        assert peaks[step] <= bound_mib * 2**20, f"{step.__name__} peaked at {peaks[step] / 2**20:.1f} MiB"
    checks, small = traced_peak(_statistics, report_run(tmp_path, 65536, 2))
    assert all(c.passed for c in checks)
    growth = peaks[_statistics] - small
    assert abs(growth) < 2**19, f"_statistics grew by {growth / 2**20:.2f} MiB from 65536 to 262144 samples"


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--d", "2", "--samples", "0"],
        ["report", "--d", "2", "--mc-samples", "1"],
        ["verify-sic", "--d", "2", "--tol", "nan"],
        ["verify-sic", "--d", "2", "--tol", "inf"],
        ["verify-sic", "--d", "2", "--tol", "0"],
        ["design-check", "--d", "2", "--t", "0"],
        ["min-entropy", "--d", "2", "--seed", "-1"],
        ["report", "--d", "2", "--restarts", "0"],
        ["mutual-info", "--d", "2", "--expected", "nan"],
    ],
)
def test_out_of_range_arguments_rejected_at_parse_time(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(argv + ["--out-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("hoggar ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--d", "2", "--jobs", "2"],
        ["verify-sic", "--d", "2", "--format", "csv"],
        ["construct", "--d", "2", "--family", "/nonexistent.json"],
        ["report", "--d", "2", "--tol", "1e-300"],
        ["zero-design", "--d", "8", "--tol", "1e-300"],
        ["zero-design", "--d", "8", "--threshold", "nan"],
    ],
)
def test_unknown_flags_rejected(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(argv + ["--out-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err.strip().splitlines()[-1]
    assert not any(tmp_path.iterdir())


TETRA = ["--d", "2", "--v", "(1+sqrt3)(1+i)/2"]


def _tetra_family():
    from hoggar import tetrahedral_family
    from hoggar.serialize import family_to_dict

    return family_to_dict(tetrahedral_family())


@pytest.mark.parametrize(
    "argv, flag, payload",
    [
        pytest.param(["verify-sic"], "--family", lambda: {**_tetra_family(), "v": 5}, id="family-v-scalar"),
        pytest.param(["verify-sic"], "--family", lambda: [_tetra_family()], id="family-list"),
        pytest.param(
            ["verify-sic"], "--family", lambda: {**_tetra_family(), "v": [math.nan, 0.0]}, id="family-v-nan"
        ),
        pytest.param(
            ["verify-sic"], "--family",
            lambda: {**_tetra_family(), "vectors": _tetra_family()["vectors"][:3]},
            id="family-vectors-short",
        ),
        pytest.param(["entropy", *TETRA], "--state", lambda: [1, 2], id="state-list"),
        pytest.param(["entropy", *TETRA], "--state", lambda: {"kind": "pure"}, id="state-no-coords"),
        pytest.param(
            ["entropy", *TETRA], "--state", lambda: {"kind": "pure", "coords": [[2, 0], [0, 0]]},
            id="state-unnormalized",
        ),
        pytest.param(
            ["mutual-info", *TETRA], "--ensemble", lambda: {"weights": [], "states": []}, id="ensemble-empty"
        ),
        pytest.param(["verify-sic"], "--family", lambda: b"\xff\xfe", id="family-not-utf8"),
        pytest.param(
            ["verify-sic"], "--family", lambda: {**_tetra_family(), "v": [1e200, 0.0]}, id="family-v-huge"
        ),
    ],
)
def test_malformed_input_files_rejected(argv, flag, payload, tmp_path, capsys):
    path = tmp_path / "input.json"
    data = payload()
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data))
    out_dir = tmp_path / "out"
    assert run(argv + [flag, str(path), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert "np." not in err  # numbers print as plain floats, not numpy reprs
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("v", ["1/0", "1/(1-1)", pytest.param("9" * 200, id="overflowing")])
def test_non_finite_parameter_rejected(v, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run(["construct", "--d", "2", "--v", v, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("v", ["*", ")", "/2", "1+*2", pytest.param("(" * 400 + "1", id="deeply-nested")])
def test_malformed_parameter_rejected(v, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run(["verify-sic", "--d", "2", f"--v={v}", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_hadamard_file_matches_named_matrix(tmp_path, capsys):
    from hoggar.algebra import sylvester_hadamard
    from hoggar.serialize import dump_json, hadamard_to_dict

    matrix = tmp_path / "sylvester2.json"
    dump_json(hadamard_to_dict(sylvester_hadamard(1)), matrix)
    for name, choice in (("named", "sylvester"), ("file", str(matrix))):
        assert run(["construct", *TETRA, "--hadamard", choice, "--out-dir", str(tmp_path / name)]) == 0
    assert read(tmp_path / "named" / "family.json") == read(tmp_path / "file" / "family.json")
    capsys.readouterr()
    out_dir = tmp_path / "d3"
    assert run(["construct", "--d", "3", "--v", "0", "--hadamard", str(matrix), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert not out_dir.exists() or not any(out_dir.iterdir())


SIC_CHECKS = ["identity_resolution", "equiangular_overlaps"]
TWIN_CHECKS = ["twin_zero_pattern", "twin_entropy_min_bound"]
MUTUAL_INFO_CHECKS = [
    "holevo_equals_mutual_information", "average_state_uniform_outcomes", "mutual_information_expected",
]
MIN_ENTROPY_CHECKS = ["min_entropy_converged", "min_entropy_self_consistent", "min_entropy_equals_sic_bound"]
CAPACITY_CHECKS = [
    "capacity_converged", "capacity_below_certificate", "certificate_gap", "informational_power_equals_sic_bound",
]
DESIGN_CHECKS = [
    "frame_potential_t1_matches_moment", "frame_potential_t2_matches_moment", "frame_potential_t3_exceeds_moment",
]
ZERO_DESIGN_CHECKS = [
    "design_parameters", "symmetric_design_axioms", "difference_set_development",
    "block_translation", "membership_criterion_sign",
]
BLOCH_CHECKS = ["symmetric_subspace_dimension", "regular_simplex_family", "regular_simplex_twin", "transpose_reflection"]
HOGGAR = ["--d", "8", "--v=-1+2i"]
SEARCH = ["--restarts", "8", "--seed", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["zero-design"], id="zero-design"),
        pytest.param(
            ["report", "--restarts", "64", "--seed", "1", "--samples", "2000", "--mc-samples", "20000"], id="report"
        ),
    ],
)
def test_zero_design_on_a_permuted_sylvester_family(argv, permuted_sylvester_family, tmp_path):
    # rows and columns permuted and sign-flipped: the design is read off the
    # family's own displacement group, not off the Sylvester labelling
    from hoggar.serialize import save_family

    family = tmp_path / "family.json"
    save_family(permuted_sylvester_family, family)
    assert run(argv + ["--family", str(family), "--out-dir", str(tmp_path)]) == 0
    checks = {c["name"]: c for c in load_json(tmp_path / f"{argv[0].replace('-', '_')}_manifest.json")["checks"]}
    assert checks["design_parameters"]["value"] == 28
    assert all(checks[name]["pass"] for name in ZERO_DESIGN_CHECKS)
    assert load_json(tmp_path / "zero_design.json")["params"] == [64, 28, 12]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["zero-design"], id="zero-design"),
        pytest.param(["report", "--restarts", "4", "--samples", "100", "--mc-samples", "100"], id="report"),
    ],
)
def test_zero_pattern_that_is_no_design_fails_a_check(argv, tmp_path):
    # at v = -3 the twin zero blocks meet in 18 or 20 points: a failed check (exit 1), not a usage error
    assert run(argv + ["--d", "8", "--v=-3", "--out-dir", str(tmp_path)]) == 1
    checks = load_json(tmp_path / f"{argv[0].replace('-', '_')}_manifest.json")["checks"]
    (design,) = [c for c in checks if c["name"] == "design_parameters"]
    assert not design["pass"]
    assert not any(c["name"] in ZERO_DESIGN_CHECKS[1:] for c in checks)
    assert not (tmp_path / "zero_design.json").exists()


def test_info_power_d8_at_eight_restarts(tmp_path):
    # batch 0 holds a global minimizer at this seed, and its orbit under the
    # displacement group is all 64 twin lines
    assert run(["info-power", *HOGGAR, *SEARCH, "--out-dir", str(tmp_path)]) == 0
    result = load_json(tmp_path / "info_power_result.json")
    assert len(result["best_ensemble"]["weights"]) == 64
    assert result["certificate_gap"] <= 1e-6


@pytest.mark.parametrize(
    "argv, names",
    [
        pytest.param(["construct", *TETRA], ["hadamard_valid"], id="construct"),
        pytest.param(["verify-sic", *TETRA], SIC_CHECKS, id="verify-sic"),
        pytest.param(["covariance", *HOGGAR], ["pauli_covariance"], id="covariance"),
        pytest.param(["entropy", *TETRA], ["maximally_mixed_uniform"], id="entropy"),
        pytest.param(["entropy", *TETRA, "--twin"], TWIN_CHECKS, id="entropy-twin"),
        pytest.param(["entropy", *TETRA, "--state", "STATE"], ["distribution_normalized"], id="entropy-state"),
        pytest.param(
            ["entropy", "--d", "3", "--v", "0", "--twin"], ["twin_distributions_normalized"], id="entropy-twin-d3"
        ),
        pytest.param(["min-entropy", *TETRA, *SEARCH], MIN_ENTROPY_CHECKS, id="min-entropy"),
        pytest.param(["info-power", *TETRA, *SEARCH], CAPACITY_CHECKS, id="info-power"),
        pytest.param(["certify", *TETRA, *SEARCH], SIC_CHECKS + MIN_ENTROPY_CHECKS + CAPACITY_CHECKS, id="certify"),
        pytest.param(["mutual-info", *TETRA], MUTUAL_INFO_CHECKS, id="mutual-info"),
        pytest.param(["design-check", *TETRA], DESIGN_CHECKS, id="design-check"),
        pytest.param(["zero-design", *HOGGAR], ZERO_DESIGN_CHECKS, id="zero-design"),
        pytest.param(["bloch", *TETRA], BLOCH_CHECKS, id="bloch"),
        pytest.param(
            ["report", *TETRA, *SEARCH, "--samples", "2000", "--mc-samples", "20000"],
            SIC_CHECKS + TWIN_CHECKS + MUTUAL_INFO_CHECKS + MIN_ENTROPY_CHECKS + CAPACITY_CHECKS
            + DESIGN_CHECKS + BLOCH_CHECKS
            + [
                "pure_state_entropy_floor", "pure_state_entropy_ceiling", "index_of_coincidence_constant",
                "bsc_capacity", "haar_moment_monte_carlo", "entropy_gradient_finite_difference",
            ],
            id="report",
        ),
    ],
)
def test_subcommand_check_names(argv, names, tmp_path):
    from hoggar import tetrahedral_family
    from hoggar.serialize import dump_json, state_to_dict

    state = tmp_path / "state.json"
    dump_json(state_to_dict(tetrahedral_family().states[0]), state)
    out_dir = tmp_path / "out"
    argv = [str(state) if a == "STATE" else a for a in argv]
    assert run(argv + ["--out-dir", str(out_dir)]) == 0
    manifest = load_json(out_dir / f"{argv[0].replace('-', '_')}_manifest.json")
    assert [c["name"] for c in manifest["checks"]] == names
    assert all(c["pass"] for c in manifest["checks"])
