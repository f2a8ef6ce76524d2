import json
import math

import numpy as np
import pytest

from hoggar.cli import run
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
        ["zero-design", "--d", "8", "--threshold", "nan"],
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
    "argv", [["report", "--d", "2", "--jobs", "2"], ["verify-sic", "--d", "2", "--format", "csv"]]
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
            ["mutual-info", *TETRA], "--ensemble", lambda: {"weights": [], "states": []}, id="ensemble-empty"
        ),
        pytest.param(["verify-sic"], "--family", lambda: b"\xff\xfe", id="family-not-utf8"),
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
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("v", ["1/0", "1/(1-1)"])
def test_non_finite_parameter_rejected(v, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run(["construct", "--d", "2", "--v", v, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")
    assert not out_dir.exists() or not any(out_dir.iterdir())
