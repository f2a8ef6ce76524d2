import math

import numpy as np
import pytest

from hoggar import InvalidArgumentError, hoggar_family, tetrahedral_family, uniform_ensemble
from hoggar.serialize import (
    dump_json,
    dumps,
    ensemble_from_dict,
    ensemble_to_dict,
    family_from_dict,
    family_to_dict,
    format_complex,
    format_float,
    hadamard_from_dict,
    hadamard_to_dict,
    matrix_from_dict,
    matrix_to_dict,
    parse_complex,
    state_from_dict,
    state_to_dict,
)

SQRT3 = math.sqrt(3.0)


def test_parse_complex_literals():
    assert parse_complex("-1+2i") == -1 + 2j
    assert parse_complex("0") == 0
    assert parse_complex("-2") == -2
    assert parse_complex("1-2j") == 1 - 2j
    assert parse_complex("2i") == 2j
    assert parse_complex("1+sqrt3i") == pytest.approx(1 + SQRT3 * 1j)
    assert parse_complex("(1+sqrt3)(1+i)/2") == pytest.approx((1 + SQRT3) * (1 + 1j) / 2)
    assert parse_complex("-(1-sqrt3)(1-i)/2") == pytest.approx(-(1 - SQRT3) * (1 - 1j) / 2)
    assert parse_complex("0.5 + 0.25i") == 0.5 + 0.25j


def test_parse_complex_rejects_garbage():
    for bad in ("", "1+", "(1+2i", "1x", "sqrt2", "1+2i)", "*", ")", "/2", "1+*2", "(" * 400 + "1"):
        with pytest.raises(InvalidArgumentError):
            parse_complex(bad)


def test_format_float_fixed_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    with pytest.raises(InvalidArgumentError):
        format_float(float("nan"))


def test_dump_json_leaves_no_file_when_serialization_fails(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(InvalidArgumentError):
        dump_json({"value": math.nan}, path)
    assert not path.exists()


def test_format_complex_roundtrip():
    z = -1 + 2j
    assert parse_complex(format_complex(z)) == z


def test_dumps_deterministic_and_ordered():
    payload = {"b": 1, "a": [0.1, 0.2], "nested": {"x": True, "y": None}}
    text1 = dumps(payload)
    text2 = dumps(payload)
    assert text1 == text2
    assert text1.index('"b"') < text1.index('"a"')  # insertion order preserved
    import json

    parsed = json.loads(text1)
    assert parsed["a"][0] == 0.1


def test_matrix_roundtrip(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = matrix_from_dict(matrix_to_dict(m))
    assert np.array_equal(back, m)
    with pytest.raises(InvalidArgumentError):
        matrix_from_dict({"rows": 2, "cols": 2, "entries": [[1, 0]]})


def test_hadamard_roundtrip():
    h = hoggar_family().hadamard
    back = hadamard_from_dict(hadamard_to_dict(h))
    assert back.is_real
    assert np.array_equal(back.signs, h.signs)


def test_family_roundtrip():
    fam = hoggar_family()
    data = family_to_dict(fam)
    back = family_from_dict(data)
    assert back.d == 8 and back.admissible
    assert np.array_equal(back.raw, fam.raw)
    # serialization is a parse -> serialize fixed point
    assert dumps(family_to_dict(back)) == dumps(data)


def test_family_dict_rejects_tampering():
    data = family_to_dict(tetrahedral_family())
    data["vectors"][2]["coords"][0] = [9.0, 0.0]
    with pytest.raises(InvalidArgumentError):
        family_from_dict(data)


def test_state_and_ensemble_roundtrip(rng):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    assert np.array_equal(state_from_dict(state_to_dict(psi)), psi)
    rho = np.eye(4) / 4
    assert np.array_equal(state_from_dict(state_to_dict(rho)), rho)
    ens = uniform_ensemble([psi, np.eye(4) / 4])
    back = ensemble_from_dict(ensemble_to_dict(ens))
    assert back.size == 2
    assert np.array_equal(back.weights, ens.weights)
