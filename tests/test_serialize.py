import json
import math
import os
import tempfile

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
    format_float,
    hadamard_from_dict,
    hadamard_to_dict,
    matrix_from_dict,
    matrix_to_dict,
    parse_complex,
    state_from_dict,
    state_to_dict,
    write_csv,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.configuration import set_hypothesis_home_dir
    from hypothesis.extra.numpy import array_shapes, arrays
except ImportError:  # only the oracle properties at the end need hypothesis
    given = None
else:
    # as in test_properties.py: no example database, and the cache outside the checkout
    set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "hoggar-hypothesis"))

SQRT3 = math.sqrt(3.0)


# The emitter and the CSV writer as they were before their fast paths: the
# oracles that the current ones must match byte for byte.


def reference_format_float(x):
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise InvalidArgumentError("cannot serialize non-finite float")
    return format(x, ".17g")


def reference_emit(obj, parts, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(pad_in + json.dumps(str(key)) + ": ")
            reference_emit(value, parts, indent, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            parts.append("[]")
            return
        simple = all(isinstance(x, (bool, int, float, str, np.integer, np.floating)) for x in items)
        if simple and len(items) <= 8:
            parts.append("[" + ", ".join(reference_scalar(x) for x in items) + "]")
            return
        parts.append("[\n")
        for i, value in enumerate(items):
            parts.append(pad_in)
            reference_emit(value, parts, indent, level + 1)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + "]")
    else:
        parts.append(reference_scalar(obj))


def reference_scalar(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return reference_format_float(x)
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise InvalidArgumentError(f"cannot serialize value of type {type(x).__name__}")


def reference_dumps(obj, indent=2):
    parts = []
    reference_emit(obj, parts, indent, 0)
    parts.append("\n")
    return "".join(parts)


def reference_write_csv(path, rows, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write(",".join(reference_csv_cell(x) for x in row) + "\n")


def reference_csv_cell(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return reference_format_float(x)
    return str(x)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def same_as_reference(value):
    """``dumps(value)`` gives the reference text, or the reference's InvalidArgumentError."""
    try:
        expected = reference_dumps(value)
    except InvalidArgumentError as exc:
        with pytest.raises(InvalidArgumentError) as raised:
            dumps(value)
        assert str(raised.value) == str(exc)
        return
    assert dumps(value) == expected


def csv_same_as_reference(rows, header=None):
    """``write_csv`` writes the reference bytes, or refuses as the reference does and writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        old, new = os.path.join(tmp, "old.csv"), os.path.join(tmp, "new.csv")
        try:
            reference_write_csv(old, rows, header)
        except InvalidArgumentError:
            with pytest.raises(InvalidArgumentError):
                write_csv(new, rows, header)
            assert not os.path.exists(new)
            return
        write_csv(new, rows, header)
        assert read(new) == read(old)


EDGE_FLOATS = [
    0.0, -0.0, 0.1, 1.0, -2.5, 1e16, 1e17, 123456789.123456789, 2.0**-1074, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, math.pi,
]
NON_FINITE = [math.nan, math.inf, -math.inf]


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
    for x in EDGE_FLOATS + [np.float32(0.1), np.float64(-0.0), 7]:
        assert format_float(x) == format(float(x), ".17g")
        assert format_float(-float(x)) == format(-float(x), ".17g")
    for x in NON_FINITE:
        with pytest.raises(InvalidArgumentError):
            format_float(x)


def test_dump_json_leaves_no_file_when_serialization_fails(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(InvalidArgumentError):
        dump_json({"value": math.nan}, path)
    assert not path.exists()


def test_write_csv_leaves_no_file_when_a_cell_is_not_finite(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidArgumentError):
        write_csv(path, [[1.0, 2.0], [math.nan, 3.0]])
    assert not path.exists()


def test_write_csv_takes_a_2d_numeric_array(tmp_path):
    for bad in ([1.0, 2.0], [[1 + 2j]], [["a", "b"]]):
        with pytest.raises(InvalidArgumentError):
            write_csv(tmp_path / "out.csv", bad)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "value",
    [
        EDGE_FLOATS,
        EDGE_FLOATS[:8],
        [np.float64(x) for x in EDGE_FLOATS[:8]],
        [True, False, 0, -1, 2**63, -(2**70), "", "a\"b\\c\n\u00e9\u2028\U0001f600"],
        [np.bool_(True), np.bool_(False)],  # not simple: one item a line
        [None, 1],
        {"a": {"b": [[], {}, (), [[0, 1, 1], [1, 0, 0]]]}, 3: (np.int64(-5), np.float32(0.5), np.uint64(2**64 - 1))},
        [1.0, math.nan],
        {"x": [math.inf]},
        {"z": [1j]},  # no JSON form: the same error as before
        3.5,
        "text",
        None,
    ],
    ids=lambda v: type(v).__name__,
)
def test_dumps_matches_the_reference_emitter(value):
    same_as_reference(value)


def test_write_csv_matches_the_reference_writer():
    grid = np.array(EDGE_FLOATS[:12]).reshape(3, 4)
    csv_same_as_reference(grid, header=["a", "b", "c", "d"])
    single = np.finfo(np.float32)
    csv_same_as_reference(np.array([[0.1, -0.0], [single.smallest_subnormal, single.max]], dtype=np.float32))
    csv_same_as_reference(np.arange(-6, 6, dtype=np.int64).reshape(3, 4) * 2**60)
    csv_same_as_reference(np.eye(3, dtype=bool))
    csv_same_as_reference(np.zeros((0, 3)), header=["x", "y", "z"])
    csv_same_as_reference(np.zeros((2, 0)))
    csv_same_as_reference([[1.0, 2.0], [math.nan, 3.0]])


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


if given is not None:
    PROPERTY = settings(database=None, derandomize=True, deadline=None)
    FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS + NON_FINITE)
    INTS = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 2**64, 3**90, -(2**200)])
    TEXT = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x7f", "\u00e9", "\u2028", "\U0001f600"])
    NUMPY = (
        st.builds(np.float64, FLOATS)
        | st.builds(np.float32, st.floats(width=32))
        | st.builds(np.int64, st.integers(-(2**63), 2**63 - 1))
        | st.builds(np.bool_, st.booleans())
    )
    SIMPLE = st.booleans() | INTS | FLOATS | TEXT | NUMPY

    def sized_lists(items):
        """Lists of 0, 8 or 9 items: empty, the longest one-line list, and one past it."""
        return st.sampled_from([0, 8, 9]).flatmap(lambda n: st.lists(items, min_size=n, max_size=n))

    VALUES = st.recursive(
        st.none() | SIMPLE | sized_lists(SIMPLE),
        lambda inner: sized_lists(inner)
        | sized_lists(inner).map(tuple)
        | st.dictionaries(st.text(max_size=3) | st.integers(), inner, max_size=3),
        max_leaves=24,
    )
    CSV_ROWS = arrays(
        st.sampled_from([np.float64, np.float32, np.int64, np.uint64, np.int8, np.bool_]),
        array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
    )
    HEADERS = st.none() | st.lists(st.text(max_size=4) | st.integers(), max_size=6)

    @PROPERTY
    @given(VALUES)
    def test_dumps_matches_the_reference_emitter_on_nested_values(value):
        same_as_reference(value)

    @PROPERTY
    @given(CSV_ROWS, HEADERS)
    def test_write_csv_matches_the_reference_writer_on_arrays(rows, header):
        csv_same_as_reference(rows, header)
