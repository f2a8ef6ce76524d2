import json
import math
import os
import statistics
import tempfile
import time

import numpy as np
import pytest

from hoggar import InvalidArgumentError, hoggar_family, serialize, tetrahedral_family, uniform_ensemble
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


def per_row_write_csv(path, rows, header=None):
    """The writer before distinct values were formatted once: one % operation formats each row."""
    rows = np.asarray(rows)
    lines = [] if header is None else [",".join(str(h) for h in header) + "\n"]
    if not np.isfinite(rows).all():
        raise InvalidArgumentError("cannot serialize non-finite float")
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    lines.extend(line % tuple(row) for row in rows.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


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
        [1, 2.5, None],  # None is not simple, wherever it stands
        [None],
        [1, "a", np.bool_(True)],
        [np.float32(0.1), np.float64(-0.0), np.int8(-3), np.uint64(2**64 - 1), np.int64(7), 2.5, True, "x"],
        [np.float16(0.5)] * 9,  # one past the longest one-line list
        (1, 2.5, "t"),
        ((1, 2), (3.5,), ()),
        [(1, None), [np.bool_(False)], 0.25],
        [math.nan, None],  # both forms raise the error of the first item
        [1j, math.nan],
        [math.nan, 1j],
        [1.0, [math.inf]],
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


@pytest.mark.parametrize(
    "rows",
    [
        np.round(np.random.default_rng(3).standard_normal((16, 9)), 1),  # values repeat
        np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 1.0]]),  # one pattern each for 0 and -0
        np.array([[0.1, -0.0, 0.0, 0.1], [1e-45, 0.0, 0.1, -0.0]], dtype=np.float32),
        np.array([[2**64 - 1, 0, 2**64 - 1], [5, 5, 2**63]], dtype=np.uint64),
        np.array([[-3, 0, -3], [127, -128, 0]], dtype=np.int8),
        np.array([[True, False, True], [True, True, True]]),
        np.random.default_rng(4).standard_normal((5, 7)),  # every value distinct
        np.arange(12, dtype=np.int64).reshape(3, 4),
        np.zeros((0, 4)),
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((3, 0)),
        np.zeros((3, 0), dtype=np.uint64),
        np.zeros((1, 1)),
    ],
    ids=lambda rows: f"{rows.dtype}-{rows.shape[0]}x{rows.shape[1]}",
)
def test_write_csv_distinct_values_match_the_reference_writer(rows):
    csv_same_as_reference(rows)
    csv_same_as_reference(rows, header=[f"c{i}" for i in range(rows.shape[1])])


def test_all_distinct_floats_are_not_written_slower_than_row_by_row(tmp_path):
    # the distinct-value path gains nothing when no value repeats; it must not cost either
    rows = np.random.default_rng(5).standard_normal((64, 63))
    assert np.unique(rows).size == rows.size
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    times = {write_csv: [], per_row_write_csv: []}
    for i in range(100):
        for writer, path in ((write_csv, new), (per_row_write_csv, old))[:: 1 if i % 2 else -1]:
            start = time.perf_counter()
            writer(path, rows)
            times[writer].append(time.perf_counter() - start)
    assert read(new) == read(old)
    fast, slow = (statistics.median(times[w]) for w in (write_csv, per_row_write_csv))
    # medians of interleaved runs; 5% allows for timer noise (the ratio reads 0.96-1.01 on a 2-vCPU VM)
    assert fast <= 1.05 * slow, f"write_csv {fast * 1e3:.2f} ms against {slow * 1e3:.2f} ms row by row"


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


DELETE = object()


def tetra_edited(*edits):
    """The tetrahedral family dict with each ``(path, value)`` edit made; DELETE removes the item."""
    data = family_to_dict(tetrahedral_family())
    for path, value in edits:
        *head, last = path
        target = data
        for key in head:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    return data


def case(name, message, *edits):
    return pytest.param(edits, message, id=name)


# Each malformed family with the message the per-field validator gave before
# the vectorised check existed.
MALFORMED_FAMILIES = [
    case("family-v-scalar", "family.v is missing or not of type list", (["v"], 5)),
    case("family-v-nan", "family.v must hold finite numbers", (["v"], [math.nan, 0.0])),
    case("family-v-huge", "|v| = 1e+200 is out of range: it must be below 2**500", (["v"], [1e200, 0.0])),
    case("family-no-hadamard", "family.hadamard is missing or not of type dict", (["hadamard"], DELETE)),
    case(
        "hadamard-entry-short", "family.hadamard.entries must be a [re, im] pair",
        (["hadamard", "entries", 1], [1.0]),
    ),
    case(
        "hadamard-entry-text", "family.hadamard.entries must hold finite numbers",
        (["hadamard", "entries", 1], ["1", 0]),
    ),
    case(
        "hadamard-entries-short", "family.hadamard: entry count does not match its shape",
        (["hadamard", "entries"], [[1, 0]] * 3),
    ),
    case(
        "hadamard-not-hadamard", "matrix is not Hadamard within 1e-12 (deviation 3.000e+00)",
        (["hadamard", "entries", 1], [2, 0]),
    ),
    case("hadamard-rows-float", "family.hadamard.rows is missing or not of type int", (["hadamard", "rows"], 2.0)),
    case("family-vectors-short", "family.vectors holds 3 vectors, not d^2 = 4", (["vectors", 3], DELETE)),
    case("family-vectors-object", "family.vectors is missing or not of type list", (["vectors"], {})),
    case("vector-not-object", "family.vectors[1] must be a JSON object", (["vectors", 1], [0, 1])),
    case("vector-no-j", "family.vectors[1].j is missing or not of type int", (["vectors", 1, "j"], DELETE)),
    case("vector-label-float", "family.vectors[1].k is missing or not of type int", (["vectors", 1, "k"], 1.0)),
    case("vector-labels-swapped", "vector labels are out of order", (["vectors", 1, "k"], 0)),
    case(
        "vector-no-coords", "family.vectors[2].coords is missing or not of type list",
        (["vectors", 2, "coords"], DELETE),
    ),
    case(
        "vector-coords-tuple", "family.vectors[2].coords is missing or not of type list",
        (["vectors", 2, "coords"], ((1, 0), (1, 0))),
    ),
    case(
        "vector-coords-short", "stored vector (1,0) disagrees with construction",
        (["vectors", 2, "coords", 1], DELETE),
    ),
    case(
        "vector-pair-long", "family.vectors[2].coords must be a [re, im] pair",
        (["vectors", 2, "coords", 0], [1, 0, 0]),
    ),
    case(
        "vector-pair-none", "family.vectors[2].coords must hold finite numbers",
        (["vectors", 2, "coords", 0], [None, 0]),
    ),
    case(
        "vector-pair-inf", "family.vectors[2].coords must hold finite numbers",
        (["vectors", 2, "coords", 0], [math.inf, 0]),
    ),
    case(
        "vector-pair-huge-int", "family.vectors[2].coords must hold finite numbers",
        (["vectors", 2, "coords", 0], [10**400, 0]),
    ),
    case(
        "vector-tampered", "stored vector (1,0) disagrees with construction",
        (["vectors", 2, "coords", 0], [9.0, 0.0]),
    ),
]
# JSON booleans, which Python reads as the ints 0 and 1, are refused where a number or a label stands
BOOLEAN_FAMILIES = [
    case(
        "labels-false", "family.vectors[0].j is missing or not of type int",
        (["vectors", 0, "j"], False), (["vectors", 0, "k"], False),
    ),
    case(
        "hadamard-entry-true", "family.hadamard.entries must hold finite numbers",
        (["hadamard", "entries", 0], [True, 0]),
    ),
    case(
        "coordinate-true-false", "family.vectors[1].coords must hold finite numbers",
        (["vectors", 1, "coords", 1], [True, False]),
    ),
    case("v-bool", "family.v must hold finite numbers", (["v"], [False, True])),
]


@pytest.mark.parametrize("edits, message", MALFORMED_FAMILIES + BOOLEAN_FAMILIES)
def test_malformed_family_raises_the_validator_message(edits, message):
    with pytest.raises(InvalidArgumentError) as raised:
        family_from_dict(tetra_edited(*edits))
    assert str(raised.value) == message


def test_family_that_is_no_object_is_refused():
    with pytest.raises(InvalidArgumentError) as raised:
        family_from_dict([family_to_dict(tetrahedral_family())])
    assert str(raised.value) == "family must be a JSON object"


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[1, 0], [True, 0]], "matrix.entries must hold finite numbers"),
        ([[1, 0], [1, 0, 0]], "matrix.entries must be a [re, im] pair"),
        ([[1, 0], (1, 0)], None),  # a tuple is a pair too
        ([[1, 0], [1.7976931348623157e308, 0]], None),  # the largest float, accepted by the validator
        ([[1, 0], [2**1023, 0]], None),
    ],
    ids=["bool", "long-pair", "tuple", "largest-float", "big-int"],
)
def test_matrix_entries_the_vectorised_check_refuses_go_to_the_validator(entries, message):
    data = {"rows": 1, "cols": 2, "entries": entries}
    if message is None:
        assert np.array_equal(matrix_from_dict(data), [[1, complex(entries[1][0])]])
        return
    with pytest.raises(InvalidArgumentError) as raised:
        matrix_from_dict(data)
    assert str(raised.value) == message


def test_matrix_size_must_not_be_a_bool():
    with pytest.raises(InvalidArgumentError) as raised:
        matrix_from_dict({"rows": True, "cols": 1, "entries": [[1, 0]]})
    assert str(raised.value) == "matrix.rows is missing or not of type int"


def test_well_formed_families_pass_the_vectorised_check(fourier3_families, permuted_sylvester_family, monkeypatch):
    def no_validator(*args):
        raise AssertionError("the per-field validator ran on a well-formed family")

    checked = []

    def only_v(pair, where="value"):
        checked.append(where)
        return pair_to_complex(pair, where)

    pair_to_complex = serialize.pair_to_complex
    monkeypatch.setattr(serialize, "_check_vectors", no_validator)
    monkeypatch.setattr(serialize, "pair_to_complex", only_v)
    for fam in [tetrahedral_family(), *fourier3_families, hoggar_family(), permuted_sylvester_family]:
        data = json.loads(dumps(family_to_dict(fam)))  # as read from the file
        back = family_from_dict(data)
        assert back.d == fam.d and back.v == fam.v and back.admissible == fam.admissible
        assert np.array_equal(back.hadamard.matrix, fam.hadamard.matrix)
        assert np.array_equal(back.raw, fam.raw)
        assert dumps(family_to_dict(back)) == dumps(family_to_dict(fam))
    assert set(checked) == {"family.v"}  # only the parameter pair goes through the per-pair check


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
