"""File formats: deterministic JSON, CSV export, and the complex-literal grammar.

JSON artifacts must be byte-identical across runs with the same inputs, so the
emitter here formats every float with 17 significant digits and preserves the
(deliberate) insertion order of keys.  Complex numbers serialize as [re, im]
pairs; matrices as {"rows", "cols", "entries"} in row-major order.  The
loaders check each rule of these formats in one place: :func:`_numbers` the
JSON numbers and :func:`_pairs` the [re, im] pairs, for every file type.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import sys

import numpy as np

from .algebra import HadamardMatrix
from .errors import InvalidArgumentError
from .infotheory import Ensemble, validated_state
from .sic import hadamard_sic_family

FORMAT_VERSION = "1"
_FLOAT = "%.17g"  # the text of format(x, ".17g"), at a lower cost per call


def format_float(x):
    """``x`` at 17 significant digits; a NaN or an infinity raises InvalidArgumentError."""
    x = float(x)
    if not math.isfinite(x):
        raise InvalidArgumentError("cannot serialize non-finite float")
    return _FLOAT % x


_quote = json.encoder.encode_basestring_ascii  # the text json.dumps gives a str
# simple scalars of exactly these types skip the isinstance chain of _scalar
_EXACT = {
    float: format_float,
    int: str,
    bool: lambda x: "true" if x else "false",
    str: _quote,
}
_SIMPLE = (bool, int, float, str, np.integer, np.floating)


def _emit(obj, pad, step):
    """The JSON text of ``obj``, whose lines open with ``pad``; ``step`` indents each level below."""
    exact = _EXACT.get(type(obj))
    if exact is not None:
        return exact(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + step
        items = [_quote(str(key)) + ": " + _emit(value, inner, step) for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # at most 8 numbers, bools or strings go on one line (None and an np.bool_ are none of them)
        if len(obj) <= 8:
            texts = []
            for x in obj:
                exact = _EXACT.get(type(x))
                if exact is None:
                    if not isinstance(x, _SIMPLE):
                        break
                    exact = _scalar
                texts.append(exact(x))
            else:
                return "[" + ", ".join(texts) + "]"
        inner = pad + step
        return "[" + inner + ("," + inner).join([_emit(value, inner, step) for value in obj]) + pad + "]"
    return _scalar(obj)


def _scalar(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format_float(x)
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    raise InvalidArgumentError(f"cannot serialize value of type {type(x).__name__}")


def dumps(obj, indent=2):
    """Deterministic JSON text: insertion-ordered keys, floats at 17 digits."""
    return _emit(obj, "\n", " " * indent) + "\n"


def dump_json(obj, path):
    text = dumps(obj)  # a value that cannot be serialized leaves no truncated file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path, rows, header=None):
    """Write the 2-D int, bool or float array ``rows``, floats at 17 digits and bools as 0/1.

    When a value repeats, each distinct value is formatted once and the rows
    are joined from those texts; floats are told apart by their 64-bit
    pattern, so ``-0.0`` keeps its own text.  The text is formatted before
    the file is opened, so a non-finite float leaves no file.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.dtype.kind not in "biuf":
        raise InvalidArgumentError("CSV rows must be a 2-D array of numbers")
    n, k = rows.shape
    if rows.dtype.kind == "f":
        values = rows.astype(np.float64, copy=False).ravel()
        if not np.isfinite(values).all():
            raise InvalidArgumentError("cannot serialize non-finite float")
        bits, cell = values.view(np.uint64), _FLOAT
    else:
        values = (rows.astype(np.int64) if rows.dtype.kind == "b" else rows).ravel()
        bits, cell = values, "%d"
    ordered = np.sort(bits)
    if (ordered[1:] == ordered[:-1]).any():
        distinct, inverse = np.unique(bits, return_inverse=True)
        distinct = distinct.view(values.dtype)
        # one % operation formats the distinct values; no text it makes holds a comma
        texts = (((cell + ",") * distinct.size) % tuple(distinct.tolist())).split(",")
        cells = np.array(texts, dtype=object)[inverse.reshape(n, k)].tolist()
        body = "".join([",".join(row) + "\n" for row in cells])
    else:
        body = ((",".join([cell] * k) + "\n") * n) % tuple(values.tolist())
    head = "" if header is None else ",".join(str(h) for h in header) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.write(body)


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _field(data, key, where, kind):
    """``data[key]`` of the JSON object ``where``, of type ``kind`` and never a bool; else an InvalidArgumentError."""
    if not isinstance(data, dict):
        raise InvalidArgumentError(f"{where} must be a JSON object")
    value = data.get(key)  # a missing key reads as None, which is of no kind asked for
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InvalidArgumentError(f"{where}.{key} is missing or not of type {kind.__name__}")
    return value


def _numbers(values, where):
    """The list ``values`` as a float array; each must be an int or a float, never a bool, within the float range.

    The range is that of the Python numbers: an int just past the largest
    float is refused, though it converts to that float.  A converted maximum
    below the largest float settles it; only at the edge are the Python
    numbers compared.
    """
    limit = sys.float_info.max
    if set(map(type, values)) <= {int, float}:
        try:
            array = np.array(values, dtype=np.float64)
        except OverflowError:  # an int past the range of a float
            pass
        else:
            if np.abs(array).max(initial=0.0) < limit or all(map(limit.__ge__, map(abs, values))):
                return array
    raise InvalidArgumentError(f"{where} must hold finite numbers")


def _pairs(pairs, where):
    """The list ``pairs`` of [re, im] pairs as a complex array: the pair shapes are checked, then the numbers."""
    if not (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}):
        raise InvalidArgumentError(f"{where} must be a [re, im] pair")
    return _numbers([x for pair in pairs for x in pair], where).view(np.complex128)


def matrix_to_dict(arr):
    arr = np.asarray(arr, dtype=np.complex128)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "entries": [complex_to_pair(z) for z in arr.ravel()],
    }


def matrix_from_dict(data, where="matrix"):
    rows, cols = _field(data, "rows", where, int), _field(data, "cols", where, int)
    entries = _pairs(_field(data, "entries", where, list), f"{where}.entries")
    if rows < 1 or cols < 1 or entries.size != rows * cols:
        raise InvalidArgumentError(f"{where}: entry count does not match its shape")
    return entries.reshape(rows, cols)


def hadamard_to_dict(h):
    data = matrix_to_dict(h.matrix)
    data["is_real"] = bool(h.is_real)
    if h.is_real:
        data["signs"] = [int(s) for s in h.signs.ravel()]
    return data


def hadamard_from_dict(data, where="hadamard"):
    """The Hadamard matrix of ``data``; its optional ``is_real`` and ``signs`` must match the matrix."""
    h = HadamardMatrix.from_array(matrix_from_dict(data, where))
    real = h.is_real
    flag = data.get("is_real", real)
    if type(flag) is not bool or flag != real:
        raise InvalidArgumentError(f"{where}.is_real must be the JSON bool {'true' if real else 'false'}")
    if "signs" in data:
        signs = data["signs"]
        if not real:
            raise InvalidArgumentError(f"{where}.signs is given for a matrix that is not real")
        if type(signs) is not list or not set(map(type, signs)) <= {int} or signs != h.signs.ravel().tolist():
            raise InvalidArgumentError(f"{where}.signs must list the +-1 entries of the matrix row by row")
    return h


def family_to_dict(fam):
    return {
        "d": fam.d,
        "v": complex_to_pair(fam.v),
        "admissible": bool(fam.admissible),
        "hadamard": hadamard_to_dict(fam.hadamard),
        "vectors": [
            {"j": idx // fam.d, "k": idx % fam.d, "coords": [complex_to_pair(z) for z in row]}
            for idx, row in enumerate(fam.raw)
        ],
    }


def family_from_dict(data):
    """The family that ``data`` describes, rebuilt from its Hadamard matrix and ``v``.

    The stored vectors must agree with the construction.  Their faults are
    named in this order: labels and field types in file order, then the pairs
    and numbers of the first vector at fault, then vector lengths and agreement.
    """
    hadamard = hadamard_from_dict(_field(data, "hadamard", "family", dict), "family.hadamard")
    fam = hadamard_sic_family(hadamard, _pairs([_field(data, "v", "family", list)], "family.v")[0])
    stored = _field(data, "vectors", "family", list)
    if len(stored) != fam.k:
        raise InvalidArgumentError(f"family.vectors holds {len(stored)} vectors, not d^2 = {fam.k}")
    coords = []
    for idx, vec in enumerate(stored):
        where = f"family.vectors[{idx}]"
        if (_field(vec, "j", where, int), _field(vec, "k", where, int)) != divmod(idx, fam.d):
            raise InvalidArgumentError("vector labels are out of order")
        coords.append(_field(vec, "coords", where, list))
    try:
        values = _pairs([pair for vec in coords for pair in vec], "family.vectors")
    except InvalidArgumentError:
        for idx, vec in enumerate(coords):  # only to name the first vector at fault
            _pairs(vec, f"family.vectors[{idx}].coords")
        raise
    agree = [len(vec) == fam.d for vec in coords]
    if all(agree):  # every vector has d coordinates, so compare row by row
        agree = np.abs(values.reshape(fam.raw.shape) - fam.raw).max(axis=1) <= 1e-12
    if not np.all(agree):
        j, k = divmod(int(np.argmin(agree)), fam.d)
        raise InvalidArgumentError(f"stored vector ({j},{k}) disagrees with construction")
    return fam


def load_family(path):
    return family_from_dict(load_json(path))


def save_family(fam, path):
    dump_json(family_to_dict(fam), path)


def state_to_dict(state):
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim == 1:
        return {"kind": "pure", "coords": [complex_to_pair(z) for z in state]}
    return {"kind": "mixed", "matrix": matrix_to_dict(state)}


def state_from_dict(data, where="state"):
    """The state of ``data``, under the rule of :func:`validated_state`: a unit vector or a density matrix."""
    kind = _field(data, "kind", where, str)
    if kind == "pure":
        return validated_state(_pairs(_field(data, "coords", where, list), f"{where}.coords"))
    if kind == "mixed":
        return validated_state(matrix_from_dict(_field(data, "matrix", where, dict), f"{where}.matrix"))
    raise InvalidArgumentError(f"{where}: unknown state kind {kind!r}")


def ensemble_to_dict(ensemble):
    return {
        "weights": [float(w) for w in ensemble.weights],
        "states": [state_to_dict(s) for s in ensemble.states],
    }


def ensemble_from_dict(data):
    weights = _numbers(_field(data, "weights", "ensemble", list), "ensemble.weights")
    states = _field(data, "states", "ensemble", list)
    return Ensemble(
        weights=weights,
        states=tuple(state_from_dict(s, f"ensemble.states[{i}]") for i, s in enumerate(states)),
    )


_TOKEN = re.compile(r"\s*(sqrt3|\d+\.\d*|\.\d+|\d+|[ij()+\-*/])")


def parse_complex(text):
    """Parse a complex literal such as ``-1+2i``, ``(1+sqrt3)(1+i)/2`` or ``0``.

    Grammar: +, -, *, / and parentheses over decimal numbers, the imaginary
    unit ``i`` (``j`` accepted), and the token ``sqrt3``; adjacency means
    multiplication, so the admissible d=2 and d=3 parameters can be written
    without decimal drift.
    """
    tokens = []
    pos = 0
    src = text.strip().lower()
    if not src:
        raise InvalidArgumentError("empty complex literal")
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise InvalidArgumentError(f"bad complex literal {text!r} at position {pos}")
        tokens.append(m.group(1))
        pos = m.end()

    state = {"i": 0}

    def peek():
        return tokens[state["i"]] if state["i"] < len(tokens) else None

    def advance():
        state["i"] += 1

    def parse_expr():
        value = parse_term()
        while peek() in ("+", "-"):
            op = peek()
            advance()
            rhs = parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term():
        value = parse_factor()
        while True:
            nxt = peek()
            if nxt in ("*", "/"):
                advance()
                rhs = parse_factor()
                if nxt == "/" and rhs == 0:
                    raise InvalidArgumentError(f"division by zero in complex literal {text!r}")
                value = value * rhs if nxt == "*" else value / rhs
            elif nxt is not None and nxt not in ("+", "-", ")", "*", "/"):
                value = value * parse_factor()  # implicit multiplication
            else:
                return value

    def parse_factor():
        sign = 1.0
        while peek() in ("+", "-"):
            if peek() == "-":
                sign = -sign
            advance()
        return sign * parse_atom()

    def parse_atom():
        tok = peek()
        if tok is None:
            raise InvalidArgumentError(f"truncated complex literal {text!r}")
        if tok == "(":
            advance()
            value = parse_expr()
            if peek() != ")":
                raise InvalidArgumentError(f"unbalanced parentheses in {text!r}")
            advance()
            return value
        if tok in ("i", "j"):
            advance()
            return 1j
        if tok == "sqrt3":
            value = complex(math.sqrt(3.0))
        elif tok[0] in "0123456789.":
            value = complex(float(tok))
        else:
            raise InvalidArgumentError(f"unexpected {tok!r} in complex literal {text!r}")
        advance()
        # a trailing i/j or sqrt3 binds tightly: 2i, sqrt3i
        while peek() in ("i", "j", "sqrt3"):
            value = value * (1j if peek() in ("i", "j") else math.sqrt(3.0))
            advance()
        return value

    try:
        value = parse_expr()
    except RecursionError:
        raise InvalidArgumentError(f"complex literal {text!r} is nested too deeply") from None
    if state["i"] != len(tokens):
        raise InvalidArgumentError(f"trailing input in complex literal {text!r}")
    if not cmath.isfinite(value):
        raise InvalidArgumentError(f"complex literal {text!r} is not finite")
    return value

