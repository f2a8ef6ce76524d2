"""File formats: deterministic JSON, CSV export, and the complex-literal grammar.

JSON artifacts must be byte-identical across runs with the same inputs, so the
emitter here formats every float with 17 significant digits and preserves the
(deliberate) insertion order of keys.  Complex numbers serialize as [re, im]
pairs; matrices as {"rows", "cols", "entries"} in row-major order.
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
from .infotheory import Ensemble
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
    if key not in data or not isinstance(data[key], kind) or isinstance(data[key], bool):
        raise InvalidArgumentError(f"{where}.{key} is missing or not of type {kind.__name__}")
    return data[key]


def _finite(x, where):
    if not (isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max):
        raise InvalidArgumentError(f"{where} must hold finite numbers")
    return float(x)


def pair_to_complex(pair, where="value"):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise InvalidArgumentError(f"{where} must be a [re, im] pair")
    return complex(_finite(pair[0], where), _finite(pair[1], where))


def _pair_array(pairs):
    """The list ``pairs`` as a complex array, or None unless one vectorised check passes.

    The check: every item is a list or tuple of two JSON numbers (an int or a
    float, never a bool) below the largest float in magnitude.  None sends
    the caller to :func:`pair_to_complex` on each item, which names the fault.
    """
    if not {type(p) for p in pairs} <= {list, tuple}:
        return None
    parts = np.array(pairs, dtype=object)
    if parts.shape != (len(pairs), 2) or not set(map(type, parts.ravel().tolist())) <= {int, float}:
        return None
    try:
        parts = parts.astype(np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    if not (np.abs(parts) < sys.float_info.max).all():
        return None
    return parts.view(np.complex128).ravel()


def matrix_to_dict(arr):
    arr = np.asarray(arr, dtype=np.complex128)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "entries": [complex_to_pair(z) for z in arr.ravel()],
    }


def matrix_from_dict(data, where="matrix"):
    rows, cols = _field(data, "rows", where, int), _field(data, "cols", where, int)
    pairs = _field(data, "entries", where, list)
    entries = _pair_array(pairs)
    if entries is None:
        entries = np.array([pair_to_complex(p, f"{where}.entries") for p in pairs], dtype=np.complex128)
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
    matrix = matrix_from_dict(data, where)
    h = HadamardMatrix.from_array(matrix)
    if data.get("is_real") and not h.is_real:
        raise InvalidArgumentError(f"{where}: matrix flagged real does not have +-1 entries")
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


def _vectors_agree(stored, fam):
    """Whether ``stored`` holds the family's vectors, in one vectorised check.

    Every item must be a JSON object whose int labels ``j``, ``k`` (never
    bools) follow the row order and whose ``coords`` list holds d pairs that
    :func:`_pair_array` accepts, within 1e-12 of the construction.
    """
    if {type(vec) for vec in stored} != {dict}:
        return False
    try:
        labels = [(vec["j"], vec["k"]) for vec in stored]
        coords = [vec["coords"] for vec in stored]
    except KeyError:
        return False
    if {type(x) for label in labels for x in label} != {int} or labels != [divmod(i, fam.d) for i in range(fam.k)]:
        return False
    if {type(c) for c in coords} != {list} or {len(c) for c in coords} != {fam.d}:
        return False
    values = _pair_array([p for c in coords for p in c])
    return values is not None and np.abs(values.reshape(fam.raw.shape) - fam.raw).max() <= 1e-12


def family_from_dict(data):
    """The family that ``data`` describes, rebuilt from its Hadamard matrix and ``v``.

    The stored vectors must agree with the construction.  A list that fails
    the vectorised check of :func:`_vectors_agree` goes to
    :func:`_check_vectors`, which names the first fault.
    """
    hadamard = hadamard_from_dict(_field(data, "hadamard", "family", dict), "family.hadamard")
    fam = hadamard_sic_family(hadamard, pair_to_complex(_field(data, "v", "family", list), "family.v"))
    stored = _field(data, "vectors", "family", list)
    if len(stored) != fam.k:
        raise InvalidArgumentError(f"family.vectors holds {len(stored)} vectors, not d^2 = {fam.k}")
    if not _vectors_agree(stored, fam):
        _check_vectors(stored, fam)
    return fam


def _check_vectors(stored, fam):
    """Check ``stored`` vector by vector against ``fam``; the first fault raises InvalidArgumentError naming it."""
    for idx, (vec, raw) in enumerate(zip(stored, fam.raw)):
        j, k = divmod(idx, fam.d)
        where = f"family.vectors[{idx}]"
        if _field(vec, "j", where, int) != j or _field(vec, "k", where, int) != k:
            raise InvalidArgumentError("vector labels are out of order")
        coords = [pair_to_complex(p, f"{where}.coords") for p in _field(vec, "coords", where, list)]
        if len(coords) != fam.d or np.abs(np.array(coords) - raw).max() > 1e-12:
            raise InvalidArgumentError(f"stored vector ({j},{k}) disagrees with construction")


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
    kind = _field(data, "kind", where, str)
    if kind == "pure":
        coords = _field(data, "coords", where, list)
        return np.array([pair_to_complex(p, f"{where}.coords") for p in coords], dtype=np.complex128)
    if kind == "mixed":
        return matrix_from_dict(_field(data, "matrix", where, dict), f"{where}.matrix")
    raise InvalidArgumentError(f"{where}: unknown state kind {kind!r}")


def ensemble_to_dict(ensemble):
    return {
        "weights": [float(w) for w in ensemble.weights],
        "states": [state_to_dict(s) for s in ensemble.states],
    }


def ensemble_from_dict(data):
    weights = [_finite(w, "ensemble.weights") for w in _field(data, "weights", "ensemble", list)]
    states = _field(data, "states", "ensemble", list)
    return Ensemble(
        weights=np.array(weights),
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

