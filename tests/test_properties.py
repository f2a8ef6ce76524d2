"""Property tests: malformed literals and JSON raise InvalidArgumentError, never another error."""

import cmath
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from hoggar import Ensemble, InvalidArgumentError  # noqa: E402
from hoggar.serialize import ensemble_from_dict, parse_complex, state_from_dict  # noqa: E402

# Hypothesis writes its example database and a cache of the constants in local
# source files under .hypothesis/ in the working directory: turn the database off
# and move the cache out of the checkout, before collection fills it
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "hoggar-hypothesis"))
PROPERTY = settings(database=None, derandomize=True, deadline=None)

# the parse_complex alphabet, whole tokens, and a few characters outside it
TOKENS = [*"0123456789.ij()+-*/ ", "sqrt3", "12", "0.5", "x", "e"]
LITERALS = st.text(alphabet="0123456789.ijIJsqrt()+-*/ x") | st.lists(st.sampled_from(TOKENS)).map("".join)

FIELDS = ["kind", "coords", "matrix", "rows", "cols", "entries", "weights", "states"]
KEYS = st.sampled_from(FIELDS) | st.text(max_size=4)
WORDS = st.sampled_from(["pure", "mixed"]) | st.text(max_size=4)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | WORDS
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=24,
)
# well-formed shells around arbitrary values reach past the first field check
STATES = JSON | st.fixed_dictionaries({"kind": st.just("pure"), "coords": JSON}) | st.fixed_dictionaries(
    {"kind": st.just("mixed"), "matrix": st.fixed_dictionaries({"rows": JSON, "cols": JSON, "entries": JSON})}
)
ENSEMBLES = JSON | st.fixed_dictionaries({"weights": JSON, "states": st.lists(STATES, max_size=3)})


@PROPERTY
@given(LITERALS)
def test_parse_complex_gives_a_finite_complex_or_refuses(text):
    try:
        value = parse_complex(text)
    except InvalidArgumentError:
        return
    assert isinstance(value, complex) and cmath.isfinite(value)


@PROPERTY
@given(STATES)
def test_state_from_dict_gives_a_complex_array_or_refuses(data):
    try:
        state = state_from_dict(data)
    except InvalidArgumentError:
        return
    assert isinstance(state, np.ndarray) and state.dtype == np.complex128 and state.ndim in (1, 2)


@PROPERTY
@given(ENSEMBLES)
def test_ensemble_from_dict_gives_an_ensemble_or_refuses(data):
    try:
        ensemble = ensemble_from_dict(data)
    except InvalidArgumentError:
        return
    assert isinstance(ensemble, Ensemble) and ensemble.size == len(data["states"])
