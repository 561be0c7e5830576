"""Malformed spec files: loading either succeeds or raises a documented usage error."""

import copy
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chronosynth.automaton import automaton_from_json  # noqa: E402
from chronosynth.cli import _BAD_INPUT  # noqa: E402

VALID = {
    "states": ["q0", "q1"],
    "sigma_in": ["0", "1"],
    "sigma_out": ["0"],
    "initial": "q0",
    "priority": {"q0": 0, "q1": 1},
    "convention": "max_even",
    "transitions": [
        {"from": q, "in": a, "out": "0", "to": t}
        for q, a, t in (("q0", "0", "q0"), ("q0", "1", "q1"), ("q1", "0", "q1"), ("q1", "1", "q0"))
    ],
}

ABSENT = object()  # the key is left out

# names the spec uses, so that replaced values still often refer to each other
names = st.sampled_from(["q0", "q1", "q2", "0", "1", "0,1", "max_even", "min_even", "__sink__"])
scalars = st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | names | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(names, inner, max_size=4),
    max_leaves=10,
)
replacements = (
    st.just(ABSENT)
    | json_values
    | st.lists(names, max_size=3)
    | st.dictionaries(names, st.integers(-1, 4) | st.floats(), max_size=3)
)

SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def _loads_or_raises_a_usage_error(spec):
    try:
        automaton_from_json(json.dumps(spec))
    except _BAD_INPUT:
        pass


def _replace(mapping, key, value):
    if value is ABSENT:
        del mapping[key]
    else:
        mapping[key] = value


def test_valid_template_loads():
    a = automaton_from_json(json.dumps(VALID))
    assert a.sigma_in == ("0", "1") and a.initial == "q0"


@pytest.mark.parametrize("key", sorted(VALID))
@SETTINGS
@given(value=replacements)
def test_spec_field_loads_or_raises_a_usage_error(key, value):
    spec = copy.deepcopy(VALID)
    _replace(spec, key, value)
    _loads_or_raises_a_usage_error(spec)


@pytest.mark.parametrize("key", ["from", "in", "out", "to"])
@SETTINGS
@given(index=st.integers(0, len(VALID["transitions"]) - 1), value=replacements)
def test_transition_field_loads_or_raises_a_usage_error(key, index, value):
    spec = copy.deepcopy(VALID)
    _replace(spec["transitions"][index], key, value)
    _loads_or_raises_a_usage_error(spec)


@pytest.mark.parametrize("state", ["q0", "q1"])
@SETTINGS
@given(value=st.floats() | replacements)
@example(value=float("inf")).via("json.loads reads Infinity")
@example(value=float("nan"))
@example(value=-1)
@example(value=1.7)
@example(value=True)
@example(value="2")
def test_priority_value_loads_or_raises_a_usage_error(state, value):
    spec = copy.deepcopy(VALID)
    _replace(spec["priority"], state, value)
    _loads_or_raises_a_usage_error(spec)
