"""The ``--json`` writer of the CLI is ``json.dumps(indent=2, sort_keys=True)``.

``cli._dumps`` writes each container with one join instead of the standard
library's pure-Python indented encoder.  It is checked against the standard
library on random nested values, and every ``--json`` golden is shown to be
in the standard library's indented form.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncsym.cli import _dumps

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())

TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x07\x1f\n\t\x7fé—\U0001f600'), st.characters())
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(),
    st.integers(min_value=10**20) | st.integers(max_value=-(10**20)),
    st.floats(),
    TEXT,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
    )


VALUES = st.recursive(LEAVES, _containers, max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(VALUES)
@example([[], {}, ()])
@example({"a": [], "b": {}, 'q"\\\x01é': ()})
@example({3: [1.5, -0.0], -2: True, 10: None, 2**70: -(2**70)})
def test_writer_equals_the_stdlib_indented_form(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{(1, 2): 1}, [Fraction(1, 2)], {1: 2, "a": 3}])
def test_writer_rejects_what_the_stdlib_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _dumps(value)


def test_json_goldens_are_in_the_stdlib_indented_form():
    cases = [case for case in GOLDEN if "--json" in case["argv"]]
    assert len(cases) == 27
    for case in cases:
        out = case["stdout"]
        if not out:  # a request that exits 2 prints nothing on stdout
            assert case["exit_code"] == 2
            continue
        value = json.loads(out)
        assert out == json.dumps(value, indent=2, sort_keys=True) + "\n"
        assert out == _dumps(value) + "\n"
