"""One text renderer and one JSON builder behind every combination type.

``parsing.format_terms`` and ``parsing.terms_json`` pick their key rules from
the type of the keys; the ten per-type rendering names are aliases of them,
and ``str`` of every combination is ``format_terms``.  The round trips reach
degree 10 and above, where labels and parts have more than one digit, so the
printed keys must not read back in the digit-string form (``x{13}`` for
``x{1,3}``); keys into singletons that would, print with a trailing comma
(``x{15,}``).
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import ncsym
from ncsym import (
    IntegerPartition,
    NCSymExpr,
    NCTensorExpr,
    SetPartition,
    SpeciesElement,
    SpeciesTensor,
    SymExpr,
    format_terms,
    parse_ncsym,
    parse_species,
    parse_sym,
    terms_json,
)
from ncsym import parsing

# No shrink phase, as in test_linearity: a renderer fault fails every example.
ROUND_TRIP = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
COEFFS = st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(bool)
BASES = st.sampled_from("mpex")


@st.composite
def partitions_of(draw, elements):
    """A set partition of ``elements``, drawn as a restricted growth string."""
    blocks = []
    for x in elements:
        i = draw(st.integers(0, len(blocks)))
        if i == len(blocks):
            blocks.append([x])
        else:
            blocks[i].append(x)
    return SetPartition(blocks)


def standard_partitions(min_n, max_n):
    return st.integers(min_n, max_n).flatmap(lambda n: partitions_of(range(1, n + 1)))


@st.composite
def large_ncsym(draw):
    """Terms at degrees 0-12 with at least one key of degree 10 or more."""
    basis = draw(BASES)
    terms = draw(st.dictionaries(standard_partitions(0, 12), COEFFS, max_size=4))
    terms[draw(standard_partitions(10, 12))] = draw(COEFFS)
    return NCSymExpr(basis, terms)


@st.composite
def large_sym(draw):
    parts = st.lists(st.integers(1, 14), max_size=4).map(IntegerPartition)
    terms = draw(st.dictionaries(parts, COEFFS, max_size=4))
    terms[IntegerPartition(draw(st.lists(st.integers(10, 14), min_size=1, max_size=2)))] = draw(
        COEFFS
    )
    return SymExpr(draw(BASES), terms)


@st.composite
def species_elements(draw):
    """Elements on a ground set of 1-8 labels up to 15, so rarely {1..n}."""
    ground = draw(st.sets(st.integers(1, 15), min_size=1, max_size=8))
    keys = st.dictionaries(partitions_of(sorted(ground)), COEFFS, min_size=1, max_size=4)
    return SpeciesElement(ground, draw(st.sampled_from("mpx")), draw(keys))


@st.composite
def tensors(draw):
    leg = standard_partitions(0, 11)
    terms = draw(st.dictionaries(st.tuples(leg, leg), COEFFS, min_size=1, max_size=5))
    return NCTensorExpr(draw(BASES), terms)


@st.composite
def species_tensors(draw):
    left = draw(st.sets(st.integers(1, 15), max_size=5))
    right = draw(st.sets(st.integers(16, 30), max_size=5))
    pairs = st.tuples(partitions_of(sorted(left)), partitions_of(sorted(right)))
    terms = draw(st.dictionaries(pairs, COEFFS, min_size=1, max_size=4))
    return SpeciesTensor(left, right, draw(st.sampled_from("mpx")), terms)


def test_rendering_names_are_the_two_renderers():
    for kind in ("ncsym", "nctensor", "sym", "species", "species_tensor"):
        assert getattr(ncsym, f"format_{kind}") is format_terms
        assert getattr(parsing, f"format_{kind}") is format_terms
        assert getattr(parsing, f"{kind}_json") is terms_json
    assert ncsym.format_sym is ncsym.format_ncsym


@ROUND_TRIP
@given(
    st.one_of(large_ncsym(), large_sym(), species_elements(), tensors(), species_tensors())
)
def test_str_of_every_combination_type_is_format_terms(c):
    assert str(c) == format_terms(c)
    assert str(type(c)(*c._context())) == format_terms(type(c)(*c._context())) == "0"


@ROUND_TRIP
@given(large_ncsym())
def test_ncsym_round_trip_with_multi_digit_labels(e):
    assert parse_ncsym(format_terms(e), default_basis=e.basis) == e


@ROUND_TRIP
@given(large_sym())
def test_sym_round_trip_with_multi_digit_parts(s):
    assert parse_sym(format_terms(s), default_basis=s.basis) == s


@ROUND_TRIP
@given(species_elements())
def test_species_round_trip_on_non_standard_ground_sets(v):
    assert parse_species(format_terms(v), default_basis=v.basis) == v


@pytest.mark.parametrize(
    "ground,text",
    [({15}, "1*m{15,}"), ({3, 12}, "1*m{3/12,}"), ({3, 10, 12}, "1*m{3/10/12}")],
    ids=["15", "3/12", "3/10/12"],
)
def test_all_singleton_keys_with_multi_digit_labels(ground, text):
    v = SpeciesElement(ground, "m", {SetPartition.singletons(sorted(ground)): 1})
    assert format_terms(v) == text
    assert parse_species(format_terms(v)) == v


def test_digit_string_and_comma_key_forms():
    assert parse_species("x{13}") == parse_species("x{1,3}")
    assert parse_ncsym("2*p{13/2}") == parse_ncsym("2*p{1,3/2}")
    v = parse_species("x{1,3/10}")
    assert v.ground == frozenset({1, 3, 10})
    assert format_terms(v) == "1*x{1,3/10}"
    assert parse_species(format_terms(v)) == v
    s = parse_sym("x{12,3}")
    assert format_terms(s) == "1*x{12,3}"
    assert parse_sym(format_terms(s)) == s


def _row_text(t, row) -> str:
    """The text of one ``terms_json`` row, rendered as a one-term tensor."""
    key = (SetPartition(row["left_blocks"]), SetPartition(row["right_blocks"]))
    return format_terms(type(t)(*t._context(), {key: Fraction(row["numerator"], row["denominator"])}))


@ROUND_TRIP
@given(st.one_of(tensors(), species_tensors()))
def test_tensor_json_rows_follow_the_text_order(t):
    rows = terms_json(t)
    assert len(rows) == len(t.terms)
    assert all(row["basis"] == t.basis for row in rows)
    pieces = [_row_text(t, row) for row in rows]
    joined = pieces[0] + "".join(
        f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in pieces[1:]
    )
    assert joined == format_terms(t)


ONE = SetPartition.parse("1")
E = SetPartition.empty()


@pytest.mark.parametrize(
    "c, text",
    [
        (NCTensorExpr("m", {(E, ONE): 1, (ONE, E): 1}), "1 (x) m{1} + 1*m{1} (x) 1"),
        (NCTensorExpr("m", {(E, ONE): -1, (ONE, E): -1}), "-1 (x) m{1} - 1*m{1} (x) 1"),
        (
            NCTensorExpr("m", {(E, ONE): Fraction(-1, 2), (ONE, E): Fraction(-1, 2)}),
            "-1/2*1 (x) m{1} - 1/2*m{1} (x) 1",
        ),
        (NCSymExpr("x", {E: Fraction(-1, 3), ONE: -1}), "-1/3 - 1*x{1}"),
        (NCSymExpr("x", {E: 7, ONE: Fraction(5, 3)}), "7 + 5/3*x{1}"),
        (NCSymExpr("x", {E: 0, ONE: 0}), "0"),
    ],
    ids=["tensor+1", "tensor-1", "tensor-1/2", "scalar-1/3", "scalar+7", "zero"],
)
def test_term_text_of_signs_and_magnitudes(c, text):
    # a magnitude prints as str(Fraction) does; only the bare unit 1 on the
    # left leg drops its "1*"
    assert format_terms(c) == text
