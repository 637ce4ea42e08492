import ast
import operator
import re
from fractions import Fraction
from pathlib import Path

import pytest

import ncsym
from ncsym import (
    CPolynomial,
    NCPolynomial,
    NCSymExpr,
    NCTensorExpr,
    SetPartition,
    SpeciesElement,
    SpeciesTensor,
    SymExpr,
)
from ncsym import checks
from ncsym.combination import Combination

from conftest import imported_names, ip_, sp_

E = SetPartition.empty()

# class, context, another context, two keys valid in the first context, and
# the error raised when adding across contexts (None: the operand converts)
CASES = [
    (NCSymExpr, ("p",), ("x",), sp_("1/2"), sp_("12"), None),
    (
        NCTensorExpr,
        ("p",),
        ("x",),
        (sp_("1"), sp_("1/2")),
        (sp_("12"), E),
        "cannot add tensors in different bases",
    ),
    (SymExpr, ("p",), ("e",), ip_(2), ip_(1, 1), None),
    (
        SpeciesElement,
        ({2, 5}, "p"),
        ({2, 5, 7}, "p"),
        sp_("2/5"),
        sp_("2,5"),
        "can only add species elements on one ground set and basis",
    ),
    (
        SpeciesTensor,
        ({2}, {5, 7}, "x"),
        ({2}, {5, 7}, "m"),
        (sp_("2"), sp_("5/7")),
        (sp_("2"), sp_("5,7")),
        "tensor grounds or bases differ",
    ),
]


@pytest.mark.parametrize(
    "cls, ctx, other_ctx, a, b, mismatch", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_shared_arithmetic(cls, ctx, other_ctx, a, b, mismatch):
    u = cls(*ctx, {a: 2, b: Fraction(1, 3)})
    v = cls(*ctx, {a: -2, b: 1})
    assert (u + v).terms == {b: Fraction(4, 3)}
    assert u - v == cls(*ctx, {a: 4, b: Fraction(-2, 3)})
    assert u.scale(3) == 3 * u == u * 3 == cls(*ctx, {a: 6, b: 1})
    assert Fraction(3, 2) * u == u * 1.5 == cls(*ctx, {a: 3, b: Fraction(1, 2)})
    assert -u == cls(*ctx, {a: -2, b: Fraction(-1, 3)})
    assert (u - u).is_zero()
    assert cls(*ctx, {a: 0, b: 1}).terms == {b: 1}
    assert u.scale(0).terms == {}
    legs = a if isinstance(a, tuple) else (a,)
    assert u.coefficient(*legs) == 2
    assert v.coefficient(*legs) == -2
    assert cls(*ctx) != cls(*other_ctx)
    assert cls(*ctx) == cls(*ctx)
    assert repr(u).startswith(f"{cls.__name__}(")
    if mismatch is None:
        assert u + cls(*other_ctx) == u
    else:
        with pytest.raises(ValueError, match=re.escape(mismatch)):
            u + cls(*other_ctx)


@pytest.mark.parametrize(
    "cls, ctx, a, b", [(c[0], c[1], c[3], c[4]) for c in CASES], ids=[c[0].__name__ for c in CASES]
)
def test_coefficients_become_fractions_once(cls, ctx, a, b):
    # a Fraction coefficient is stored as given; anything else is converted
    f = Fraction(3, 2)
    u = cls(*ctx, {a: f, b: 2})
    assert u.terms[a] is f
    assert type(u.terms[b]) is Fraction and u.terms[b] == 2
    assert cls(*ctx, {a: Fraction(0), b: 0}).terms == {}


ELEMENTS = {case[0].__name__: case[0](*case[1], {case[3]: 1}) for case in CASES}
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@pytest.mark.parametrize("symbol", OPERATORS)
@pytest.mark.parametrize(
    "left, right", [(a, b) for a in ELEMENTS for b in ELEMENTS if a != b]
)
def test_mixed_types_raise_type_error(left, right, symbol):
    # no operator mixes combination types; Python's own TypeError names both
    message = f"unsupported operand type(s) for {symbol}: '{left}' and '{right}'"
    with pytest.raises(TypeError, match=re.escape(message)):
        OPERATORS[symbol](ELEMENTS[left], ELEMENTS[right])


def test_monomial_oracle_shares_no_production_code():
    production = {"expressions", "species", "sym", "parsing", "checks", "combination"}
    assert not imported_names(ncsym.monomials) & production
    # the Sym basis changes are the commutative images of the NCSym tables;
    # the oracle they are checked against expands polynomials, so
    # production must not call it
    for module in (ncsym.sym, ncsym.expressions, ncsym.lattice):
        assert "monomials" not in imported_names(module)
    assert not imported_names(ncsym.sym) & {"refinements", "expand_c"}
    assert not issubclass(NCPolynomial, Combination)
    assert not issubclass(CPolynomial, Combination)
    # the reference routes keep their own accumulation loops, so a fault in
    # the linear-extension kernel cannot hide on both sides of a check
    for module in (ncsym.monomials, checks):
        nodes = ast.walk(ast.parse(Path(module.__file__).read_text()))
        used = {getattr(node, "id", getattr(node, "attr", None)) for node in nodes}
        assert not (used | imported_names(module)) & {"linear", "bilinear"}
