import ast
import operator
import random
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
from ncsym import (
    checks,
    convert,
    convert_sym,
    coproduct,
    integer_partitions,
    lift_R,
    product,
    product_sym,
    rho,
    set_partitions,
    species_delta,
    species_mu,
    tensor_convert,
    tensor_product,
)
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


# ------------------------------------------------- unchecked kernel results

BASES = "mpex"
NC_KEYS = [pi for n in range(4) for pi in set_partitions(range(1, n + 1))]
SHAPES = [lam for n in range(5) for lam in integer_partitions(n)]


def _terms(rng, keys):
    """Up to four keys with nonzero coefficients, often integers."""
    return {
        key: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
        for key in rng.sample(keys, rng.randint(1, min(4, len(keys))))
    }


def _nc(rng, basis=None):
    return NCSymExpr(basis or rng.choice(BASES), _terms(rng, NC_KEYS))


def _tensor(rng, basis):
    legs = [(a, b) for a in NC_KEYS for b in NC_KEYS if a.size + b.size <= 4]
    return NCTensorExpr(basis, _terms(rng, legs))


def _sym(rng, basis=None):
    return SymExpr(basis or rng.choice(BASES), _terms(rng, SHAPES))


def _species(rng, basis, ground):
    return SpeciesElement(ground, basis, _terms(rng, list(set_partitions(ground))))


def _split(rng, ground):
    s1 = {x for x in ground if rng.random() < 0.5}
    return s1, set(ground) - s1


KERNELS = {
    "convert": lambda rng: convert(_nc(rng), rng.choice(BASES)),
    "product": lambda rng: product(_nc(rng), _nc(rng)),
    "coproduct": lambda rng: coproduct(_nc(rng)),
    "tensor_convert": lambda rng: tensor_convert(
        _tensor(rng, rng.choice(BASES)), rng.choice(BASES)
    ),
    "tensor_product": lambda rng: tensor_product(
        *[_tensor(rng, basis) for basis in [rng.choice(BASES)] * 2]
    ),
    "rho": lambda rng: rho(_nc(rng)),
    "lift_R": lambda rng: lift_R(_sym(rng)),
    "convert_sym": lambda rng: convert_sym(_sym(rng), rng.choice(BASES)),
    "product_sym": lambda rng: product_sym(_sym(rng), _sym(rng)),
    "species_mu": lambda rng: species_mu(
        *[_species(rng, basis, g) for basis in [rng.choice("mpx")] for g in ((1, 2), (3, 4, 5))]
    ),
    "species_delta": lambda rng: species_delta(
        _species(rng, rng.choice("mpx"), (2, 3, 5, 7)), *_split(rng, (2, 3, 5, 7))
    ),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_results_hold_nonzero_fractions_and_valid_keys(kernel):
    rng = random.Random(kernel)
    for _ in range(20):
        r = KERNELS[kernel](rng)
        assert all(type(c) is Fraction and c for c in r.terms.values())
        assert type(r)(*r._context(), r.terms) == r


@pytest.mark.parametrize(
    "make",
    [
        lambda: NCSymExpr("p", {sp_("2/3"): 1}),
        lambda: SpeciesElement({1, 2}, "p", {sp_("1/3"): 1}),
        lambda: NCTensorExpr("p", {(sp_("1"), sp_("2")): 1}),
        lambda: SpeciesTensor({1}, {2}, "p", {(sp_("1"), sp_("3")): 1}),
    ],
    ids=["ncsym-non-standard", "species-outside-ground", "tensor-leg", "species-tensor-leg"],
)
def test_validating_constructors_still_reject_bad_keys(make):
    with pytest.raises(ValueError):
        make()
