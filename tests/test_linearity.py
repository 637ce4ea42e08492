"""Every operation is linear: checked against ``+`` and ``scale``.

The operations extend a rule on keys through one kernel
(``combination.linear``/``bilinear``), while ``+`` and ``scale`` keep their
own loops, so a fault in the kernel's accumulation shows up here as
f(u + v) != f(u) + f(v) or f(c u) != c f(u).  The inputs are random sparse
combinations with mixed denominators up to degree 4; product factors go up
to degree 3.
"""

import itertools

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ncsym import (
    NCSymExpr,
    NCTensorExpr,
    SpeciesElement,
    SymExpr,
    convert,
    convert_sym,
    coproduct,
    integer_partitions,
    lift_R,
    product,
    rho,
    set_partitions,
    species_delta,
    species_mu,
    tensor_convert,
)
from ncsym.expressions import BASES

PAIRS = list(itertools.permutations(BASES, 2))
SPECIES_BASES = ("m", "p", "x")
# No shrink phase: a fault in the kernel fails every example, and shrinking
# each failure would take tens of seconds per test.
LINEARITY = settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _keys(max_n):
    return [pi for n in range(max_n + 1) for pi in set_partitions(range(1, n + 1))]


def _combination(make, keys):
    return st.dictionaries(st.sampled_from(keys), COEFFS, max_size=4).map(make)


def ncsym_exprs(basis, max_n=4):
    return _combination(lambda t: NCSymExpr(basis, t), _keys(max_n))


def tensors(basis):
    legs = [(a, b) for a in _keys(4) for b in _keys(4) if a.size + b.size <= 4]
    return _combination(lambda t: NCTensorExpr(basis, t), legs)


def sym_exprs(basis):
    shapes = [lam for n in range(5) for lam in integer_partitions(n)]
    return _combination(lambda t: SymExpr(basis, t), shapes)


def species_elements(basis, ground):
    keys = list(set_partitions(ground))
    return _combination(lambda t: SpeciesElement(ground, basis, t), keys)


def _pair(data, strategy):
    return data.draw(strategy), data.draw(strategy)


def _assert_linear(f, u, v, c):
    assert f(u + v) == f(u) + f(v)
    assert f(u.scale(c)) == f(u).scale(c)


@pytest.mark.parametrize("basis, target", PAIRS)
@LINEARITY
@given(data=st.data())
def test_convert_is_linear(basis, target, data):
    u, v = _pair(data, ncsym_exprs(basis))
    _assert_linear(lambda w: convert(w, target), u, v, data.draw(COEFFS))


@pytest.mark.parametrize("basis, target", PAIRS)
@LINEARITY
@given(data=st.data())
def test_tensor_convert_is_linear(basis, target, data):
    u, v = _pair(data, tensors(basis))
    _assert_linear(lambda w: tensor_convert(w, target), u, v, data.draw(COEFFS))


@pytest.mark.parametrize("basis", BASES)
@LINEARITY
@given(data=st.data())
def test_coproduct_is_linear(basis, data):
    u, v = _pair(data, ncsym_exprs(basis))
    _assert_linear(coproduct, u, v, data.draw(COEFFS))


@pytest.mark.parametrize("basis", BASES)
@LINEARITY
@given(data=st.data())
def test_product_is_linear_in_each_argument(basis, data):
    u, v = _pair(data, ncsym_exprs(basis, 3))
    other = data.draw(st.sampled_from(BASES).flatmap(lambda b: ncsym_exprs(b, 3)))
    c = data.draw(COEFFS)
    _assert_linear(lambda w: product(w, other), u, v, c)
    _assert_linear(lambda w: product(other, w), u, v, c)


@pytest.mark.parametrize("basis", SPECIES_BASES)
@LINEARITY
@given(data=st.data())
def test_species_mu_is_linear_in_each_argument(basis, data):
    left, right = (1, 2), (3, 4, 5)
    c = data.draw(COEFFS)
    u, v = _pair(data, species_elements(basis, left))
    w = data.draw(species_elements(basis, right))
    _assert_linear(lambda a: species_mu(a, w), u, v, c)
    u, v = _pair(data, species_elements(basis, right))
    w = data.draw(species_elements(basis, left))
    _assert_linear(lambda b: species_mu(w, b), u, v, c)


@pytest.mark.parametrize("basis", SPECIES_BASES)
@LINEARITY
@given(data=st.data())
def test_species_delta_is_linear(basis, data):
    ground = (1, 2, 3, 4)
    u, v = _pair(data, species_elements(basis, ground))
    s1 = data.draw(st.sets(st.sampled_from(ground)))
    s2 = set(ground) - s1
    _assert_linear(lambda w: species_delta(w, s1, s2), u, v, data.draw(COEFFS))


@pytest.mark.parametrize("basis, target", PAIRS)
@LINEARITY
@given(data=st.data())
def test_convert_sym_is_linear(basis, target, data):
    u, v = _pair(data, sym_exprs(basis))
    _assert_linear(lambda w: convert_sym(w, target), u, v, data.draw(COEFFS))


@pytest.mark.parametrize("basis", BASES)
@LINEARITY
@given(data=st.data())
def test_projection_and_lift_are_linear(basis, data):
    c = data.draw(COEFFS)
    _assert_linear(rho, *_pair(data, ncsym_exprs(basis)), c)
    _assert_linear(lift_R, *_pair(data, sym_exprs(basis)), c)
