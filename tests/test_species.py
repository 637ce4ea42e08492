import itertools
from fractions import Fraction

import pytest

from ncsym import (
    NCSymExpr,
    SetPartition,
    SpeciesElement,
    SpeciesTensor,
    c_coefficient,
    convert,
    coproduct,
    fock_coproduct,
    fock_product,
    product,
    relabel,
    set_partitions,
    species_delta,
    species_mu,
    tensor_convert,
)
from ncsym.lattice import merge_mobius, mobius, refinements, top_refinement_sum
from ncsym.partitions import disjoint_union
from ncsym.species import delta_key

from conftest import sp_


def sel(basis, text):
    return SpeciesElement.element(basis, sp_(text))


def test_relabel_example():
    got = relabel({1: 1, 6: 3, 3: 2, 8: 4}, sel("m", "1,6/3,8"))
    assert got == sel("m", "13/24")
    v = sel("p", "13/2")
    assert relabel({1: 1, 2: 2, 3: 3}, v) == v
    with pytest.raises(ValueError):
        relabel({1: 1}, v)
    with pytest.raises(ValueError):
        relabel({1: 5, 2: 5, 3: 6}, v)


def test_mu_monomial_example():
    got = species_mu(sel("m", "12"), sel("m", "3,5/4"))
    want = SpeciesElement(
        {1, 2, 3, 4, 5},
        "m",
        {sp_("1,2/3,5/4"): 1, sp_("1,2,3,5/4"): 1, sp_("1,2,4/3,5"): 1},
    )
    assert got == want


def test_mu_power_and_extra():
    assert species_mu(sel("p", "12"), sel("p", "3,5/4")) == sel("p", "1,2/3,5/4")
    assert species_mu(sel("x", "12"), sel("x", "3,5/4")) == sel("x", "1,2/3,5/4")
    with pytest.raises(ValueError):
        species_mu(sel("p", "12"), sel("x", "3"))
    with pytest.raises(ValueError):
        species_mu(sel("p", "12"), sel("p", "2,3"))


def test_products_build_their_keys_unchecked(monkeypatch):
    # species_mu has checked that the ground sets are disjoint, and the
    # graded m product shifts its second key past the first, so neither
    # validates a key: no SetPartition goes through its checking constructor
    a, b = sp_("1,4/6"), sp_("2,5/3")
    pairs = {
        basis: (
            SpeciesElement({1, 4, 6}, basis, {a: 2, sp_("1/4,6"): -1}),
            SpeciesElement({2, 3, 5}, basis, {b: 1, sp_("2,3,5"): 3}),
        )
        for basis in "px"
    }
    m1 = NCSymExpr("m", {sp_("13/2"): 1, sp_("1/2"): -2})
    m2 = NCSymExpr("m", {sp_("12"): 1, sp_("1/23"): 5})
    validated = []
    monkeypatch.setattr(SetPartition, "__init__", lambda self, blocks=(): validated.append(blocks))
    got = {basis: species_mu(*pair) for basis, pair in pairs.items()}
    product(m1, m2)
    assert validated == []
    monkeypatch.undo()
    for basis, (left, right) in pairs.items():
        want = {}
        for (ka, ca), (kb, cb) in itertools.product(left.terms.items(), right.terms.items()):
            key = disjoint_union(ka, kb)
            want[key] = want.get(key, 0) + ca * cb
        assert got[basis] == SpeciesElement({1, 2, 3, 4, 5, 6}, basis, want), basis


def test_delta_monomial_and_power():
    v = sel("m", "1,2/3,5/4")
    t = species_delta(v, {1, 2}, {3, 4, 5})
    assert t == SpeciesTensor(
        {1, 2}, {3, 4, 5}, "m", {(sp_("12"), sp_("3,5/4")): 1}
    )
    # a straddling block kills the component
    assert species_delta(sel("m", "13/2"), {1, 2}, {3}).is_zero()
    p = sel("p", "1,2/3,5/4")
    assert species_delta(p, {1, 2}, {3, 4, 5}) == SpeciesTensor(
        {1, 2}, {3, 4, 5}, "p", {(sp_("12"), sp_("3,5/4")): 1}
    )


def test_delta_extra_example():
    t = species_delta(sel("x", "123/4"), {1, 2}, {3, 4})
    assert t == SpeciesTensor(
        {1, 2},
        {3, 4},
        "x",
        {(sp_("12"), sp_("3/4")): -1, (sp_("1/2"), sp_("3/4")): 1},
    )
    v = sel("x", "12/3")
    full = species_delta(v, {1, 2, 3}, set())
    assert full.coefficient(sp_("12/3"), SetPartition.empty()) == 1
    with pytest.raises(ValueError):
        species_delta(v, {1}, {2})


def _refinement_pair_rule(pi, s1, s2):
    """The x component as the sum over refinement pairs (D1, D2) of the
    restrictions: mu(D1 + D2, pi) credited to every refinement pair of
    (D1, D2)."""
    out = {}
    refs2 = list(refinements(pi.restrict(s2)))
    subs2 = {d2: list(refinements(d2)) for d2 in refs2}
    for d1 in refinements(pi.restrict(s1)):
        subs1 = list(refinements(d1))
        for d2 in refs2:
            w = mobius(disjoint_union(d1, d2), pi)
            for left in subs1:
                for right in subs2[d2]:
                    out[(left, right)] = out.get((left, right), 0) + w
    return {key: w for key, w in out.items() if w}


def test_block_factored_x_rule_matches_the_refinement_pair_sum():
    # n <= 5: the refinement-pair sum takes seconds at n = 6
    for n in range(6):
        ground = range(1, n + 1)
        for pi in set_partitions(ground):
            for r in range(n + 1):
                for chosen in itertools.combinations(ground, r):
                    s1 = frozenset(chosen)
                    s2 = pi.ground - s1
                    got = list(delta_key("x", pi, s1, s2))
                    assert len({key for key, _ in got}) == len(got)
                    assert dict(got) == _refinement_pair_rule(pi, s1, s2), (pi, s1)


def _stirling(b, j):
    if b == 0 or j == 0:
        return int(b == j)
    return j * _stirling(b - 1, j) + _stirling(b - 1, j - 1)


def test_x_weight_table():
    g = top_refinement_sum
    for l in range(1, 8):
        assert g((l, 0)) == g((0, l)) == (l == 1)
        for r in range(8):
            assert g((l, r)) == g((r, l))
    assert (g((1, 1)), g((2, 2)), g((3, 3))) == (-1, -3, -31)
    # the Möbius sum over the lattice above l + r blocks, one block of pi
    for l, r in itertools.product(range(11), repeat=2):
        if l + r:
            want = sum(
                _stirling(l, i) * _stirling(r, j) * merge_mobius(i + j)
                for i in range(l + 1)
                for j in range(r + 1)
                if i + j
            )
            assert g((l, r)) == want, (l, r)


def test_x_weight_is_the_one_block_splitting_coefficient():
    # the all-singleton legs of the one-block partition put l and r leg
    # blocks in its only block
    for total in range(1, 8):
        pi = SetPartition.whole(range(1, total + 1))
        for l in range(total + 1):
            s1 = set(range(1, l + 1))
            s2 = set(range(l + 1, total + 1))
            b, c = SetPartition.singletons(s1), SetPartition.singletons(s2)
            assert c_coefficient(pi, s1, s2, b, c) == top_refinement_sum((l, total - l))


def test_c_coefficient_values():
    a = sp_("123/4")
    s1, s2 = {1, 2}, {3, 4}
    assert c_coefficient(a, s1, s2, sp_("12"), sp_("3/4")) == -1
    assert c_coefficient(a, s1, s2, sp_("1/2"), sp_("3/4")) == 1
    for b in set_partitions(s1):
        for c in set_partitions(s2):
            if (b, c) in ((sp_("12"), sp_("3/4")), (sp_("1/2"), sp_("3/4"))):
                continue
            assert c_coefficient(a, s1, s2, b, c) == 0


def test_c_coefficient_defines_delta():
    for pi in set_partitions(range(1, 5)):
        v = SpeciesElement.element("x", pi)
        for s1 in ({1, 2}, {1, 3}, {2, 4}, {1, 2, 3}, set()):
            s2 = set(range(1, 5)) - s1
            t = species_delta(v, s1, s2)
            for b in set_partitions(s1):
                for c in set_partitions(s2):
                    assert t.coefficient(b, c) == c_coefficient(pi, s1, s2, b, c)


def test_fock_product():
    got = fock_product(sel("p", "13/24"), sel("p", "13/2"))
    assert got == sel("p", "13/24/57/6")
    v = sel("x", "13/24")
    assert fock_product(v, SpeciesElement.unit("x")) == v
    assert fock_product(sel("x", "13/24"), sel("x", "13/2")) == sel("x", "13/24/57/6")


def test_fock_coproduct_examples():
    t = fock_coproduct(sel("p", "13/2"))
    assert t == coproduct(NCSymExpr.element("p", sp_("13/2")))
    assert fock_coproduct(SpeciesElement.unit("x")).coefficient(
        SetPartition.empty(), SetPartition.empty()
    ) == 1
    t4 = fock_coproduct(sel("x", "1234"))
    assert t4.coefficient(sp_("1/2"), sp_("12")) == 6


def test_fock_bridge():
    # the product and coproduct in another basis, converted back, are the
    # reference routes
    for basis, other in (("m", "p"), ("p", "x"), ("x", "p")):
        for n in range(4):
            for pi in set_partitions(range(1, n + 1)):
                v = SpeciesElement.element(basis, pi)
                via = convert(NCSymExpr.element(basis, pi), other)
                assert fock_coproduct(v) == tensor_convert(coproduct(via), basis)
                for m in range(3):
                    for sigma in set_partitions(range(1, m + 1)):
                        w = SpeciesElement.element(basis, sigma)
                        got = fock_product(v, w)
                        want = convert(
                            product(via, convert(NCSymExpr.element(basis, sigma), other)),
                            basis,
                        )
                        assert dict(got.terms) == want.terms


def test_basis_triangle():
    from ncsym import mobius, refinements

    for ground in (set(range(1, 5)), {2, 5, 9, 11}):
        for a in set_partitions(ground):
            acc = {}
            for b in refinements(a):
                for c in refinements(b):
                    acc[c] = acc.get(c, 0) + mobius(c, b)
            acc = {k: v for k, v in acc.items() if v}
            assert acc == {a: 1}
