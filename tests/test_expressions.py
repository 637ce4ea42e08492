import ast
import itertools
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from ncsym import (
    DegreeLimitError,
    NCSymExpr,
    NCTensorExpr,
    Permutation,
    SetPartition,
    SymExpr,
    convert,
    convert_sym,
    coproduct,
    count_acyclic_unique_sink_by_enumeration,
    expand_nc,
    integer_partitions,
    is_refinement,
    lift_R,
    meet,
    omega,
    permute,
    product,
    rho,
    set_partitions,
    set_partitions_of_shape,
    tensor_convert,
    tensor_product,
    x_coproduct_coefficient,
    x_e_expansion_coefficient,
    x_to_m_top,
    x_top_coproduct_coefficient,
)
from ncsym import checks, expressions, graphs, lattice, monomials, species, sym
from ncsym.expressions import BASES, _by_signature, _key_convert

from conftest import elt, imported_names, ip_, reachable_names, sp_


def top(n):
    return SetPartition.whole(range(1, n + 1))


def test_expression_validation():
    with pytest.raises(ValueError):
        NCSymExpr("q", {})
    with pytest.raises(ValueError):
        NCSymExpr("p", {sp_("2/3"): 1})  # not a standard ground set
    assert NCSymExpr("p", {sp_("12"): 0}).is_zero()


def test_convert_worked_values():
    x = elt("x", "13/2")
    assert convert(x, "p") == NCSymExpr("p", {sp_("13/2"): 1, sp_("1/2/3"): -1})
    assert convert(x, "m") == NCSymExpr(
        "m", {sp_("1/2/3"): -1, sp_("12/3"): -1, sp_("1/23"): -1}
    )
    assert convert(x, "x") is x
    assert convert(elt("x", "12"), "e") == NCSymExpr("e", {sp_("12"): -1})


def test_convert_round_trips():
    for n in range(6):
        for pi in set_partitions(range(1, n + 1)):
            for b1 in "mpex":
                start = NCSymExpr.element(b1, pi)
                for b2 in "mpex":
                    assert convert(convert(start, b2), b1) == start


def test_convert_matches_oracle():
    from ncsym import NCPolynomial

    k = 4
    for n in range(4):
        for pi in set_partitions(range(1, n + 1)):
            want = expand_nc("x", pi, k)
            in_m = convert(NCSymExpr.element("x", pi), "m")
            acc = NCPolynomial(k)
            for sigma, c in in_m.terms.items():
                acc = acc + c * expand_nc("m", sigma, k)
            assert acc == want


def test_product():
    assert product(elt("p", "13/24"), elt("p", "13/2")) == elt("p", "13/24/57/6")
    b = elt("p", "12/3")
    assert product(NCSymExpr.unit("p"), b) == b
    assert product(elt("x", "12"), elt("x", "1")) == elt("x", "12/3")
    # the noncommuting square of m{1} keeps each ordered pair once
    got = product(elt("m", "1"), elt("m", "1"))
    assert got == NCSymExpr("m", {sp_("12"): 1, sp_("1/2"): 1})
    from ncsym import NCPolynomial, expand_nc

    k = 3
    acc = NCPolynomial(k)
    for sigma, c in got.terms.items():
        acc = acc + c * expand_nc("m", sigma, k)
    assert acc == expand_nc("m", sp_("1"), k) * expand_nc("m", sp_("1"), k)


def _product_via_p(basis, k1, k2):
    """The product of two keys through the power sums: convert both factors,
    concatenate shifted keys, convert back."""
    terms = {}
    for s1, c1 in convert(NCSymExpr.element(basis, k1), "p").terms.items():
        for s2, c2 in convert(NCSymExpr.element(basis, k2), "p").terms.items():
            n = s1.size
            key = SetPartition(s1.blocks + tuple(tuple(x + n for x in b) for b in s2.blocks))
            terms[key] = terms.get(key, 0) + c1 * c2
    return convert(NCSymExpr("p", terms), basis)


def _keys_up_to(total):
    for n1 in range(total + 1):
        for n2 in range(total - n1 + 1):
            for k1 in set_partitions(range(1, n1 + 1)):
                for k2 in set_partitions(range(1, n2 + 1)):
                    yield k1, k2


def test_product_matches_p_route():
    # m and e multiply by their own rules; the reference goes through p
    for k1, k2 in _keys_up_to(6):
        for basis in "me":
            got = product(NCSymExpr.element(basis, k1), NCSymExpr.element(basis, k2))
            assert got == _product_via_p(basis, k1, k2), (basis, k1, k2)


def test_m_tensor_product_matches_p_route():
    pieces = {}
    for k1, k2 in _keys_up_to(6):
        pieces[k1, k2] = _product_via_p("m", k1, k2).terms
    legs = list(_keys_up_to(6))
    for (a1, a2), (b1, b2) in itertools.product(legs, repeat=2):
        if a1.size + a2.size + b1.size + b2.size > 6:
            continue
        got = tensor_product(
            NCTensorExpr("m", {(a1, a2): 1}), NCTensorExpr("m", {(b1, b2): 1})
        )
        want = {}
        for k1, c1 in pieces[a1, b1].items():
            for k2, c2 in pieces[a2, b2].items():
                want[k1, k2] = want.get((k1, k2), 0) + c1 * c2
        assert got == NCTensorExpr("m", want), (a1, a2, b1, b2)


def test_product_mixed_basis_converts_right_operand():
    got = product(elt("p", "1"), elt("x", "1"))  # the two degree-1 elements agree
    assert got == elt("p", "1/2")


def test_coproduct_power_example():
    t = coproduct(elt("p", "13/2"))
    e = SetPartition.empty()
    assert t == NCTensorExpr(
        "p",
        {
            (e, sp_("13/2")): 1,
            (sp_("12"), sp_("1")): 1,
            (sp_("1"), sp_("12")): 1,
            (sp_("13/2"), e): 1,
        },
    )


def test_coproduct_unit():
    assert coproduct(NCSymExpr.unit("p")) == NCTensorExpr.unit("p")
    assert coproduct(NCSymExpr.unit("x")) == NCTensorExpr.unit("x")


def test_coproduct_x_coefficient_six():
    t = coproduct(elt("x", "1234"))
    assert t.coefficient(sp_("1/2"), sp_("12")) == 6


def test_x_coproduct_coefficient():
    assert x_coproduct_coefficient(top(4), sp_("1/2"), sp_("12")) == 6
    assert x_coproduct_coefficient(top(5), SetPartition.empty(), top(5)) == 1
    assert x_top_coproduct_coefficient(4, sp_("1/2"), sp_("12")) == 6
    with pytest.raises(ValueError):
        x_coproduct_coefficient(top(4), sp_("1/2"), sp_("1"))
    # general keys agree with the full expansion
    pi = sp_("123/4")
    t = coproduct(NCSymExpr.element("x", pi))
    for a in range(5):
        for sigma in set_partitions(range(1, a + 1)):
            for tau in set_partitions(range(1, 5 - a)):
                assert x_coproduct_coefficient(pi, sigma, tau) == t.coefficient(
                    sigma, tau
                )


def _coproduct_by_restriction(basis, pi):
    """Reference graded coproduct of m, p or e at pi: the pair of
    restrictions at every ordered split of the ground set, legs
    standardized; m and p skip the splits that cut a block."""
    elems = sorted(pi.ground)
    terms = {}
    for r in range(len(elems) + 1):
        for s1 in itertools.combinations(elems, r):
            left = pi.restrict(s1)
            right = pi.restrict(x for x in elems if x not in s1)
            if basis != "e" and len(left) + len(right) > len(pi):
                continue  # a block straddles the split
            key = (left.standardize(), right.standardize())
            terms[key] = terms.get(key, 0) + 1
    return NCTensorExpr(basis, terms)


def test_coproduct_matches_independent_routes():
    # the block rule against every ordered split for m, p and e, and against
    # the interval-sum coefficient for every leg pair of x
    for n in range(6):
        for pi in set_partitions(range(1, n + 1)):
            for basis in "mpe":
                want = _coproduct_by_restriction(basis, pi)
                assert coproduct(NCSymExpr.element(basis, pi)) == want, (basis, pi)
            if n > 4:
                continue
            t = coproduct(NCSymExpr.element("x", pi))
            for a in range(n + 1):
                for sigma in set_partitions(range(1, a + 1)):
                    for tau in set_partitions(range(1, n - a + 1)):
                        want = x_coproduct_coefficient(pi, sigma, tau)
                        assert t.coefficient(sigma, tau) == want, (pi, sigma, tau)


def test_coproduct_m_basis_round_trip():
    # the m coproduct agrees with the p coproduct converted back
    for pi in set_partitions(range(1, 4)):
        direct = coproduct(NCSymExpr.element("m", pi))
        via = tensor_convert(coproduct(convert(NCSymExpr.element("m", pi), "p")), "m")
        assert direct == via


def test_e_coproduct_matches_p_route():
    # e splits its keys directly; the reference splits in p
    for n in range(7):
        for pi in set_partitions(range(1, n + 1)):
            e = NCSymExpr.element("e", pi)
            assert coproduct(e) == tensor_convert(coproduct(convert(e, "p")), "e"), pi


def test_omega():
    assert omega(elt("p", "13/2")) == elt("p", "13/2") * -1
    for basis in "mpex":
        for pi in set_partitions(range(1, 5)):
            e = NCSymExpr.element(basis, pi)
            assert omega(omega(e)) == e
    w = convert(omega(elt("x", "123")), "p")
    assert w == NCSymExpr(
        "p",
        {
            sp_("123"): 1,
            sp_("12/3"): 1,
            sp_("13/2"): 1,
            sp_("1/23"): 1,
            sp_("1/2/3"): 2,
        },
    )


def test_permute():
    eta = Permutation([1, 3, 2, 4])
    assert permute(eta, elt("x", "12/34")) == elt("x", "13/24")
    e = elt("p", "13/24")
    assert permute(Permutation.identity(4), e) == e
    with pytest.raises(ValueError):
        permute(Permutation.identity(3), e)
    for eta_tuple in itertools.permutations(range(1, 4)):
        eta = Permutation(eta_tuple)
        for pi in set_partitions(range(1, 4)):
            expr = NCSymExpr.element("p", pi)
            assert permute(eta, omega(expr)) == omega(permute(eta, expr))


def test_rho():
    assert rho(elt("m", "13/2")) == SymExpr("m", {ip_(2, 1): 1})
    assert rho(elt("m", "13/24")) == SymExpr("m", {ip_(2, 2): 2})
    assert rho(elt("p", "13/24")) == SymExpr("p", {ip_(2, 2): 1})
    assert rho(elt("e", "123")) == SymExpr("e", {ip_(3): 6})
    for lam in (ip_(3), ip_(2, 1), ip_(2, 2), ip_(1, 1, 1)):
        from ncsym import bracket

        assert rho(NCSymExpr.element("x", bracket(lam))) == SymExpr("x", {lam: 1})
    for n in range(8):
        for pi in set_partitions(range(1, n + 1)):
            image = rho(NCSymExpr.element("x", pi))
            assert image == SymExpr("x", {pi.shape(): 1})
            if n <= 5:  # the projection of the power sum expansion agrees
                via_p = rho(convert(NCSymExpr.element("x", pi), "p"))
                assert convert_sym(image, "p") == via_p


def test_rho_is_algebra_morphism():
    from ncsym import product_sym

    for total in range(6):
        for i in range(total + 1):
            for pi in set_partitions(range(1, i + 1)):
                for sigma in set_partitions(range(1, total - i + 1)):
                    a = NCSymExpr.element("p", pi)
                    b = NCSymExpr.element("p", sigma)
                    assert rho(product(a, b)) == product_sym(rho(a), rho(b))


def test_omega_extra_elements_single_signed():
    # the p-expansion of omega of any extra element carries one strict sign
    for n in range(1, 6):
        for pi in set_partitions(range(1, n + 1)):
            w = convert(omega(NCSymExpr.element("x", pi)), "p")
            values = list(w.terms.values())
            assert values
            assert all(v > 0 for v in values) or all(v < 0 for v in values)


def test_lift_R():
    for n in range(7):
        for lam in {pi.shape() for pi in set_partitions(range(1, n + 1))}:
            lifted = lift_R(SymExpr.element("p", lam))
            assert rho(lifted) == SymExpr("p", {lam: 1})
    assert lift_R(SymExpr.unit("p")) == NCSymExpr.unit("p")
    # the symmetrized lift of the degree-3 extra function is the one-block element
    got = lift_R(SymExpr.element("x", ip_(3)))
    assert got == convert(elt("x", "123"), "p")


def test_lift_R_shape_counts():
    from ncsym import lambda_factorial, lambda_superfactorial

    for n in range(9):
        by_shape = {}
        for tau in set_partitions(range(1, n + 1)):
            by_shape.setdefault(tau.shape(), []).append(tau)
        for lam, taus in by_shape.items():
            assert len(taus) == factorial(n) // (
                lambda_factorial(lam) * lambda_superfactorial(lam)
            )
            # the same partitions, in the same order, as a tuple
            assert set_partitions_of_shape(lam) == tuple(taus)


def test_x_to_m_top():
    assert x_to_m_top(3) == NCSymExpr(
        "m",
        {sp_("1/2/3"): 2, sp_("1/23"): 1, sp_("12/3"): 1, sp_("13/2"): 1},
    )
    assert x_to_m_top(1) == elt("m", "1")
    assert x_to_m_top(2) == NCSymExpr("m", {sp_("1/2"): -1})
    for n in range(1, 6):
        assert x_to_m_top(n) == convert(NCSymExpr.element("x", top(n)), "m")


def test_shape_class_outputs_share_one_coefficient_per_shape(monkeypatch):
    # x_to_m_top and lift_R build their keys unchecked, from the shape
    # walk, and give every key of one shape the same coefficient object
    validated = []
    monkeypatch.setattr(SetPartition, "__init__", lambda self, blocks=(): validated.append(blocks))
    expressions._partitions_of_shape.cache_clear()
    sym._key_convert_sym.cache_clear()
    results = [x_to_m_top(n) for n in range(1, 9)]
    for basis, lam in zip("mpex", (ip_(3, 2, 1), ip_(4, 4), ip_(2, 2, 1, 1), ip_(5, 3))):
        results.append(lift_R(SymExpr.element(basis, lam)))
    assert validated == []
    for expr in results:
        by_shape = {}
        for tau, c in expr.terms.items():
            by_shape.setdefault(tau.shape(), set()).add(id(c))
        assert all(len(ids) == 1 for ids in by_shape.values())
        assert len({id(c) for c in expr.terms.values()}) == len(by_shape)


def test_x_to_m_top_matches_orientation_enumeration():
    for n in range(1, 7):
        expansion = x_to_m_top(n)
        for sigma in set_partitions(range(1, n + 1)):
            count = count_acyclic_unique_sink_by_enumeration(sigma, 1)
            assert expansion.coefficient(sigma) == (-1) ** (n - 1) * count


def _row(basis, target, pi):
    """One table row as {key: coefficient}: a row into e divided by its scale."""
    row = dict(_key_convert(basis, target, pi))
    if target == "e":
        scale = expressions._e_scale(pi.size)
        row = {tau: Fraction(w, scale) for tau, w in row.items()}
    return row


def _two_stage(basis, target, pi):
    """The composite table through p: every comparable pair, summed."""
    out = {}
    for sigma, c in _row(basis, "p", pi).items():
        for tau, d in _row("p", target, sigma).items():
            out[tau] = out.get(tau, 0) + c * d
    return {tau: v for tau, v in out.items() if v}


COMPOSITES = (("e", "m"), ("x", "m"), ("m", "x"), ("m", "e"))


def _table_keys():
    """Every key through degree 6, six keys of degree 7 and one of degree 8."""
    keys = [pi for n in range(7) for pi in set_partitions(range(1, n + 1))]
    keys += random.Random(7).sample(list(set_partitions(range(1, 8))), 6)
    # at n = 8 each packed signature field is 4 bits wide
    return keys + [sp_("1,5/2,6/3,7/4,8")]


def test_composite_tables_match_two_stage_reference():
    for pi in _table_keys():
        for basis, target in COMPOSITES:
            table = _key_convert(basis, target, pi)
            assert len({tau for tau, _ in table}) == len(table)
            want = _two_stage(basis, target, pi)
            assert _row(basis, target, pi) == want, (basis, target, pi)


def test_x_e_rows_match_the_route_through_p():
    # the block-shape rows against x -> p -> e and e -> p -> x, summed over
    # every comparable pair: every key through degree 6, the top and the
    # bottom of degree 8, and one degree-8 key with mixed block sizes
    keys = [pi for n in range(7) for pi in set_partitions(range(1, n + 1))]
    keys += [top(8), SetPartition.singletons(range(1, 9)), sp_("1,2,3,4/5,6/7/8")]
    for pi in keys:
        for basis, target in (("x", "e"), ("e", "x")):
            table = _key_convert(basis, target, pi)
            assert len({tau for tau, _ in table}) == len(table)
            assert all(type(w) is int and w for _, w in table), (basis, pi)
            want = _two_stage(basis, target, pi)
            assert _row(basis, target, pi) == want, (basis, target, pi)


def test_rows_into_e_hold_ints_scaled_by_the_degree():
    # the rational p -> e row from its defining formula, one per key
    p_to_e = {}

    def rational_p_to_e(sigma):
        if sigma not in p_to_e:
            lead = lattice.mobius(SetPartition.singletons(sorted(sigma.ground)), sigma)
            p_to_e[sigma] = {
                tau: Fraction(lattice.mobius(tau, sigma), lead)
                for tau in lattice.refinements(sigma)
            }
        return p_to_e[sigma]

    for pi in _table_keys():
        scale = factorial(max(pi.size - 1, 0))
        for basis in ("m", "p", "x"):
            want = {}
            in_p = _key_convert(basis, "p", pi) if basis != "p" else ((pi, 1),)
            for sigma, c in in_p:
                for tau, d in rational_p_to_e(sigma).items():
                    want[tau] = want.get(tau, 0) + c * d
            table = _key_convert(basis, "e", pi)
            assert all(type(w) is int for _, w in table), (basis, pi)
            got = {tau: Fraction(w, scale) for tau, w in table}
            assert got == {tau: v for tau, v in want.items() if v}, (basis, pi)


def test_convert_into_e_scales_each_key_by_its_own_degree():
    empty = SetPartition.empty()
    keys = [empty, sp_("1"), sp_("12"), sp_("1/2"), sp_("13/25/4")]
    coeffs = [Fraction(2, 3), Fraction(-5, 7), Fraction(1, 4), 3, Fraction(-7, 6)]
    legs = [
        (empty, sp_("13/2")),
        (sp_("12/3/4/5"), sp_("1")),
        (sp_("1/2"), empty),
        (sp_("12"), sp_("1/23/4")),
        (empty, empty),
    ]
    for basis in ("m", "p", "x"):
        expr = NCSymExpr(basis, dict(zip(keys, coeffs)))
        want = NCSymExpr.zero("e")
        for pi, c in zip(keys, coeffs):
            want = want + convert(NCSymExpr.element(basis, pi), "e") * c
        assert convert(expr, "e") == want, basis
        t = NCTensorExpr(basis, dict(zip(legs, coeffs)))
        want = NCTensorExpr("e")
        for key, c in zip(legs, coeffs):
            want = want + tensor_convert(NCTensorExpr(basis, {key: 1}), "e") * c
        assert tensor_convert(t, "e") == want, basis


def test_e_to_m_builds_only_its_output_partitions(monkeypatch):
    s = sp_("1,2,3,4/5,6/7/8")
    built = []
    trusted = SetPartition._trusted

    def counting(blocks, ground):
        built.append(blocks)
        return trusted(blocks, ground)

    monkeypatch.setattr(SetPartition, "_trusted", staticmethod(counting))
    table = _key_convert.__wrapped__("e", "m", s)
    assert len(built) == len(table) == 658
    bottom = SetPartition.singletons(range(1, 9))
    want = {nu for nu in set_partitions(range(1, 9)) if meet(s, nu) == bottom}
    assert {nu for nu, _ in table} == want
    assert {c for _, c in table} == {1}


@pytest.mark.parametrize(
    "text,size", [("1,2,3,4/5,6/7/8", 14), ("1,2,3/4,5,6/7,8", 16)]
)
@pytest.mark.parametrize("basis,target", [("x", "e"), ("e", "x")])
def test_x_e_builds_only_its_output_partitions(monkeypatch, text, size, basis, target):
    # the refining walk builds a refinement only when its coefficient is
    # nonzero: 14 of the 30 refinements of the first key, 16 of the 50 of
    # the second
    s = sp_(text)
    built = []
    trusted = SetPartition._trusted

    def counting(blocks, ground):
        built.append(blocks)
        return trusted(blocks, ground)

    monkeypatch.setattr(SetPartition, "_trusted", staticmethod(counting))
    table = _key_convert.__wrapped__(basis, target, s)
    assert len(built) == len(table) == size
    assert all(is_refinement(sigma, s) for sigma, _ in table)


def _signature_walk_keys():
    for n in range(7):
        yield from set_partitions(range(1, n + 1)) if n else [SetPartition.empty()]
    # 4-bit signature fields
    yield sp_("1,5/2,6/3,7/4,8")
    yield sp_("1,2,3,4/5,6/7/8")


def test_signature_walks_visit_their_partitions_in_order():
    # each walk of _signature_rule, with and without a coefficient, visits
    # exactly its partitions of the key's ground set, in set_partitions order
    for pi in _signature_walk_keys():
        bottom = SetPartition.singletons(sorted(pi.ground))
        member = {
            "all": lambda s: True,
            "refinements": lambda s: is_refinement(s, pi),
            "coarsenings": lambda s: is_refinement(pi, s),
            "transversal": lambda s: meet(s, pi) == bottom,
        }
        for walk, keep in member.items():
            want = [s for s in set_partitions(pi.ground) if keep(s)]
            for coefficient in (None, lambda width, sig: 1):
                got = [nu for nu, _ in _by_signature(pi, coefficient, walk)]
                assert got == want, (pi, walk, coefficient)


def test_table_rows_match_their_defining_sums():
    # the defining formulas, summed here without the signature walk: the p
    # routes are Möbius sums over the refinements or, for m, the
    # coarsenings of the key, and e -> m is one on every nu that meets the
    # key in the bottom; m <-> p through degree 7, the others through 6
    for n in range(8):
        for pi in set_partitions(range(1, n + 1)) if n else [SetPartition.empty()]:
            coarser = list(lattice.coarsenings(pi))
            want = {
                ("m", "p"): {s: lattice.mobius(pi, s) for s in coarser},
                ("p", "m"): {s: 1 for s in coarser},
            }
            if n < 7:
                bottom = SetPartition.singletons(range(1, n + 1))
                unit = factorial(max(n - 1, 0)) // lattice.mobius(bottom, pi)
                finer = list(lattice.refinements(pi))
                want[("x", "p")] = {s: lattice.mobius(s, pi) for s in finer}
                want[("p", "x")] = {s: 1 for s in finer}
                want[("e", "p")] = {s: lattice.mobius(bottom, s) for s in finer}
                want[("p", "e")] = {s: lattice.mobius(s, pi) * unit for s in finer}
                want[("e", "m")] = {
                    s: 1 for s in set_partitions(pi.ground) if meet(s, pi) == bottom
                }
            for (basis, target), row in want.items():
                table = _key_convert.__wrapped__(basis, target, pi)
                assert len({s for s, _ in table}) == len(table)
                assert dict(table) == row, (basis, target, pi)


def test_convert_accumulates_over_a_common_denominator():
    a, b = sp_("13/2/4"), sp_("1234")
    for basis, target in itertools.permutations(BASES, 2):
        expr = NCSymExpr(basis, {a: Fraction(1, 6), b: Fraction(-3, 4)})
        want = convert(NCSymExpr.element(basis, a), target) * Fraction(1, 6)
        want = want + convert(NCSymExpr.element(basis, b), target) * Fraction(-3, 4)
        assert convert(expr, target) == want
        assert coproduct(expr) == coproduct(NCSymExpr.element(basis, a)) * Fraction(
            1, 6
        ) + coproduct(NCSymExpr.element(basis, b)) * Fraction(-3, 4)
        t = NCTensorExpr(basis, {(a, b): Fraction(2, 3), (b, a): Fraction(1, 2)})
        assert tensor_convert(t, target) == tensor_convert(
            NCTensorExpr(basis, {(a, b): 1}), target
        ) * Fraction(2, 3) + tensor_convert(
            NCTensorExpr(basis, {(b, a): 1}), target
        ) * Fraction(1, 2)


def test_oracle_routes_stay_independent():
    # x -> m takes its block weight from the lattice, not from the orientation
    # counts that x_to_m_top and the x-to-m check compare it with
    orientation_route = {
        "graphs",
        "count_acyclic_unique_sink",
        "chromatic_polynomial",
        "x_to_m_top",
    }
    assert not reachable_names(expressions, "_key_convert") & orientation_route
    assert "graphs" not in imported_names(lattice)
    orientation_names = reachable_names(graphs, "count_acyclic_unique_sink")
    assert "refinement_counts" not in orientation_names
    # the enumeration backend is the oracle for the chromatic route, so it
    # reaches neither the polynomial nor the stable partitions behind it
    assert not reachable_names(graphs, "count_acyclic_unique_sink_by_enumeration") & {
        "chromatic_polynomial",
        "stable_partitions",
        "refinements",
        "quotient_at_zero",
    }
    assert not reachable_names(expressions, "x_to_m_top") & {
        "_key_convert",
        "_per_block",
        "top_refinement_sum",
        "refinement_counts",
    }
    # x_to_m_top and the chromatic counts enumerate: neither reaches the
    # lattice's closed-form counts that x -> m multiplies
    for name in ("chromatic_polynomial", "count_acyclic_unique_sink"):
        assert not reachable_names(graphs, name) & {
            "refinement_counts",
            "top_refinement_sum",
            "_stirling_row",
        }, name
    # the Sym rows never reach the monomial oracle that checks them
    assert "monomials" not in imported_names(sym)
    assert not reachable_names(sym, "_key_convert_sym") & {"monomials", "expand_c"}
    # the basis changes that involve m read their coefficients off one
    # signature walk, or e -> m off one clash walk with weight one; the
    # routes they are checked against never reach them
    signature_route = {"_by_signature", "_per_block", "_m_to", "top_refinement_sum"}
    assert signature_route | {"_rgs_blocks"} <= reachable_names(
        expressions, "_key_convert"
    )
    # every basis change walks one signature walk, never the lattice's
    # enumerations or Möbius values: the x expansion of the monomial oracle
    # and the fock triangulation check walk the refinements, and the m
    # expansion of the benchmark's power-sum oracle sums mobius over the
    # coarsenings
    lattice_route = {"coarsenings", "mobius", "interval", "refinements"}
    assert not (lattice_route | {"_bottom"}) & reachable_names(expressions, "_key_convert")
    assert "refinements" in reachable_names(monomials, "expand_nc")
    assert "refinements" in reachable_names(checks, "_fock_triangulation")
    # the rows into e carry a scale that only their readers divide out
    assert "_e_scale" in reachable_names(expressions, "_key_convert")
    table_route = signature_route | {"_e_scale"}
    for name in (
        "x_to_m_top",
        "x_e_expansion_coefficient",
        "x_top_coproduct_coefficient",
    ):
        assert not reachable_names(expressions, name) & table_route, name
    for name in (
        "bell_triangle",
        "_mobius_recursion",
        "_lattice_streams",
        "_stable_partitions",
        "_chromatic_values",
    ):
        assert not reachable_names(checks, name) & table_route, name
    assert "expressions" not in imported_names(monomials)
    assert "_e_scale" not in Path(monomials.__file__).read_text()
    # x <-> e multiplies the block weights h and f over the refinements of
    # the key; the conjecture report compares x -> e with the interval sum,
    # once per shape, and neither the interval sum nor the report's helper
    # reaches the tables or the block weights
    shape_route = {
        "_per_block",
        "_x_to_e_block",
        "_e_to_x_block",
        "_groupings",
        "_coarsening_sum",
    }
    assert shape_route <= reachable_names(expressions, "_key_convert")
    assert not reachable_names(expressions, "_key_convert") & {
        "interval",
        "x_e_expansion_coefficient",
    }
    assert not reachable_names(expressions, "x_e_expansion_coefficient") & (
        shape_route | {"_key_convert", "convert"}
    )
    report_oracle = reachable_names(checks, "_interval_sum_by_shape")
    assert "x_e_expansion_coefficient" in report_oracle
    assert not report_oracle & (
        shape_route | {"_key_convert", "convert", "set_partitions_of_shape", "bracket"}
    )
    # every coproduct, graded or species, multiplies the block choices of
    # one split rule, which reads the x block weights; the interval sums and
    # the check that compare with it never reach that rule or those weights
    split_rule = {"_split_terms", "_block_splits", "top_refinement_sum"}
    assert "_split_terms" in reachable_names(expressions, "_key_coproduct")
    assert {"_block_splits", "top_refinement_sum"} <= reachable_names(
        species, "_split_terms"
    )
    assert split_rule <= reachable_names(species, "delta_key")
    interval_route = {"mobius", "interval", "refinements", "c_coefficient"}
    assert not reachable_names(species, "delta_key") & interval_route
    assert not reachable_names(expressions, "_key_coproduct") & (
        interval_route | {"x_coproduct_coefficient"}
    )
    assert not reachable_names(species, "c_coefficient") & (split_rule | {"delta_key"})
    for name in ("x_coproduct_coefficient", "x_top_coproduct_coefficient"):
        assert not reachable_names(expressions, name) & (
            split_rule | {"delta_key", "_key_coproduct"}
        ), name
    assert not reachable_names(checks, "_species_x_coproduct") & split_rule


def test_hopf_operations_use_their_own_rules():
    # p is a hub for convert only: no product, coproduct or projection
    # detours through another basis, and the m product rule lives in species
    conversions = {"convert", "_key_convert", "convert_sym"}
    for name in ("_key_product", "tensor_product", "_key_coproduct", "rho"):
        assert not reachable_names(expressions, name) & conversions, name
    assert "mu_key" in reachable_names(expressions, "_key_product")
    assert "permutations" not in reachable_names(expressions, "_key_product")
    # product converts only its right operand
    tree = next(
        node
        for node in ast.parse(Path(expressions.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "product"
    )
    calls = [
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert calls.count("convert") == 1
    assert not set(calls) & (conversions - {"convert"})


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


def test_public_coefficients_are_fractions():
    """Internal tables hold ints; every public result holds Fractions."""
    keys = [p for n in range(5) for p in set_partitions(range(1, n + 1))]
    for basis in BASES:
        for pi in keys:
            element = NCSymExpr.element(basis, pi)
            cop = coproduct(element)
            assert _all_fractions(cop.terms.values())
            for target in BASES:
                assert _all_fractions(convert(element, target).terms.values())
                assert _all_fractions(tensor_convert(cop, target).terms.values())
            assert _all_fractions(rho(element).terms.values())
    for n in range(1, 5):
        assert _all_fractions(x_to_m_top(n).terms.values())
        for lam in integer_partitions(n):
            lifted = lift_R(SymExpr("m", {lam: 1}))
            assert _all_fractions(lifted.terms.values())


def test_x_e_expansion_coefficient():
    assert x_e_expansion_coefficient(top(2), sp_("12")) == -1
    assert x_e_expansion_coefficient(sp_("1/2/3"), sp_("12/3")) == 0
    with pytest.raises(ValueError):
        x_e_expansion_coefficient(top(3), sp_("12"))
    # degree 3: every nonzero coefficient is 1/2, the bottom coefficient vanishes
    values = {
        str(s): x_e_expansion_coefficient(top(3), s)
        for s in set_partitions(range(1, 4))
    }
    assert values == {
        "1,2,3": Fraction(1, 2),
        "1,2/3": Fraction(1, 2),
        "1,3/2": Fraction(1, 2),
        "1/2,3": Fraction(1, 2),
        "1/2/3": Fraction(0),
    }
    for n in range(5):
        for pi in set_partitions(range(1, n + 1)):
            ee = convert(NCSymExpr.element("x", pi), "e")
            for sigma in set_partitions(range(1, n + 1)):
                assert x_e_expansion_coefficient(pi, sigma) == ee.coefficient(sigma)


def test_degree_cap(monkeypatch):
    monkeypatch.setenv("NCSYM_MAX_DEGREE", "3")
    expr = NCSymExpr.element("x", top(4))
    with pytest.raises(DegreeLimitError):
        convert(expr, "m")
    with pytest.raises(DegreeLimitError):
        coproduct(expr)
    for legs in ((top(4), top(1)), (top(1), top(4))):
        with pytest.raises(DegreeLimitError):
            tensor_convert(NCTensorExpr("x", {legs: 1}), "m")
    with pytest.raises(DegreeLimitError):
        x_e_expansion_coefficient(top(4), sp_("1/2/3/4"))
    with pytest.raises(DegreeLimitError):
        set_partitions_of_shape(ip_(13))
    # the leg placements are guarded before they are built
    with pytest.raises(DegreeLimitError):
        x_coproduct_coefficient(top(4), top(2), top(2))
    with pytest.raises(DegreeLimitError):
        x_top_coproduct_coefficient(4, top(2), top(2))
    monkeypatch.setenv("NCSYM_MAX_DEGREE", "not-a-number")
    with pytest.raises(DegreeLimitError):
        convert(expr, "m")


def test_arithmetic_auto_conversion():
    a = elt("p", "12")
    b = elt("x", "12")
    total = a + b
    assert total.basis == "p"
    assert total == NCSymExpr("p", {sp_("12"): 2, sp_("1/2"): -1})
    assert (a - a).is_zero()
    assert (2 * a).coefficient(sp_("12")) == 2
    with_unit = a + 1
    assert with_unit.coefficient(SetPartition.empty()) == 1
