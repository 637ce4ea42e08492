import itertools
from fractions import Fraction
from math import factorial, prod

import pytest

from ncsym import (
    CPolynomial,
    IntegerPartition,
    NCPolynomial,
    Permutation,
    commute,
    expand_c,
    expand_nc,
    integer_partitions,
    position_permute,
    set_partitions,
    symmetrize_R,
)

from conftest import ip_, sp_


def test_monomial_expansion_pattern():
    poly = expand_nc("m", sp_("13/2"), 2)
    assert poly.terms == {(1, 2, 1): 1, (2, 1, 2): 1}


def test_elementary_expansion_pattern():
    poly = expand_nc("e", sp_("13/2"), 2)
    assert poly.terms == {
        (1, 1, 2): 1,
        (1, 2, 2): 1,
        (2, 2, 1): 1,
        (2, 1, 1): 1,
    }


def test_power_expansion_contains_constant_words():
    poly = expand_nc("p", sp_("13/2"), 2)
    assert poly.coefficient((1, 2, 1)) == 1
    assert poly.coefficient((1, 1, 1)) == 1
    assert len(poly.terms) == 4


def test_extra_expansion_matches_negated_monomials():
    k = 3
    got = expand_nc("x", sp_("13/2"), k)
    want = -(
        expand_nc("m", sp_("1/2/3"), k)
        + expand_nc("m", sp_("12/3"), k)
        + expand_nc("m", sp_("1/23"), k)
    )
    assert got == want


def test_unit_expansions():
    from ncsym import SetPartition

    assert expand_nc("p", SetPartition.empty(), 2).terms == {(): 1}
    assert expand_c("p", IntegerPartition(), 2).terms == {(0, 0): 1}


def test_commutative_monomial():
    poly = expand_c("m", ip_(2, 1), 2)
    assert poly.terms == {(2, 1): 1, (1, 2): 1}


def test_commutative_power():
    got = expand_c("p", ip_(2, 1), 2)
    p2 = CPolynomial(2, {(2, 0): 1, (0, 2): 1})
    p1 = CPolynomial(2, {(1, 0): 1, (0, 1): 1})
    assert got == p2 * p1


def test_commutative_elementary_truncation():
    assert expand_c("e", ip_(1), 1).terms == {(1,): 1}
    assert expand_c("e", ip_(2), 1).terms == {}


def test_commute_word():
    poly = NCPolynomial(3, {(2, 1, 2): Fraction(3)})
    assert commute(poly).terms == {(1, 2, 0): 3}


def test_commute_scalars():
    from ncsym import lambda_factorial, lambda_superfactorial

    for n in range(5):
        for pi in set_partitions(range(1, n + 1)):
            lam = pi.shape()
            k = 4
            assert commute(expand_nc("p", pi, k)) == expand_c("p", lam, k)
            assert commute(expand_nc("m", pi, k)) == lambda_superfactorial(
                lam
            ) * expand_c("m", lam, k)
            assert commute(expand_nc("e", pi, k)) == lambda_factorial(lam) * expand_c(
                "e", lam, k
            )


def test_polynomials_of_two_kinds_neither_add_nor_multiply():
    # a word and an exponent vector are both int tuples, so mixing them
    # would silently read one as the other
    nc = NCPolynomial(2, {(1, 2): 1})
    c = CPolynomial(2, {(1, 1): 1})
    for combine in (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
    ):
        for a, b in ((nc, c), (c, nc)):
            with pytest.raises(TypeError):
                combine(a, b)
    assert nc != NCPolynomial(2, {(1, 1): 1}) and c != CPolynomial(2, {(1, 2): 1})
    assert nc != CPolynomial(2, {(1, 2): 1}) and c != NCPolynomial(2, {(1, 1): 1})
    assert nc * nc == NCPolynomial(2, {(1, 2, 1, 2): 1})
    assert c * c == CPolynomial(2, {(2, 2): 1})
    assert repr(c - c) == "CPolynomial(k=2, 0 terms)"
    with pytest.raises(ValueError, match="variable counts differ"):
        nc + NCPolynomial(3, {(1, 2): 1})


def test_symmetrize_single_variable_power():
    q = CPolynomial(2, {(3, 0): 1})
    assert symmetrize_R(q, 3).terms == {(1, 1, 1): 1}


def test_symmetrize_round_trip():
    for n in range(1, 5):
        q = expand_c("e", ip_(*([1] * n)), 3)
        assert commute(symmetrize_R(q, n)) == q
    mixed = CPolynomial(3, {(2, 1, 0): Fraction(5), (0, 1, 2): Fraction(-2)})
    assert commute(symmetrize_R(mixed, 3)) == mixed


def test_symmetrize_rejects_mixed_degree():
    with pytest.raises(ValueError):
        symmetrize_R(CPolynomial(2, {(1, 0): 1, (2, 0): 1}), 1)


def test_position_permute_matches_relabeled_keys():
    from ncsym import apply_permutation

    k = 3
    for n in range(4):
        for pi in set_partitions(range(1, n + 1)):
            for eta_tuple in itertools.permutations(range(1, n + 1)):
                eta = Permutation(eta_tuple)
                for basis in "mpex":
                    assert position_permute(
                        expand_nc(basis, pi, k), eta
                    ) == expand_nc(basis, apply_permutation(eta, pi), k)


def _accumulating_position_permute(poly, eta):
    # the reference: accumulate each moved term, then clean
    n = len(eta)
    source = [eta.inverse()(j) - 1 for j in range(1, n + 1)]
    terms = {}
    for word, c in poly.terms.items():
        new = tuple(word[i] for i in source)
        terms[new] = terms.get(new, 0) + c
    return NCPolynomial(poly.k, terms)


def test_position_permute_keeps_the_accumulating_definition():
    k = 4
    for pi in set_partitions(range(1, 5)):
        for basis in "mpex":
            poly = expand_nc(basis, pi, k)
            for eta_tuple in itertools.permutations(range(1, 5)):
                eta = Permutation(eta_tuple)
                assert position_permute(poly, eta) == _accumulating_position_permute(poly, eta)


def test_position_permute_on_words_of_degree_zero_and_one():
    # itemgetter takes no empty index list and returns a bare letter for one
    empty = NCPolynomial(2, {(): Fraction(3, 2)})
    assert position_permute(empty, Permutation(())).terms == {(): Fraction(3, 2)}
    single = NCPolynomial(3, {(2,): 1, (3,): Fraction(-1, 2)})
    got = position_permute(single, Permutation((1,)))
    assert got.terms == {(2,): 1, (3,): Fraction(-1, 2)}
    assert [type(c) for c in got.terms.values()] == [int, Fraction]
    assert position_permute(NCPolynomial(2), Permutation((2, 1))).terms == {}


def test_position_permute_carries_fraction_coefficients_unchanged():
    poly = NCPolynomial(3, {(1, 2, 3): Fraction(2, 3), (3, 1, 1): -4})
    got = position_permute(poly, Permutation((2, 3, 1)))
    # position j receives the letter from eta^{-1}(j)
    assert got.terms == {(3, 1, 2): Fraction(2, 3), (1, 3, 1): -4}
    assert [type(c) for c in got.terms.values()] == [Fraction, int]
    assert got == _accumulating_position_permute(poly, Permutation((2, 3, 1)))


def test_position_permute_rejects_words_of_another_degree():
    eta = Permutation((2, 3, 1))
    # a longer word would be cut short by itemgetter, a shorter one fail in it
    for words, degree in (
        ({(1, 2, 3, 1): 1}, 4),
        ({(1, 2): 1}, 2),
        ({(1, 2, 3): 1, (1, 1): 2, (1, 1, 1, 1): 3}, 2),
        ({(): 1}, 0),
    ):
        with pytest.raises(ValueError) as err:
            position_permute(NCPolynomial(3, words), eta)
        assert str(err.value) == f"permutation of size 3 cannot act on a degree {degree} word"
    with pytest.raises(ValueError) as err:
        position_permute(NCPolynomial(3, {(1,): 1}), Permutation(()))
    assert str(err.value) == "permutation of size 0 cannot act on a degree 1 word"


def test_distinct_arrangements_match_the_set_of_permutations():
    # the reference builds every ordering and keeps one of each through a set
    for n in range(6):
        for lam in integer_partitions(n):
            for k in range(1, 7):
                got = expand_c("m", lam, k)
                if len(lam.parts) > k:
                    assert got.terms == {}
                    continue
                exps = lam.parts + (0,) * (k - len(lam.parts))
                assert got.terms == {e: 1 for e in set(itertools.permutations(exps))}
                want = {}
                for e in got.terms:
                    letters = [v + 1 for v, m in enumerate(e) for _ in range(m)]
                    weight = Fraction(prod(factorial(m) for m in e), factorial(n))
                    for word in set(itertools.permutations(letters)):
                        want[word] = want.get(word, 0) + weight
                assert symmetrize_R(got, n) == NCPolynomial(k, want)


def test_product_of_power_expansions():
    from ncsym import slash

    k = 4
    a, b = sp_("12"), sp_("1/2")
    assert expand_nc("p", a, k) * expand_nc("p", b, k) == expand_nc(
        "p", slash(a, b), k
    )


def test_truncation_consistency():
    for n in range(4):
        for pi in set_partitions(range(1, n + 1)):
            for basis in "mpex":
                small = expand_nc(basis, pi, 3)
                big = expand_nc(basis, pi, 4)
                restricted = {
                    w: c for w, c in big.terms.items() if all(x <= 3 for x in w)
                }
                assert restricted == small.terms


def test_coefficients_are_ints_when_integral_and_read_as_fractions():
    from ncsym import mobius, refinements

    k = 3
    for pi in set_partitions(range(1, 4)):
        poly = expand_nc("x", pi, k)
        # the defining sum accumulated in Fractions, as the terms once were
        old = {}
        for sigma in refinements(pi):
            for word in expand_nc("p", sigma, k).terms:
                old[word] = old.get(word, Fraction(0)) + Fraction(mobius(sigma, pi))
        assert poly.terms == {w: c for w, c in old.items() if c}
        assert all(type(c) is int for c in poly.terms.values())
        for word in itertools.product(range(1, k + 1), repeat=3):
            got = poly.coefficient(word)
            assert type(got) is Fraction and got == old.get(word, 0)
    lifted = symmetrize_R(CPolynomial(2, {(2, 1): 1}), 3)
    third = Fraction(1, 3)
    assert lifted.terms == {(1, 1, 2): third, (1, 2, 1): third, (2, 1, 1): third}
    assert all(type(c) is Fraction for c in lifted.terms.values())
    assert (3 * lifted).terms == {w: 1 for w in lifted.terms}
    assert all(type(c) is int for c in (3 * lifted).terms.values())
    assert NCPolynomial(2, {(1,): Fraction(4, 2), (2,): Fraction(0)}).terms == {(1,): 2}
    c_poly = expand_c("x", ip_(2, 1), k)
    assert all(type(c) is int for c in c_poly.terms.values())
    assert type(c_poly.coefficient((3, 0, 0))) is Fraction
    assert type(c_poly.coefficient((0, 0, 0))) is Fraction
    assert c_poly.coefficient((2, 1, 0)) == Fraction(-2)
