import itertools

import pytest

from ncsym import (
    IntegerPartition,
    Permutation,
    SetPartition,
    apply_permutation,
    bracket,
    bracket_permutation,
    concat,
    disjoint_union,
    integer_partitions,
    lambda_factorial,
    lambda_superfactorial,
    set_partitions,
    slash,
)

from conftest import ip_, sp_


def test_canonical_form():
    p = SetPartition([[4, 2], [3, 1]])
    assert p.blocks == ((1, 3), (2, 4))
    assert p.ground == frozenset({1, 2, 3, 4})
    assert len(p) == 2 and p.size == 4


def test_empty_partition():
    e = SetPartition.empty()
    assert e.blocks == () and e.ground == frozenset()
    assert str(e) == "()"
    assert SetPartition.parse("()") == e


def test_invalid_blocks():
    with pytest.raises(ValueError):
        SetPartition([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        SetPartition([[]])
    with pytest.raises(ValueError):
        SetPartition([[0, 1]])
    # the enumerator skips per-partition validation but checks its ground set
    for ground in ([0, 1], [2, 2, 3]):
        with pytest.raises(ValueError):
            list(set_partitions(ground))


@pytest.mark.parametrize(
    "text,blocks",
    [
        ("1,3/2,4", ((1, 3), (2, 4))),
        ("13/24", ((1, 3), (2, 4))),
        ("1/2/3", ((1,), (2,), (3,))),
        ("10", ((10,),)),
        ("10,11/12", ((10, 11), (12,))),
        ("13", ((1, 3),)),
    ],
)
def test_parse_forms(text, blocks):
    assert SetPartition.parse(text).blocks == blocks


def test_parse_print_round_trip():
    for n in range(5):
        for pi in set_partitions(range(1, n + 1)):
            assert SetPartition.parse(str(pi)) == pi


def test_lambda_factorial():
    assert lambda_factorial(ip_(3, 2, 2, 1)) == 24
    assert lambda_factorial(IntegerPartition()) == 1
    assert lambda_factorial(ip_(1, 1, 1)) == 1


def test_lambda_superfactorial():
    assert lambda_superfactorial(ip_(3, 2, 2, 1)) == 2
    assert lambda_superfactorial(IntegerPartition()) == 1
    assert lambda_superfactorial(ip_(2, 2, 2)) == 6


def test_concat():
    assert concat(ip_(3, 2, 2, 1), ip_(2, 2, 1)) == ip_(3, 2, 2, 2, 2, 1, 1)
    lam = ip_(4, 1)
    assert concat(lam, IntegerPartition()) == lam
    assert concat(ip_(1), ip_(3)) == ip_(3, 1)


def test_integer_partition_parse_strict():
    assert IntegerPartition.parse("3,2,1") == ip_(3, 2, 1)
    with pytest.raises(ValueError):
        IntegerPartition.parse("2,3")
    with pytest.raises(ValueError):
        IntegerPartition.parse("2,0")


def test_shape():
    assert sp_("1,6,7/3,8").shape() == ip_(3, 2)
    assert SetPartition.empty().shape() == IntegerPartition()
    assert sp_("1,2,3,4").shape() == ip_(4)


def test_standardize():
    assert sp_("1,6,7/3,8").standardize() == sp_("1,3,4/2,5")
    assert sp_("13/24").standardize() == sp_("13/24")
    assert SetPartition([[5], [9]]).standardize() == sp_("1/2")
    for pi in set_partitions({3, 7, 11, 20}):
        assert pi.standardize().standardize() == pi.standardize()


def test_restrict():
    assert sp_("12/35/4").restrict({1, 2}) == SetPartition([[1, 2]])
    a = sp_("12/35/4")
    assert a.restrict(a.ground) == a
    assert sp_("123/4").restrict({3, 4}) == SetPartition([[3], [4]])
    with pytest.raises(ValueError):
        sp_("12").restrict({1, 3})


def test_disjoint_union():
    assert disjoint_union(sp_("12"), sp_("35/4")) == sp_("12/35/4")
    a = sp_("13/2")
    assert disjoint_union(a, SetPartition.empty()) == a
    assert disjoint_union(sp_("13"), sp_("2")) == sp_("13/2")
    with pytest.raises(ValueError):
        disjoint_union(sp_("12"), sp_("23"))


def test_slash():
    assert slash(sp_("13/24"), sp_("13/2")) == sp_("13/24/57/6")
    pi = sp_("12/3")
    assert slash(pi, SetPartition.empty()) == pi
    assert slash(sp_("12"), sp_("12")) == sp_("12/34")
    with pytest.raises(ValueError):
        slash(sp_("13"), sp_("1"))


def test_apply_permutation():
    eta = Permutation([1, 3, 2, 4])
    assert apply_permutation(eta, sp_("13/24")) == sp_("12/34")
    assert apply_permutation(eta, sp_("12/34")) == sp_("13/24")
    ident = Permutation.identity(4)
    assert apply_permutation(ident, sp_("13/24")) == sp_("13/24")
    with pytest.raises(ValueError):
        apply_permutation(Permutation([1, 2]), sp_("13/24"))


def test_bracket():
    assert bracket(ip_(2, 2)) == sp_("12/34")
    assert bracket(ip_(4)) == sp_("1234")
    assert bracket(ip_(2, 1)) == sp_("12/3")
    assert bracket(IntegerPartition()) == SetPartition.empty()


def test_permutation_group_laws():
    perms = [Permutation(p) for p in itertools.permutations(range(1, 5))]
    pi = sp_("13/24")
    for e1 in perms[:8]:
        for e2 in perms[:8]:
            assert apply_permutation(e1, apply_permutation(e2, pi)) == apply_permutation(
                e1 * e2, pi
            )
        assert e1 * e1.inverse() == Permutation.identity(4)
    for eta in perms:
        assert apply_permutation(eta, pi).shape() == pi.shape()


def test_slash_shape_is_concat():
    for pi in set_partitions(range(1, 4)):
        for sigma in set_partitions(range(1, 3)):
            assert slash(pi, sigma).shape() == concat(pi.shape(), sigma.shape())


def test_bracket_permutation_reaches_every_partition():
    for n in range(8):
        for pi in set_partitions(range(1, n + 1)):
            eta = bracket_permutation(pi)
            assert apply_permutation(eta, bracket(pi.shape())) == pi


def test_restriction_splitting():
    # restrictions to the two sides reassemble exactly when no block straddles
    for pi in set_partitions(range(1, 5)):
        for r in range(5):
            for chosen in itertools.combinations(range(1, 5), r):
                s1 = set(chosen)
                s2 = pi.ground - s1
                rejoined = disjoint_union(pi.restrict(s1), pi.restrict(s2))
                straddles = any(
                    set(blk) & s1 and set(blk) & s2 for blk in pi.blocks
                )
                assert (rejoined == pi) == (not straddles)


def test_integer_partitions_enumeration():
    assert [p.parts for p in integer_partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    counts = [len(list(integer_partitions(n))) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
