import itertools
from collections import Counter

import pytest

from ncsym import (
    SetPartition,
    coarsenings,
    interval,
    is_refinement,
    join,
    meet,
    mobius,
    mobius_to_top,
    refinements,
    set_partitions,
    slash,
)
from ncsym.checks import bell_triangle
from ncsym.lattice import _rgs_blocks, merge_mobius, refinement_counts
from ncsym.partitions import bracket, integer_partitions
from ncsym.expressions import _bottom

from conftest import sp_


def test_is_refinement():
    assert is_refinement(sp_("1/3/24"), sp_("13/24"))
    a = sp_("13/24")
    assert is_refinement(a, a)
    assert not is_refinement(sp_("12/3"), sp_("13/2"))
    with pytest.raises(ValueError):
        is_refinement(sp_("12"), sp_("123"))


def test_meet():
    assert meet(sp_("12/34"), sp_("13/24")) == sp_("1/2/3/4")
    a = sp_("13/24")
    assert meet(a, a) == a
    assert meet(a, sp_("1234")) == a


def test_join():
    assert join(sp_("12/34"), sp_("13/24")) == sp_("1234")
    a = sp_("13/24")
    assert join(a, a) == a
    assert join(a, sp_("1/2/3/4")) == a


def test_enumeration_order_and_counts():
    assert [str(p) for p in set_partitions({1, 2})] == ["1,2", "1/2"]
    assert list(set_partitions(set())) == [SetPartition.empty()]
    assert len(list(set_partitions(range(1, 6)))) == 52
    bells = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    assert bell_triangle(8) == bells
    for n in range(7):
        seen = list(set_partitions(range(1, n + 1)))
        assert len(seen) == len(set(seen)) == bells[n]


def _rgs_reference(elems, unit=None, clash=None):
    """(blocks, words) for every itertools.product sequence that is a
    restricted growth string, in lexicographic order, dropping those where
    an element joins a block whose earlier elements' units meet its clash."""
    n = len(elems)
    unit = unit or [0] * n
    clash = clash or [0] * n
    at = {x: i for i, x in enumerate(elems)}
    out = []
    # entry i of a restricted growth string is at most i
    for seq in itertools.product(*(range(i + 1) for i in range(n))):
        if any(seq[i] > max(seq[:i]) + 1 for i in range(1, n)):
            continue
        blocks = tuple(
            tuple(x for x, b in zip(elems, seq) if b == j)
            for j in range(max(seq, default=-1) + 1)
        )
        if any(
            sum(unit[at[y]] for y in blk[:k]) & clash[at[x]]
            for blk in blocks
            for k, x in enumerate(blk)
        ):
            continue
        words = tuple(sum(unit[at[x]] for x in blk) for blk in blocks)
        out.append((blocks, words))
    return out


WALK_GROUNDS = [tuple(range(1, n + 1)) for n in range(8)] + [
    (4,),
    (2, 5, 11, 13, 20),
    (3, 7, 10, 12, 15, 16),
    # eight elements: with unit and clash the walk backtracks through a
    # stack of full depth
    (1, 3, 4, 6, 9, 10, 12, 14),
]


@pytest.mark.parametrize("elems", WALK_GROUNDS, ids=str)
def test_partition_walk_matches_brute_force(elems):
    reference = _rgs_reference(elems)
    assert list(_rgs_blocks(elems)) == [blocks for blocks, _ in reference]
    # the signature units of keys on the ground: one packed count field of
    # n.bit_length() bits per key block; the one-block key of size 3 or 7
    # fills its field, and with clash = unit it leaves only the bottom
    width = len(elems).bit_length()
    keys = [[elems], [(x,) for x in elems], [elems[::2], elems[1::2]], [elems[:3], elems[3:]]]
    for key in keys:
        owner = {x: i for i, blk in enumerate(key) for x in blk}
        unit = [1 << width * owner[x] for x in elems]
        assert list(_rgs_blocks(elems, unit)) == _rgs_reference(elems, unit)
        skipped = _rgs_reference(elems, unit, unit)
        assert list(_rgs_blocks(elems, unit, unit)) == skipped
    if elems:
        ones = [1] * len(elems)
        assert next(_rgs_blocks(elems, ones)) == ((elems,), (len(elems),))
        bottom = (tuple((x,) for x in elems), tuple(ones))
        assert list(_rgs_blocks(elems, ones, ones)) == [bottom]


def test_partition_walk_is_lazy():
    # Bell(15) is about 1.4e9: only a lazy walk hands out its first partitions
    walk = set_partitions(range(1, 16))
    assert next(walk) == SetPartition.whole(range(1, 16))
    assert next(walk) == SetPartition([range(1, 15), (15,)])
    blocks = _rgs_blocks(range(1, 16), [1] * 15, [1] * 15)
    assert next(blocks) == (tuple((x,) for x in range(1, 16)), (1,) * 15)


def _assert_canonical(p):
    q = SetPartition(p.blocks)
    assert (p.blocks, p.ground, hash(p)) == (q.blocks, q.ground, hash(q))


@pytest.mark.parametrize("ground", [(3, 7, 10, 12, 15), (2, 5, 11, 13)])
def test_unvalidated_construction_is_canonical(ground):
    """Enumerators and order-preserving relabelings skip validation; their
    output must equal what the validating constructor makes of it."""
    parts = list(set_partitions(ground))
    for p in parts:
        _assert_canonical(p)
        _assert_canonical(p.standardize())
        for q in refinements(p):
            _assert_canonical(q)
        for q in coarsenings(p):
            _assert_canonical(q)
        for upper in parts:
            for q in interval(p, upper):
                _assert_canonical(q)
    for a in parts[::5]:
        for b in set_partitions(range(1, 4)):
            _assert_canonical(slash(a.standardize(), b))
            _assert_canonical(slash(b, a.standardize()))
    _assert_canonical(_bottom(frozenset(ground)))
    _assert_canonical(_bottom(frozenset()))


def test_mobius_values():
    assert mobius(sp_("1/3/24"), sp_("13/24")) == -1
    assert mobius(sp_("1/3/24"), sp_("1234")) == 2
    a = sp_("12/34/5")
    assert mobius(a, a) == 1
    with pytest.raises(ValueError):
        mobius(sp_("12/3"), sp_("13/2"))


def test_mobius_to_top():
    assert mobius_to_top(sp_("1/3/24")) == 2
    assert mobius_to_top(sp_("12345")) == 1
    assert mobius_to_top(sp_("1/2/3/4")) == -6
    with pytest.raises(ValueError):
        mobius_to_top(SetPartition.empty())


def test_merge_mobius():
    assert [merge_mobius(c) for c in range(1, 7)] == [1, -1, 2, -6, 24, -120]
    for n in range(1, 7):
        for pi in set_partitions(range(1, n + 1)):
            assert merge_mobius(len(pi.blocks)) == mobius_to_top(pi)


def test_refinement_counts_match_enumeration():
    assert refinement_counts(()) == (1,)
    for n in range(8):
        for lam in integer_partitions(n):
            by_blocks = Counter(len(s.blocks) for s in refinements(bracket(lam)))
            row = refinement_counts(lam.parts)
            assert sum(row) == sum(by_blocks.values())
            assert all(row[j] == by_blocks[j] for j in range(len(row)))
            # the count does not depend on the order of the block sizes
            assert refinement_counts(tuple(reversed(lam.parts))) == row


def test_mobius_recursion():
    # closed form satisfies the defining recursion on every interval, n <= 6
    for n in range(7):
        for upper in set_partitions(range(1, n + 1)):
            for lower in refinements(upper):
                total = sum(mobius(mid, upper) for mid in interval(lower, upper))
                assert total == (1 if lower == upper else 0)


def test_mobius_block_factorization():
    for n in range(6):
        for upper in set_partitions(range(1, n + 1)):
            for lower in refinements(upper):
                prod = 1
                for blk in upper.blocks:
                    prod *= mobius_to_top(lower.restrict(blk).standardize())
                assert prod == mobius(lower, upper)


def test_refinements_coarsenings_interval_brute():
    for n in range(5):
        universe = list(set_partitions(range(1, n + 1)))
        for pi in universe:
            assert set(refinements(pi)) == {
                s for s in universe if is_refinement(s, pi)
            }
            assert set(coarsenings(pi)) == {
                s for s in universe if is_refinement(pi, s)
            }
            for sigma in universe:
                want = {
                    c
                    for c in universe
                    if is_refinement(sigma, c) and is_refinement(c, pi)
                }
                assert set(interval(sigma, pi)) == want


def test_lattice_axioms_small():
    parts4 = list(set_partitions(range(1, 5)))
    for a in parts4:
        for b in parts4:
            assert meet(a, b) == meet(b, a)
            assert join(a, b) == join(b, a)
            assert meet(a, join(a, b)) == a
            assert join(a, meet(a, b)) == a


def test_lattice_suite_through_degree_five():
    from ncsym.checks import run_suite

    for result in run_suite("lattice", max_n=5) + run_suite("mobius", max_n=5):
        assert result.passed, f"{result.name}: {result.detail}"
