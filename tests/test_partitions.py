import collections
import copy
import itertools
import pickle
import sys
import threading
import types

import pytest

import ncsym
from ncsym import (
    IntegerPartition,
    Permutation,
    SetPartition,
    apply_permutation,
    bracket,
    bracket_permutation,
    coarsenings,
    concat,
    convert,
    disjoint_union,
    format_terms,
    integer_partitions,
    interval,
    join,
    lambda_factorial,
    lambda_superfactorial,
    meet,
    parse_ncsym,
    refinements,
    set_partitions,
    slash,
    terms_json,
)
from ncsym import partitions

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
        ("15,", ((15,),)),
        ("3/12,", ((3,), (12,))),
        ("13,", ((13,),)),
        ("1,2,", ((1, 2),)),
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


@pytest.mark.parametrize("text", [",", "1,,", "1/,", "/"])
def test_parse_rejects_bare_and_doubled_commas(text):
    with pytest.raises(ValueError, match="malformed block"):
        SetPartition.parse(text)


# ---------------------------------------------------------------- interning


def _first_equal(blocks):
    """The first partition equal to ``blocks`` that an iterable yields."""
    want = SetPartition(blocks)
    return lambda parts: next(p for p in parts if p == want)


def test_equal_inputs_give_one_object():
    pi = SetPartition([[3, 1], [2]])
    first = _first_equal([[1, 3], [2]])
    bottom, top = SetPartition.singletons([1, 2, 3]), SetPartition.whole([1, 2, 3])
    built = {
        "constructor": SetPartition(((1, 3), (2,))),
        "parse digits": SetPartition.parse("13/2"),
        "parse commas": SetPartition.parse(" 3,1 / 2 "),
        "set_partitions": first(set_partitions([3, 2, 1])),
        "refinements": first(refinements(top)),
        "coarsenings": first(coarsenings(bottom)),
        "interval": first(interval(bottom, top)),
        "standardize": SetPartition([[5, 9], [7]]).standardize(),
        "restrict": SetPartition([[1, 3, 4], [2]]).restrict({1, 2, 3}),
        "relabel": SetPartition([[10, 30], [20]]).relabel({10: 1, 20: 2, 30: 3}),
        "slash": slash(SetPartition.parse("13/2"), SetPartition.empty()),
        "disjoint_union": disjoint_union(SetPartition([[1, 3]]), SetPartition([[2]])),
        "meet": meet(SetPartition([[1, 3, 2]]), SetPartition([[1, 3], [2]])),
        "join": join(SetPartition([[1], [3], [2]]), SetPartition([[1, 3], [2]])),
        "copy": copy.copy(pi),
        "deepcopy": copy.deepcopy(pi),
    }
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        built[f"pickle {protocol}"] = pickle.loads(pickle.dumps(pi, protocol))
    assert {name: q is pi for name, q in built.items()} == dict.fromkeys(built, True)
    assert slash(SetPartition.parse("1"), SetPartition.parse("12")) is SetPartition([[1], [2, 3]])
    assert SetPartition.empty() is SetPartition.parse("()") is SetPartition(())


def test_validation_messages_are_unchanged():
    cases = [
        ([[]], "set partition blocks must be nonempty"),
        ([[2], [0, 1]], r"ground set elements must be positive integers: \(0, 1\)"),
        ([[1, 2], [2, 3]], r"blocks must be pairwise disjoint: \[\(1, 2\), \(2, 3\)\]"),
        ([[1, 1]], r"blocks must be pairwise disjoint: \[\(1, 1\)\]"),
    ]
    for blocks, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            SetPartition(blocks)
    with pytest.raises(ValueError, match=r"^malformed block 'a' in set partition '1/a'$"):
        SetPartition.parse("1/a")


def _fresh_rgs(pi):
    index = {x: i for i, blk in enumerate(pi.blocks) for x in blk}
    return tuple(index[x] for x in sorted(pi.ground))


def _fresh_text(pi):
    return "/".join(",".join(str(x) for x in blk) for blk in pi.blocks) if pi.blocks else "()"


def test_memoized_rgs_and_text_equal_a_fresh_computation():
    for n in range(7):
        for pi in set_partitions(range(1, n + 1)):
            assert pi.rgs() == _fresh_rgs(pi) and pi.rgs() is pi.rgs()
            assert str(pi) == _fresh_text(pi) and str(pi) is str(pi)
    for ground in ([3, 11, 12, 20], [11, 15, 99], [1, 10, 100], [7, 13]):
        for pi in set_partitions(ground):
            assert pi.rgs() == _fresh_rgs(pi) and pi.rgs() is pi.rgs()
            text = str(pi)
            misread = len(pi) == pi.size and "0" not in text and max(pi.ground) > 9
            assert text == _fresh_text(pi) + ("," if misread else "")
            assert SetPartition.parse(text) is pi


def _tables(module):
    return [
        v
        for v in vars(module).values()
        if callable(getattr(v, "cache_info", None)) and callable(getattr(v, "cache_clear", None))
    ]


def test_partitions_tables_clear_with_no_arguments():
    # perfbench empties every such attribute before each cold op
    tables = _tables(partitions)
    assert tables
    SetPartition.parse("1,2/3")
    for fn in tables:
        fn.cache_info()
        fn.cache_clear()
    assert partitions._intern.cache_info().currsize == 0


def test_intern_table_is_capped_and_emptied_whole():
    cap = partitions._intern.cache_info().maxsize
    before = SetPartition([[30], [1, 2]])
    largest = 0
    for i in range(1, cap + 2):
        SetPartition([[i]])
        largest = max(largest, partitions._intern.cache_info().currsize)
    assert largest == cap
    after = SetPartition([[1, 2], [30]])
    assert after is not before  # the table was emptied in between
    assert after == before and hash(after) == hash(before)
    assert {before: 1}[after] == 1 and len({before, after}) == 1
    partitions._intern.cache_clear()


def test_threads_racing_on_the_table_build_equal_partitions():
    # the table has no lock: racing threads may intern two equal instances,
    # which must still be equal and hash equal
    keys = list(set_partitions(range(1, 7)))
    results = [[] for _ in range(6)]

    def build(out):
        for _ in range(3):
            partitions._intern.cache_clear()
            out.extend(SetPartition(pi.blocks) for pi in keys)

    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert out == keys * 3
        assert [hash(pi) for pi in out] == [hash(pi) for pi in keys] * 3
    assert all(pi.blocks == blocks for blocks, pi in partitions._interned.items())


def _clear_every_table():
    for module in vars(ncsym).values():
        if isinstance(module, types.ModuleType) and module.__name__.startswith("ncsym."):
            for fn in _tables(module):
                fn.cache_clear()


def test_warm_convert_and_render_never_compare_keys(monkeypatch):
    _clear_every_table()
    text = "m{1/2/3/4} + 2*m{1,2/3/4} - 1/3*m{1/2,4/3} + m{1,2/3,4} + 5*m{1,3/2/4}"
    convert(parse_ncsym(text), "e")  # builds the tables: the pass below is warm
    eq_calls = []
    computed = collections.Counter()
    eq, rgs = SetPartition.__eq__, SetPartition.rgs

    def counting_eq(self, other):
        eq_calls.append((self, other))
        return eq(self, other)

    def counting_rgs(self):
        if not hasattr(self, "_memo"):
            computed[self] += 1
        return rgs(self)

    monkeypatch.setattr(SetPartition, "__eq__", counting_eq)
    monkeypatch.setattr(SetPartition, "rgs", counting_rgs)
    result = convert(parse_ncsym(text), "e")
    format_terms(result)
    terms_json(result)
    assert eq_calls == []
    # the rows of the five keys overlap in the 15 partitions of {1..4}
    assert len(result.terms) >= 10
    assert computed == collections.Counter(list(result.terms))
