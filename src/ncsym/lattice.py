"""The refinement order on the set partitions of a fixed ground set.

Möbius values use the closed product formula over the blocks of the coarser
partition; the defining recursion is exponential and lives only in the test
suite, where it certifies the closed form on small intervals.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

from .partitions import SetPartition


def _require_same_ground(a: SetPartition, b: SetPartition) -> None:
    if a.ground != b.ground:
        raise ValueError(
            f"ground sets differ: {sorted(a.ground)} vs {sorted(b.ground)}"
        )


def _owner_map(coarser: SetPartition) -> dict:
    return {x: i for i, blk in enumerate(coarser.blocks) for x in blk}


def is_refinement(finer: SetPartition, coarser: SetPartition) -> bool:
    """True when every block of ``finer`` lies inside some block of ``coarser``."""
    _require_same_ground(finer, coarser)
    owner = _owner_map(coarser)
    return all(len({owner[x] for x in blk}) == 1 for blk in finer.blocks)


def meet(a: SetPartition, b: SetPartition) -> SetPartition:
    """Greatest lower bound: all nonempty pairwise block intersections."""
    _require_same_ground(a, b)
    blocks = []
    for blk in a.blocks:
        s = set(blk)
        for other in b.blocks:
            inter = s.intersection(other)
            if inter:
                blocks.append(inter)
    return SetPartition(blocks)


def join(a: SetPartition, b: SetPartition) -> SetPartition:
    """Least upper bound, via union-find over shared block membership."""
    _require_same_ground(a, b)
    parent = {x: x for x in a.ground}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blk in itertools.chain(a.blocks, b.blocks):
        root = find(blk[0])
        for x in blk[1:]:
            parent[find(x)] = root
    groups = {}
    for x in a.ground:
        groups.setdefault(find(x), []).append(x)
    return SetPartition(groups.values())


def set_partitions(ground):
    """Yield every partition of ``ground`` exactly once.

    Enumeration follows restricted growth strings in lexicographic order
    over the sorted ground set, so the one-block partition comes first and
    the all-singletons partition last.  The walk keeps one partial
    partition, so memory grows with the ground set, not with the output.
    """
    elems = sorted(ground)
    if elems:
        SetPartition((elems,))  # validates the ground set, once per call
    universe = frozenset(elems)
    for blocks in _rgs_blocks(elems):
        yield SetPartition._trusted(blocks, universe)


def _rgs_blocks(elems, unit=None, clash=None):
    """The canonical block tuples of the partitions of a sorted sequence,
    in the order of ``set_partitions``.

    One depth-first walk keeps a single partial partition: the next element
    joins each open block in turn and then opens a new one, which visits
    the restricted growth strings in lexicographic order (Knuth, TAOCP 4A,
    7.2.1.5).  The walk is one generator frame: a stack holds, for each
    placed element, its block and what that block and its word were
    before, so backtracking restores them and resumes with the next block.
    The last element is placed inline, once per open block and once in a
    new block, so the leaves cost no push or pop.  Given ``unit``, one int
    per element, every block carries a word, the sum of ``unit`` over its
    elements, and the walk yields (blocks, words) pairs; an element never
    joins a block whose word shares a bit with its entry of ``clash``.
    """
    n = len(elems)
    if n < 2:
        blocks = (tuple(elems),) if n else ()
        yield blocks if unit is None else (blocks, tuple(unit))
        return
    words_out = unit is not None
    unit = unit or (0,) * n
    clash = clash or (0,) * n
    last = n - 1
    x, u, c = elems[last], unit[last], clash[last]
    blocks, words = [(elems[0],)], [unit[0]]
    stack = []  # (block, block before, word before) of elements 1 .. i - 1
    i = 1
    b = 0  # element i tries block b next
    while True:
        if i == last:
            for j in range(len(blocks)):
                w = words[j]
                if not w & c:
                    blk = blocks[j]
                    blocks[j], words[j] = blk + (x,), w + u
                    yield (tuple(blocks), tuple(words)) if words_out else tuple(blocks)
                    blocks[j], words[j] = blk, w
            blocks.append((x,))
            words.append(u)
            yield (tuple(blocks), tuple(words)) if words_out else tuple(blocks)
            blocks.pop()
            words.pop()
        else:
            k = len(blocks)
            ci = clash[i]
            while b < k and words[b] & ci:
                b += 1
            if b <= k:  # b == k opens a new block
                if b == k:
                    blocks.append(())
                    words.append(0)
                blk, w = blocks[b], words[b]
                stack.append((b, blk, w))
                blocks[b], words[b] = blk + (elems[i],), w + unit[i]
                i, b = i + 1, 0
                continue
        if i == 1:
            return
        i -= 1
        b, blk, w = stack.pop()
        if blk:
            blocks[b], words[b] = blk, w
        else:
            blocks.pop()
            words.pop()
        b += 1


def refinements(pi: SetPartition):
    """Yield every partition finer than or equal to ``pi``."""
    per_block = [list(_rgs_blocks(blk)) for blk in pi.blocks]
    for combo in itertools.product(*per_block):
        blocks = tuple(sorted(itertools.chain.from_iterable(combo)))
        yield SetPartition._trusted(blocks, pi.ground)


def _merges(blocks):
    """The canonical block tuples of every coarsening of canonical
    ``blocks``: one walk over the groupings of the block indices."""
    # Groups of block indices come ordered by their least index, so the
    # merged blocks come ordered by their minima.
    for grouping in _rgs_blocks(range(len(blocks))):
        yield tuple(
            tuple(sorted(itertools.chain.from_iterable(blocks[i] for i in grp)))
            for grp in grouping
        )


def coarsenings(pi: SetPartition):
    """Yield every partition coarser than or equal to ``pi``."""
    for blocks in _merges(pi.blocks):
        yield SetPartition._trusted(blocks, pi.ground)


def interval(lower: SetPartition, upper: SetPartition):
    """Yield all partitions between ``lower`` and ``upper``; empty unless lower <= upper."""
    _require_same_ground(lower, upper)
    owner = _owner_map(upper)
    bundles = [[] for _ in upper.blocks]
    for blk in lower.blocks:
        i = owner[blk[0]]
        if any(owner[x] != i for x in blk):
            return
        bundles[i].append(blk)
    choices = [list(_merges(bundle)) for bundle in bundles]
    for combo in itertools.product(*choices):
        blocks = tuple(sorted(itertools.chain.from_iterable(combo)))
        yield SetPartition._trusted(blocks, lower.ground)


def mobius(finer: SetPartition, coarser: SetPartition) -> int:
    """Möbius value of the interval [finer, coarser].

    Equals the product over blocks of ``coarser`` of (-1)^(c-1) (c-1)!, where
    c counts the blocks of ``finer`` inside that block.
    """
    _require_same_ground(finer, coarser)
    owner = _owner_map(coarser)
    counts = [0] * len(coarser.blocks)
    for blk in finer.blocks:
        i = owner[blk[0]]
        for x in blk:
            if owner[x] != i:
                raise ValueError(f"{finer} does not refine {coarser}")
        counts[i] += 1
    value = 1
    for c in counts:
        if c > 1:
            value *= merge_mobius(c)
    return value


def merge_mobius(c: int) -> int:
    """Möbius value of merging c blocks into one: (-1)^(c-1) (c-1)!."""
    return (-1) ** (c - 1) * factorial(c - 1)


def mobius_to_top(pi: SetPartition) -> int:
    """Möbius value from ``pi`` up to the one-block partition of its ground set."""
    if not pi.blocks:
        raise ValueError("the empty partition has no one-block coarsening")
    return merge_mobius(len(pi.blocks))


@lru_cache(maxsize=None)
def refinement_counts(sizes: tuple) -> tuple:
    """Entry j counts the refinements with j blocks of any partition whose
    blocks have these sizes.

    A refinement splits every block on its own, so the row is the
    convolution of the Stirling rows S(b, .) of the block sizes.
    """
    if not sizes:
        return (1,)
    rest = refinement_counts(sizes[1:])
    row = _stirling_row(sizes[0])
    out = [0] * (len(rest) + len(row) - 1)
    for i, a in enumerate(rest):
        if a:
            for j, b in enumerate(row):
                out[i + j] += a * b
    return tuple(out)


@lru_cache(maxsize=None)
def top_refinement_sum(sizes: tuple) -> int:
    """g: the sum of mu(sigma, top) over the refinements sigma of a partition
    whose blocks have these sizes.  The x -> m weight of a block of pi, and
    at (l, r) the x coproduct weight of a block holding l left and r right
    leg blocks, whose upper interval is a partition lattice."""
    return sum(c * merge_mobius(j) for j, c in enumerate(refinement_counts(sizes)) if c)


@lru_cache(maxsize=None)
def _stirling_row(b: int) -> tuple:
    """Entry j is S(b, j), the number of partitions of b elements into j blocks."""
    if b == 0:
        return (1,)
    prev = _stirling_row(b - 1)
    return (0,) + tuple(
        j * (prev[j] if j < len(prev) else 0) + prev[j - 1] for j in range(1, b + 1)
    )
