"""The Hopf monoid of set partitions over explicit finite ground sets.

Vector-space values are materialized only at concrete ground sets: an
element is a sparse combination of partitions of one declared ground set in
one of the m, p, x bases.  Products and coproducts are indexed by ordered
decompositions of the ground set.  This module holds the only implementation
of the product and coproduct component rules (`mu_key`, `delta_key`) and of
the splitting coefficients (`c_coefficient`).  Every coproduct term, graded
or species, is a product over the blocks of pi of one choice per block
(`_block_splits`): m and p send the block whole to one leg, e splits it into
its two parts, and x takes a pair of partitions of the parts, weighted by
their block counts (`lattice.top_refinement_sum`).  `c_coefficient` sums
Möbius values over the interval instead, the independent route to the x
coefficients.  The graded product in `expressions` applies `mu_key` to the
second key shifted past the first on m; the graded coproduct, and so
`fock_coproduct`, lets every subset of each block be its left part and
standardizes the legs.  e is not a species basis: its graded product
concatenates keys.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from .combination import Combination, bilinear, linear
from .lattice import _rgs_blocks, interval, mobius, top_refinement_sum
from .limits import check_degree
from .partitions import SetPartition, disjoint_union

BASES = ("m", "p", "x")


class SpeciesElement(Combination):
    """Sparse combination of partitions of one fixed ground set."""

    __slots__ = ("ground",)
    _FIELDS = ("ground", "basis")
    BASES = BASES
    _UNKNOWN_BASIS = "unknown species basis {!r}"
    _MISMATCH = "can only add species elements on one ground set and basis"

    def __init__(self, ground, basis: str, terms=None):
        self.ground = frozenset(ground)
        super().__init__(basis, terms)

    def _check_key(self, pi) -> None:
        if not isinstance(pi, SetPartition) or pi.ground != self.ground:
            raise ValueError(f"{pi} does not partition {sorted(self.ground)}")

    @classmethod
    def element(cls, basis: str, pi: SetPartition) -> "SpeciesElement":
        return cls(pi.ground, basis, {pi: 1})

    @classmethod
    def unit(cls, basis: str) -> "SpeciesElement":
        return cls((), basis, {SetPartition.empty(): 1})


class SpeciesTensor(Combination):
    """Sparse combination of partition pairs over one ordered ground decomposition."""

    __slots__ = ("left_ground", "right_ground")
    _FIELDS = ("left_ground", "right_ground", "basis")
    BASES = BASES
    _UNKNOWN_BASIS = "unknown species basis {!r}"
    _MISMATCH = "tensor grounds or bases differ"

    def __init__(self, left_ground, right_ground, basis: str, terms=None):
        self.left_ground = frozenset(left_ground)
        self.right_ground = frozenset(right_ground)
        super().__init__(basis, terms)

    def _check_key(self, key) -> None:
        left, right = key
        if left.ground != self.left_ground or right.ground != self.right_ground:
            raise ValueError(
                f"tensor key ({left}, {right}) does not match the declared grounds"
            )


def relabel(mapping: dict, v: SpeciesElement) -> SpeciesElement:
    """Transport an element along a bijection given as a dict on its ground set."""
    if set(mapping) != set(v.ground):
        raise ValueError(
            f"bijection domain {sorted(mapping)} differs from ground {sorted(v.ground)}"
        )
    images = list(mapping.values())
    if len(set(images)) != len(images):
        raise ValueError("relabeling map is not injective")
    return SpeciesElement(
        images, v.basis, {pi.relabel(mapping): c for pi, c in v.terms.items()}
    )


def mu_key(basis: str, a: SetPartition, b: SetPartition):
    """Product of two basis elements on disjoint ground sets.

    Yields (partition, weight) with weight one.  p and x: the disjoint union.
    m: one partition per partial matching of the blocks of a with the blocks
    of b, each matched pair merged into one block.  The matchings grow
    factorially, so m honours the degree cap; p and x are uncapped.  The
    caller guarantees that the ground sets are disjoint; no key is checked.
    """
    ground = a.ground | b.ground
    if basis in ("p", "x"):
        yield SetPartition._trusted(tuple(sorted(a.blocks + b.blocks)), ground), 1
        return
    check_degree(a.size + b.size)
    la, lb = len(a.blocks), len(b.blocks)
    for k in range(min(la, lb) + 1):
        for asel in itertools.combinations(range(la), k):
            chosen = set(asel)
            for bsel in itertools.permutations(range(lb), k):
                used = set(bsel)
                blocks = [tuple(sorted(a.blocks[i] + b.blocks[j])) for i, j in zip(asel, bsel)]
                blocks += [a.blocks[i] for i in range(la) if i not in chosen]
                blocks += [b.blocks[j] for j in range(lb) if j not in used]
                blocks.sort()
                yield SetPartition._trusted(tuple(blocks), ground), 1


def species_mu(a: SpeciesElement, b: SpeciesElement) -> SpeciesElement:
    """Product indexed by the ordered pair of the two disjoint ground sets."""
    if a.basis != b.basis:
        raise ValueError(f"mixed bases {a.basis!r} and {b.basis!r}")
    if a.ground & b.ground:
        raise ValueError(
            f"ground sets overlap: {sorted(a.ground)} and {sorted(b.ground)}"
        )
    terms = bilinear(a.terms, b.terms, lambda ka, kb: mu_key(a.basis, ka, kb))
    return SpeciesElement._trusted(a.ground | b.ground, a.basis, terms)


def delta_key(basis: str, pi: SetPartition, s1: frozenset, s2: frozenset):
    """Coproduct component of one basis element at the decomposition (s1, s2).

    Yields ((left, right), weight) with nonzero integer weights: the rule
    ``_split_terms`` with the left part of each block of pi fixed by s1.
    The interval sum `c_coefficient` is the independent route to the x
    coefficients.
    """
    lefts = [(tuple(x for x in blk if x in s1),) for blk in pi.blocks]
    for left, right, w in _split_terms(basis, pi, lefts):
        yield (SetPartition._trusted(left, s1), SetPartition._trusted(right, s2)), w


def _block_splits(basis: str, blk: tuple, left: tuple) -> list:
    """The choices for one block of pi whose elements in ``left`` go to the
    first leg: (left leg blocks, right leg blocks, weight) triples.

    m, p: the block goes whole to one leg, so a straddled block has none.
    e: the block splits into its two parts.  x: every pair of partitions of
    the two parts, weighted by ``lattice.top_refinement_sum`` of their block
    counts.
    """
    right = tuple(x for x in blk if x not in left)
    if basis != "x":
        legs = ((left,) if left else (), (right,) if right else (), 1)
        return [legs] if basis == "e" or not (left and right) else []
    rights = list(_rgs_blocks(right))
    return [
        (lb, rb, w)
        for lb in _rgs_blocks(left)
        for rb in rights
        if (w := top_refinement_sum((len(lb), len(rb))))
    ]


def _split_terms(basis: str, pi: SetPartition, lefts):
    """Every coproduct term of pi as a product of one choice per block.

    ``lefts`` lists, for each block of pi, the parts of it that may go to
    the first leg.  Yields (left blocks, right blocks, weight): the legs
    assembled from one ``_block_splits`` choice per block, both canonical,
    and the product of the choices' weights.
    """
    per_block = [
        [c for left in parts for c in _block_splits(basis, blk, left)]
        for blk, parts in zip(pi.blocks, lefts)
    ]
    for combo in itertools.product(*per_block):
        left = tuple(sorted(itertools.chain.from_iterable(c[0] for c in combo)))
        right = tuple(sorted(itertools.chain.from_iterable(c[1] for c in combo)))
        yield left, right, prod(c[2] for c in combo)


def _decomposition(ground: frozenset, s1, s2) -> tuple:
    """The ordered decomposition (s1, s2) of a ground set within the degree cap."""
    s1, s2 = frozenset(s1), frozenset(s2)
    if s1 & s2 or (s1 | s2) != ground:
        raise ValueError(
            f"({sorted(s1)}, {sorted(s2)}) is not an ordered decomposition of {sorted(ground)}"
        )
    check_degree(len(ground))
    return s1, s2


def species_delta(v: SpeciesElement, s1, s2) -> SpeciesTensor:
    """Coproduct component at the ordered decomposition (s1, s2) of the ground set."""
    s1, s2 = _decomposition(v.ground, s1, s2)
    terms = linear(v.terms, lambda pi: delta_key(v.basis, pi, s1, s2))
    return SpeciesTensor._trusted(s1, s2, v.basis, terms)


def c_coefficient(A: SetPartition, s1, s2, B: SetPartition, C: SetPartition) -> Fraction:
    """Splitting coefficient of the (B, C) tensor term in the x coproduct at A.

    The sum of mu(D, A) over the split-respecting partitions D below A whose
    restrictions are coarser than B and C respectively.
    """
    s1, s2 = _decomposition(A.ground, s1, s2)
    if B.ground != s1 or C.ground != s2:
        raise ValueError("tensor legs must partition the two decomposition parts")
    total = 0
    for d1 in interval(B, A.restrict(s1)):
        for d2 in interval(C, A.restrict(s2)):
            total += mobius(disjoint_union(d1, d2), A)
    return Fraction(total)


def _require_standard(v: SpeciesElement) -> int:
    n = len(v.ground)
    if v.ground != frozenset(range(1, n + 1)):
        raise ValueError(f"need the standard ground {{1..{n}}}, got {sorted(v.ground)}")
    return n


def fock_product(v: SpeciesElement, w: SpeciesElement) -> SpeciesElement:
    """Graded product: shift the second factor past the first, then multiply."""
    n = _require_standard(v)
    _require_standard(w)
    shifted = relabel({i: i + n for i in w.ground}, w) if w.ground else w
    return species_mu(v, shifted)


def fock_coproduct(v: SpeciesElement):
    """Graded coproduct: the components summed over all ordered splits, legs
    standardized; this is the coproduct of the same element in NCSym."""
    from .expressions import NCSymExpr, coproduct

    _require_standard(v)
    return coproduct(NCSymExpr(v.basis, v.terms))
