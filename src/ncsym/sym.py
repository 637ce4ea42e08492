"""Classical symmetric functions indexed by integer partitions.

Every basis change is the commutative image of the NCSym one.  The
projection rho sends b at a set partition of shape lam to
``rho_scalar(b, lam)`` times b at lam: lam^! on m, lam! on e and one on p
and x (Rosas-Sagan).  So b at lam is rho of the NCSym row of b at
``bracket(lam)``, divided by b's scalar at lam: each target key collapses
to its shape and is weighted by the target's scalar there.  The NCSym
coefficient at a target nu is constant on the orbits of the permutations
that fix every block of the bracket, and these orbits are the intersection
signatures of ``expressions._by_signature``: the multisets of count
vectors summing to lam.  So a row is summed one orbit class at a time,
class size times the coefficient, and no NCSym row or set partition is
built.  Every route reads its walk and coefficient from the route table
of the NCSym conversions, ``expressions._signature_rule``; the coarsening
walk of m <-> p runs up to permuting the bracket's equal blocks.  The
product of two keys is rho of the NCSym product at their brackets.  The
operations extend their key rules through ``combination.linear``/
``bilinear``.  The monomial oracle is not used here; it expands the same
elements as polynomials and checks them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, prod

from . import expressions as _ncsym  # bound late: expressions imports sym
from .combination import Combination, bilinear, linear
from .limits import check_degree
from .partitions import (
    IntegerPartition,
    bracket,
    lambda_factorial,
    lambda_superfactorial,
)

BASES = ("m", "p", "e", "x")


class SymExpr(Combination):
    """Sparse rational combination of basis elements of one tagged basis.

    Terms map integer partitions to nonzero exact rationals; the empty
    partition keys the degree-0 unit.  Adding or multiplying expressions in
    different bases converts the right operand to the left operand's basis.
    """

    __slots__ = ()
    BASES = BASES

    def _check_key(self, lam) -> None:
        if not isinstance(lam, IntegerPartition):
            raise ValueError(f"keys must be integer partitions, got {lam!r}")

    def _coerce(self, other):
        if isinstance(other, SymExpr):
            return convert_sym(other, self.basis)
        return SymExpr(self.basis, {IntegerPartition(): other})

    def _product(self, other):
        return product_sym(self, other)

    @classmethod
    def element(cls, basis: str, lam: IntegerPartition) -> "SymExpr":
        return cls(basis, {lam: 1})

    @classmethod
    def unit(cls, basis: str) -> "SymExpr":
        return cls(basis, {IntegerPartition(): 1})

    @classmethod
    def zero(cls, basis: str) -> "SymExpr":
        return cls(basis)


def canonical_order(lam: IntegerPartition) -> tuple:
    """Sort key of the canonical order of Sym terms, shared with printing:
    by degree, then by descending parts."""
    return (lam.n, tuple(-p for p in lam.parts))


def rho_scalar(basis: str, lam: IntegerPartition) -> int:
    """The scalar rho puts on a ``basis`` element at a set partition of shape lam."""
    if basis == "m":
        return lambda_superfactorial(lam)
    if basis == "e":
        return lambda_factorial(lam)
    return 1


def _rho_row(basis: str, pairs, scale: int) -> tuple:
    """rho of (set partition, weight) pairs in ``basis``, over scale: each
    key collapses to its shape, weighted by ``rho_scalar(basis, shape)``."""
    shapes = {}
    for sigma, w in pairs:
        gam = sigma.shape()
        shapes[gam] = shapes.get(gam, 0) + w
    return _scaled_row(basis, shapes, scale)


def _scaled_row(basis: str, shapes: dict, scale: int) -> tuple:
    return tuple(
        (gam, Fraction(c * rho_scalar(basis, gam), scale))
        for gam, c in shapes.items()
        if c
    )


def _vector_partitions(counts: tuple, width: int, walk: str, weights=None):
    """Every multiset of nonzero count vectors summing to ``counts``, once,
    as (signature, sizes, class size) triples.

    Split a set into groups of ``counts[i]`` elements.  The orbits of the
    permutations fixing every group, acting on the set partitions nu of
    the set, are these multisets: a block of nu gives the vector of how
    many of its elements fall in each group.  The class size is the orbit
    size, prod counts_i! / (prod_v prod_i v_i! * prod_v mult(v)!).  The
    signature holds the vectors packed like the words of
    ``expressions._by_signature``, coordinate i in bits
    [width * i, width * (i + 1)), in no fixed order; sizes holds their
    sizes sum_i v_i * weights[i] in the same order (with the default
    weights of one, sorted sizes are the shape of nu).  Every count must
    stay below 2 ** (width - 1): the top bit of each field is a guard, so
    one subtraction tells whether a vector fits into what is left.  The
    walk is one of ``expressions._signature_rule``'s: "all" vectors, the
    "refinements" of the groups (one nonzero coordinate), or the
    "transversal" ones (every coordinate at most one).

    A depth-first walk over nonincreasing vectors (Knuth, TAOCP 4A,
    7.2.1.5, multiset partitions): the next vector holds the top nonzero
    coordinate of what is left and is at most the previous one, so each
    multiset comes once and every prefix completes.  The vectors that fit
    into each distinct remainder are listed once.
    """
    k = len(counts)
    guard = ((1 << width * k) - 1) // ((1 << width) - 1) << width - 1  # each field's top bit
    by_top = [[] for _ in counts]  # (word, size, prod v_i!) by top coordinate, decreasing
    words, sizes, full = [], [], 0  # refinements: a count of one is one vector
    for i, c in enumerate(counts):
        w = weights[i] if weights else 1
        if walk == "refinements" and c == 1:
            words.append(1 << width * i)
            sizes.append(w)
            continue
        full |= c << width * i
        if walk == "refinements":
            by_top[i] = [(v << width * i, v * w, factorial(v)) for v in range(c, 0, -1)]
    if walk != "refinements":  # every sub-vector, top coordinate first, in decreasing order
        ranges = [range(1 if walk == "transversal" else c, -1, -1) for c in reversed(counts)]
        top_first = weights[::-1] if weights else (1,) * k
        for vec in itertools.product(*ranges):
            word, size, weight = 0, 0, 1
            for v, w in zip(vec, top_first):
                word = word << width | v
                size += v * w
                weight *= factorial(v)
            if word:
                by_top[(word.bit_length() - 1) // width].append((word, size, weight))
    total = prod(map(factorial, counts))
    fitting = {}  # what is left -> (its top coordinate, the (index, vector) that fit)
    out = []

    def descend(rem, top, last, run, denominator):
        fits = fitting.get(rem)
        if fits is None:
            t = (rem.bit_length() - 1) // width
            room = rem | guard
            fits = fitting[rem] = t, [
                (j, vec) for j, vec in enumerate(by_top[t]) if (room - vec[0]) & guard == guard
            ]
        t, vectors = fits
        if t == top:
            vectors = vectors[bisect_left(vectors, (last,)):]
        for j, (word, size, weight) in vectors:
            repeat = run + 1 if t == top and j == last else 1
            left = rem - word
            words.append(word)
            sizes.append(size)
            if left:
                descend(left, t, j, repeat, denominator * weight * repeat)
            else:
                d = denominator * weight * repeat
                out.append((tuple(words), tuple(sizes), total // d))
            words.pop()
            sizes.pop()

    if full:
        descend(full, -1, 0, 0, 1)
    else:
        out.append((tuple(words), tuple(sizes), total))
    return out


@lru_cache(maxsize=None)
def _key_convert_sym(basis: str, target: str, lam: IntegerPartition) -> tuple:
    """Coordinates of one basis element in the target basis, as key/value
    pairs: rho of the NCSym row at ``bracket(lam)`` over b's scalar at lam
    (and over the row's scale, for a row into e).

    The NCSym coefficient is constant on the orbit classes of the targets,
    so the row sums class size times coefficient over the classes, each at
    its shape.  The walk and coefficient function come from the NCSym
    table's ``_signature_rule``, and the classes are the partitions of
    the ground set by signature.  The coarsenings of the bracket (m <-> p)
    are classed up to permuting its equal blocks instead: the vector
    partitions of the multiplicities of lam's parts.
    """
    coefficient, walk = _ncsym._signature_rule(basis, target, lam.parts)
    counts, weights = lam.parts, None
    if walk == "coarsenings":
        mult = lam.multiplicities()
        counts, weights, walk = tuple(mult.values()), tuple(mult), "all"
    width = sum(counts).bit_length() + 1
    shapes = {}
    for sig, sizes, size in _vector_partitions(counts, width, walk, weights):
        c = 1 if coefficient is None else coefficient(width, sig)
        if c:
            shape = tuple(sorted(sizes))
            shapes[shape] = shapes.get(shape, 0) + size * c
    scale = rho_scalar(basis, lam) * (_ncsym._e_scale(lam.n) if target == "e" else 1)
    return _scaled_row(target, {IntegerPartition(s): c for s, c in shapes.items()}, scale)


def convert_sym(expr: SymExpr, target: str) -> SymExpr:
    """Re-express a symmetric function in the target basis, exactly."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == expr.basis:
        return expr
    for lam in expr.terms:
        check_degree(lam.n)
    rule = partial(_key_convert_sym, expr.basis, target)
    return SymExpr._trusted(target, linear(expr.terms, rule))


def _key_product_sym(basis: str, lam: IntegerPartition, gam: IntegerPartition) -> tuple:
    """Product of two basis keys: rho of the NCSym product of b at the two
    brackets, over b's scalars at lam and gam."""
    scale = rho_scalar(basis, lam) * rho_scalar(basis, gam)
    return _rho_row(basis, _ncsym._key_product(basis, bracket(lam), bracket(gam)), scale)


def product_sym(a: SymExpr, b: SymExpr) -> SymExpr:
    """Bilinear product in the left operand's basis, the right one converted first."""
    if not isinstance(b, SymExpr):
        return a.scale(b)
    basis = a.basis
    right = convert_sym(b, basis).terms
    return SymExpr._trusted(basis, bilinear(a.terms, right, partial(_key_product_sym, basis)))


def omega_sym(expr: SymExpr) -> SymExpr:
    """The involution scaling each power sum term by (-1)^(n - number of parts).

    Its own sign rule on p, not rho of ``omega``: it is the independent side
    of the check that ``omega`` commutes with rho."""
    pe = convert_sym(expr, "p").terms
    terms = linear(pe, lambda lam: ((lam, (-1) ** (lam.n - len(lam.parts))),))
    return convert_sym(SymExpr("p", terms), expr.basis)


def is_e_positive(expr: SymExpr):
    """Whether every coefficient of the elementary expansion is positive.

    Returns ``(True, None)`` or ``(False, (partition, coefficient))`` with the
    first offending term in ``canonical_order``, the order in which
    ``parsing.format_terms`` prints them.  Coefficients that cancel to
    zero do not appear in the sparse expansion and are not offenders.
    """
    ee = convert_sym(expr, "e")
    for lam in sorted(ee.terms, key=canonical_order):
        if ee.terms[lam] <= 0:
            return False, (lam, ee.terms[lam])
    return True, None
