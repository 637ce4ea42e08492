"""The graded algebra of symmetric functions in noncommuting variables.

Expressions are sparse rational combinations of set partitions carrying one
basis tag out of m, p, e, x.  Every basis has a closed form to and from the
power sum basis:

    m at tau  = sum over coarsenings sigma of mu(tau, sigma) p at sigma
    p at tau  = sum over coarsenings sigma of m at sigma
    x at pi   = sum over refinements sigma of mu(sigma, pi) p at sigma
    p at pi   = sum over refinements of x
    e at s    = sum over refinements tau of mu(bottom, tau) p at tau
    p at tau  = (1 / mu(bottom, tau)) sum over refinements s of mu(s, tau) e at s

Every basis change is one walk over the partitions nu of the key's
ground set, ``_by_signature``, with the walk and coefficient that one
route table, ``_signature_rule``, names.  The walk records for each block
of nu how many of its elements fall in each block of the key.  These
counts, the signature, fix the meet and the join of the key with nu, so
the coefficient is computed once per distinct signature and a target is
built only when it is nonzero.  x -> m, m -> x and m -> e walk every nu,
m <-> p the coarsenings of the key, x <-> e and the other p routes its
refinements, and e -> m, with weight one, the nu that meet the key in the
bottom.  No composite walks the comparable pairs through p, and no basis
change reaches the lattice's enumerations or Möbius values, which the
oracles walk.

The interval below pi is the product, over the blocks B of pi, of partition
lattices (Stanley, EC1 3.10), so three coefficients are, up to a scale, a
product over the blocks of pi of a block weight at the shape lam of nu on B,
memoized on lam:

    x at pi  -> m at nu: g(lam), summing mu(sigma, top) over the
                refinements sigma of one shape
    x at pi  -> e at nu: h(lam) = sum over the set partitions rho of the
                parts of lam of mu1(|rho|) prod_G mu1(|G|) / mu1(size of G)
    e at pi  -> x at nu: f(lam) = sum over rho of prod_G mu1(size of G)
    m at tau -> x at nu: sum over the coarsenings of the join of tau and nu
                of the product of mu1(tau blocks) over the merged groups
    m at tau -> e at nu: the same sum with group weight
                mu1(tau blocks) mu1(nu blocks) / mu1(size)

where mu1(c) = (-1)^(c-1) (c-1)! merges c blocks, G runs over the groups of
rho and the size of G sums its parts.  The join sums depend only on the
(size, tau blocks, nu blocks) profile of the join's blocks and are memoized
on it; f is the join sum with one profile entry (b, b, 1) per part b, and
sums mu(bottom, tau) over the tau between nu and pi.  The interval sum of
``x_e_expansion_coefficient`` walks the comparable pairs instead and stays
an independent check of x -> e.

Each basis change has one memoized table, ``_key_convert``, and every
table holds int weights.  ``sym`` reads the same route table for every
route, and sums each coefficient over orbit classes instead of over
targets.  Möbius values are integers; the rows into e are rational, but
at degree n every coefficient is an integer multiple of 1 / (n-1)!,
since mu(bottom, pi) and each group weight of the m -> e sum have a
denominator dividing (n-1)!.  So a row into e stores each coefficient
times ``_e_scale(n)`` = (n-1)!, and every reader of such a row divides by
that scale once per key.  The m -> e join sums are integral by
construction: ``_coarsening_sum`` carries the (n-1)! in every group
weight, so an m -> e row does no ``Fraction`` arithmetic.  Every
operation below extends its rule on keys through ``combination.linear``
or ``bilinear``, except ``lift_R`` and ``x_to_m_top``, which work one
shape class at a time and give every key of one shape one shared
coefficient; results are Fractions throughout, one per distinct value,
and the kernels wrap them unchecked.

Every Hopf operation uses its basis's own rule; p is a hub only for
``convert``.  The product of two keys is their shifted concatenation on the
multiplicative p, x and e bases, and on m the species matching rule
``species.mu_key`` at the shifted second key.  The coproduct is the graded
collapse of the Hopf monoid in `species`: the coproduct components summed
over every ordered split of the ground set, with both legs standardized,
computed block by block with the one split rule of `species`: m and p send
each block whole to one leg, e splits it, x splits it into weighted pairs of
partitions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, prod

from . import sym as _sym
from .combination import Combination, bilinear, linear
from .lattice import (
    _rgs_blocks,
    coarsenings,
    interval,
    merge_mobius,
    mobius,
    top_refinement_sum,
)
from .limits import check_degree
from .partitions import (
    IntegerPartition,
    Permutation,
    SetPartition,
    apply_permutation,
    integer_partitions,
    lambda_factorial,
    lambda_superfactorial,
    slash,
)
from .species import _split_terms, c_coefficient, mu_key

BASES = ("m", "p", "e", "x")


class NCSymExpr(Combination):
    """Sparse rational combination of basis-tagged set partitions.

    Every key partitions an initial segment {1..k}; distinct degrees may mix
    within one expression, and the empty partition keys the degree-0 unit.
    Instances are immutable; arithmetic with a right operand in another basis
    converts that operand to the left operand's basis first.
    """

    __slots__ = ()
    BASES = BASES

    def _check_key(self, pi) -> None:
        if not isinstance(pi, SetPartition):
            raise ValueError(f"keys must be set partitions, got {pi!r}")
        if not pi.is_standard():
            raise ValueError(f"keys must partition {{1..k}}, got {pi}")

    def _coerce(self, other):
        if isinstance(other, NCSymExpr):
            return convert(other, self.basis)
        return NCSymExpr(self.basis, {SetPartition.empty(): other})

    def _product(self, other):
        return product(self, other)

    @classmethod
    def element(cls, basis: str, pi: SetPartition) -> "NCSymExpr":
        return cls(basis, {pi: 1})

    @classmethod
    def unit(cls, basis: str) -> "NCSymExpr":
        return cls(basis, {SetPartition.empty(): 1})

    @classmethod
    def zero(cls, basis: str) -> "NCSymExpr":
        return cls(basis)

    def degrees(self) -> set:
        return {pi.size for pi in self.terms}


class NCTensorExpr(Combination):
    """Sparse combination of ordered pairs of set partitions, one basis tag.

    Coproduct output: both legs of every key are standard partitions.
    """

    __slots__ = ()
    BASES = BASES
    _MISMATCH = "cannot add tensors in different bases"

    def _check_key(self, key) -> None:
        left, right = key
        for leg in (left, right):
            if not isinstance(leg, SetPartition) or not leg.is_standard():
                raise ValueError(f"tensor legs must partition {{1..k}}, got {leg}")

    def _product(self, other):
        return tensor_product(self, other)

    @classmethod
    def unit(cls, basis: str) -> "NCTensorExpr":
        e = SetPartition.empty()
        return cls(basis, {(e, e): 1})


def _bottom(ground) -> SetPartition:
    return SetPartition._trusted(tuple((x,) for x in sorted(ground)), frozenset(ground))


def _e_scale(n: int) -> int:
    """(n-1)!, the factor every weight of a degree-n row into e carries."""
    return factorial(max(n - 1, 0))


@lru_cache(maxsize=None)
def _key_convert(basis: str, target: str, pi: SetPartition) -> tuple:
    """One basis element in another basis, as (key, int weight) pairs;
    a row into e holds each coefficient times ``_e_scale(pi.size)``."""
    coefficient, walk = _signature_rule(basis, target, tuple(map(len, pi.blocks)))
    return _by_signature(pi, coefficient, walk)


def _signature_rule(basis: str, target: str, sizes: tuple):
    """(coefficient, walk) of a change between two distinct bases, at a
    key with these block sizes, for ``_by_signature``.  The walk holds
    every nu that can have a nonzero coefficient: "all", the "refinements"
    or the "coarsenings" of the key, or the "transversal" nu, in which no
    two elements of one key block share a block.  None is weight one."""
    n = sum(sizes)
    route = (basis, target)
    if route == ("e", "m"):
        return None, "transversal"
    if route == ("x", "m"):
        return partial(_per_block, top_refinement_sum, 1), "all"
    if route == ("m", "p"):
        return _vector_mobius, "coarsenings"
    if route == ("p", "m"):
        return None, "coarsenings"
    if basis == "m":
        return partial(_m_to, target), "all"
    if route == ("p", "x"):
        return None, "refinements"
    if route == ("x", "p"):
        coefficient = partial(_per_block, _block_mobius, 1)
    elif route == ("p", "e"):
        unit = _e_scale(n) // prod(merge_mobius(s) for s in sizes)
        coefficient = partial(_per_block, _block_mobius, unit)
    elif route == ("e", "p"):
        coefficient = _vector_mobius
    elif route == ("x", "e"):
        scale = _e_scale(n) // prod(_e_scale(s) for s in sizes)
        coefficient = partial(_per_block, _x_to_e_block, scale)
    else:  # e -> x
        coefficient = partial(_per_block, _e_to_x_block, 1)
    return coefficient, "refinements"


@lru_cache(maxsize=None)
def _x_to_e_block(sizes: tuple) -> int:
    """h(sizes) times (b-1)!, b = sum(sizes): the coefficient of e at a
    partition with these block sizes in x at the one-block partition,
    scaled to an int like a row into e."""
    h = sum(merge_mobius(k) * c for k, c in enumerate(_groupings(sizes)) if c)
    return h.numerator * (_e_scale(sum(sizes)) // h.denominator)


def _e_to_x_block(sizes: tuple) -> int:
    """f(sizes): the coefficient of x at a partition with these block sizes
    in e at the one-block partition, the m -> x join sum of one join block
    per part."""
    return _coarsening_sum("x", tuple((s, s, 1) for s in sizes))


@lru_cache(maxsize=None)
def _groupings(sizes: tuple) -> tuple:
    """Entry k sums, over the set partitions of the parts ``sizes`` into k
    groups G, the product of the group weights mu1(|G|) / mu1(size of G)."""
    if not sizes:
        return (1,)
    first, rest = sizes[0], sizes[1:]
    out = [0] * (len(sizes) + 1)
    for r in range(len(rest) + 1):
        for chosen in itertools.combinations(range(len(rest)), r):
            size = first + sum(rest[i] for i in chosen)
            w = Fraction(merge_mobius(r + 1), merge_mobius(size))
            left = tuple(e for i, e in enumerate(rest) if i not in chosen)
            for k, c in enumerate(_groupings(left)):
                out[k + 1] += w * c
    return tuple(out)


def _by_signature(pi: SetPartition, coefficient, walk: str) -> tuple:
    """(nu, c) for every partition nu of pi's ground set in ``walk`` (see
    ``_signature_rule``) with a nonzero c = coefficient(width, signature),
    or c = 1 when the coefficient is None, in ``set_partitions`` order.

    The signature records, for each block of nu, how many of its elements
    fall in each block of pi: one int per block of nu, the count for block
    i of pi in bits [width * i, width * (i + 1)), the ints sorted.  The
    coefficient is memoized on the walk's words in block order, which are
    sorted into the signature only on a miss, and computed once per
    distinct signature.  An element never joins a block whose word has a
    count outside its own field (refining) or in it (transversal, whose
    fields need only one bit).  The coarsening walk's elements are the
    blocks of pi, so every nu merges whole blocks, and each word, one
    field, counts the blocks of pi that it merges.
    """
    width = 1 if walk == "transversal" else pi.size.bit_length()
    if walk == "coarsenings":
        walked = (
            (tuple(tuple(sorted(itertools.chain(*group))) for group in groups), words)
            for groups, words in _rgs_blocks(pi.blocks, (1,) * len(pi.blocks))
        )
    else:
        field = {x: 1 << width * i for i, blk in enumerate(pi.blocks) for x in blk}
        elems = sorted(pi.ground)
        unit = [field[x] for x in elems]
        clash = None
        if walk == "transversal":
            clash = unit
        elif walk == "refinements":
            low = (1 << width) - 1
            full = (1 << width * len(pi.blocks)) - 1
            clash = [full ^ u * low for u in unit]
        walked = _rgs_blocks(elems, unit, clash)
    if coefficient is None:
        return tuple((SetPartition._trusted(blocks, pi.ground), 1) for blocks, _ in walked)
    seen = {}  # the walk's words, in block order -> coefficient
    by_sig = {}  # signature -> coefficient
    out = []
    for blocks, words in walked:
        c = seen.get(words)
        if c is None:
            sig = tuple(sorted(words))
            c = by_sig.get(sig)
            if c is None:
                c = by_sig[sig] = coefficient(width, sig)
            seen[words] = c
        if c:
            out.append((SetPartition._trusted(blocks, pi.ground), c))
    return tuple(out)


@lru_cache(maxsize=None)
def _fields(width: int, word: int) -> tuple:
    """(fields, mask, total) of a signature word: fields holds (i, count)
    for every nonzero count packed in the word, mask has bit i set for each
    of them, and total is the sum of the counts."""
    low = (1 << width) - 1
    fields = []
    mask = total = 0
    i = 0
    while word:
        c = word & low
        if c:
            fields.append((i, c))
            mask |= 1 << i
            total += c
        word >>= width
        i += 1
    return tuple(fields), mask, total


def _per_block(weight, scale: int, width: int, sig: tuple) -> int:
    """scale times the product, over the blocks B of the key, of
    weight(shape of nu on B).

    The interval below the key is the product of the partition lattices of
    its blocks, so the p-route sums of x -> m, x -> e and e -> x factor over
    them: weight is g, h or f.
    """
    traces = {}
    for word in sig:
        for i, c in _fields(width, word)[0]:
            traces.setdefault(i, []).append(c)
    coeff = scale
    for sizes in traces.values():
        sizes.sort()
        coeff *= weight(tuple(sizes))
    return coeff


def _block_mobius(sizes: tuple) -> int:
    """mu(nu, pi) on one block of pi holding blocks of nu of these sizes."""
    return merge_mobius(len(sizes))


def _vector_mobius(width: int, sig: tuple) -> int:
    """The product, over the words of a signature, of the Möbius value of
    merging as many things as the word counts: mu(bottom, nu) on the
    refining signatures, mu(pi, sigma) on the coarsening ones, and
    mu(bracket, sigma) on the coarsening classes of ``sym``."""
    return prod(merge_mobius(_fields(width, word)[2]) for word in sig)


def _m_to(target: str, width: int, sig: tuple) -> int:
    """m at tau -> x or e at nu, from the join of tau and nu; into e, times
    ``_e_scale`` of the degree, like every row into e.

    The p-route coefficient at nu sums mu(tau, sigma) (x) or
    mu(tau, sigma) mu(nu, sigma) / mu(bottom, sigma) (e) over the sigma
    above the join of tau and nu.  Both factor over the blocks of sigma, so
    the sum depends only on the (size, tau blocks, nu blocks) profile of
    the join's blocks, and ``_coarsening_sum`` already carries the scale.
    """
    joined = []  # (mask over the blocks of tau, size, nu blocks) per join block
    for word in sig:
        _, mask, size = _fields(width, word)
        v = 1
        apart = []
        for other in joined:
            if other[0] & mask:
                mask, size, v = mask | other[0], size + other[1], v + other[2]
            else:
                apart.append(other)
        apart.append((mask, size, v))
        joined = apart
    profile = sorted((size, mask.bit_count(), v) for mask, size, v in joined)
    return _coarsening_sum(target, tuple(profile))


@lru_cache(maxsize=None)
def _coarsening_sum(target: str, profile: tuple) -> int:
    """Sum over the set partitions of the profile's (size, tau blocks, nu
    blocks) entries of the product, over groups, of the group weight at the
    group's summed entry (s, t, v): mu1(t) on x, and
    mu1(t) mu1(v) / mu1(s) on e.

    The e sum is integral by construction: it is returned times (S-1)!,
    S the profile's total size.  The group holding the first entry leaves
    entries of total size S - s, whose sum carries (S-s-1)!, so it weighs
    mu1(t) mu1(v) (-1)^(s-1) (S-1)! / ((s-1)! (S-s-1)!), which is
    mu1(t) mu1(v) (-1)^(s-1) (S-1) C(S-2, s-1) while entries remain and
    mu1(t) mu1(v) (-1)^(s-1) for the last group.
    """
    if not profile:
        return 1
    (s0, t0, v0), rest = profile[0], profile[1:]
    size = sum(e[0] for e in profile)
    total = 0
    for r in range(len(rest) + 1):
        for chosen in itertools.combinations(range(len(rest)), r):
            s, t, v = s0, t0, v0
            for i in chosen:
                s += rest[i][0]
                t += rest[i][1]
                v += rest[i][2]
            w = merge_mobius(t)
            if target == "e":
                w *= merge_mobius(v) * (-1) ** (s - 1)
                if s < size:
                    w *= (size - 1) * comb(size - 2, s - 1)
            left = tuple(e for i, e in enumerate(rest) if i not in chosen)
            total += w * _coarsening_sum(target, left)
    return total


def convert(expr: NCSymExpr, target: str) -> NCSymExpr:
    """Re-express in the target basis; all conversions are exact."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == expr.basis:
        return expr
    for pi in expr.terms:
        check_degree(pi.size)
    terms = expr.terms
    if target == "e":
        terms = {pi: c / _e_scale(pi.size) for pi, c in terms.items()}
    rule = partial(_key_convert, expr.basis, target)
    return NCSymExpr._trusted(target, linear(terms, rule))


def _key_product(basis: str, k1: SetPartition, k2: SetPartition):
    """Product of two basis keys as (key, weight) pairs.

    p, x, e: the shifted concatenation.  m: the species matching rule with
    the second key shifted past the first.
    """
    if basis == "m":
        n = k1.size
        blocks = tuple(tuple(x + n for x in blk) for blk in k2.blocks)
        shifted = SetPartition._trusted(blocks, frozenset(x + n for x in k2.ground))
        return mu_key(basis, k1, shifted)
    return ((slash(k1, k2), 1),)


def product(a: NCSymExpr, b) -> NCSymExpr:
    """Bilinear product carrying the basis of the left operand.

    A right operand in another basis is converted first; each pair of keys
    then multiplies by its basis's own rule, ``_key_product``.
    """
    if not isinstance(b, NCSymExpr):
        return a.scale(b)
    basis = a.basis
    right = convert(b, basis).terms
    return NCSymExpr._trusted(basis, bilinear(a.terms, right, partial(_key_product, basis)))


@lru_cache(maxsize=None)
def _key_coproduct(basis: str, pi: SetPartition) -> tuple:
    """Coproduct of one basis element over standardized leg pairs.

    The graded coproduct is the sum of the species components over every
    ordered split of the ground set, legs standardized: the rule
    ``species._split_terms`` with every subset of each block of pi as its
    left part.  Each distinct leg is standardized once.
    """
    lefts = [
        [c for r in range(len(blk) + 1) for c in itertools.combinations(blk, r)]
        for blk in pi.blocks
    ]
    standard, out = {}, {}
    for left, right, w in _split_terms(basis, pi, lefts):
        for leg in (left, right):
            if leg not in standard:
                ground = frozenset(itertools.chain.from_iterable(leg))
                standard[leg] = SetPartition._trusted(leg, ground).standardize()
        key = (standard[left], standard[right])
        out[key] = out.get(key, 0) + w
    return tuple((k, v) for k, v in out.items() if v)


def coproduct(expr: NCSymExpr) -> NCTensorExpr:
    """Coproduct with both tensor legs standardized, in the expression's basis."""
    for pi in expr.terms:
        check_degree(pi.size)
    rule = partial(_key_coproduct, expr.basis)
    return NCTensorExpr._trusted(expr.basis, linear(expr.terms, rule))


def tensor_convert(t: NCTensorExpr, target: str) -> NCTensorExpr:
    """Convert both legs of every tensor term to the target basis."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == t.basis:
        return t
    for left, right in t.terms:
        check_degree(left.size)
        check_degree(right.size)
    terms = t.terms
    if target == "e":
        terms = {
            (left, right): c / (_e_scale(left.size) * _e_scale(right.size))
            for (left, right), c in terms.items()
        }

    def rule(key):
        left, right = (_key_convert(t.basis, target, leg) for leg in key)
        return (((lt, rt), lc * rc) for lt, lc in left for rt, rc in right)

    return NCTensorExpr._trusted(target, linear(terms, rule))


def tensor_product(t1: NCTensorExpr, t2: NCTensorExpr) -> NCTensorExpr:
    """Componentwise product of tensors, leg by leg."""
    if t1.basis != t2.basis:
        raise ValueError("cannot multiply tensors in different bases")
    basis = t1.basis

    def rule(a, b):
        left, right = (list(_key_product(basis, x, y)) for x, y in zip(a, b))
        return (((k1, k2), e1 * e2) for k1, e1 in left for k2, e2 in right)

    return NCTensorExpr._trusted(basis, bilinear(t1.terms, t2.terms, rule))


def _leg_placements(n: int, sigma: SetPartition, tau: SetPartition) -> list:
    """Each ordered split of {1..n} into parts of the leg degrees, as
    (s1, s2, sigma pulled back onto s1, tau pulled back onto s2)."""
    for part in (sigma, tau):
        if not part.is_standard():
            raise ValueError(f"arguments must partition {{1..k}}, got {part}")
    a, b = sigma.size, tau.size
    if a + b != n:
        raise ValueError(f"leg degrees {a} + {b} do not sum to {n}")
    check_degree(n)
    elems = range(1, n + 1)
    out = []
    for s1 in itertools.combinations(elems, a):
        s2 = [x for x in elems if x not in s1]
        left = sigma.relabel(dict(zip(elems, s1)))
        right = tau.relabel(dict(zip(elems, s2)))
        out.append((s1, s2, left, right))
    return out


def x_coproduct_coefficient(
    pi: SetPartition, sigma: SetPartition, tau: SetPartition
) -> Fraction:
    """Coefficient of the (sigma, tau) tensor term in the coproduct of x at pi.

    The sum of the species splitting coefficients over the ordered splits
    matching the leg degrees, with the legs pulled back onto the split
    parts.  The full coproduct is never expanded.
    """
    if not pi.is_standard():
        raise ValueError(f"arguments must partition {{1..k}}, got {pi}")
    total = Fraction(0)
    for s1, s2, left, right in _leg_placements(pi.size, sigma, tau):
        total += c_coefficient(pi, s1, s2, left, right)
    return total


def x_top_coproduct_coefficient(
    n: int, sigma: SetPartition, tau: SetPartition
) -> Fraction:
    """Same coefficient for the one-block element, by the direct signed sum.

    Sums (-1)^(l-1) (l-1)! over all split-respecting partitions coarser than
    the pulled-back legs, l counting blocks.  Used to cross-check the general
    route and the brute-force expansion against each other.
    """
    placements = _leg_placements(n, sigma, tau)
    if n == 0:
        return Fraction(1)  # the unit is grouplike
    total = 0
    for _, _, left, right in placements:
        for nu1 in coarsenings(left):
            for nu2 in coarsenings(right):
                l = len(nu1.blocks) + len(nu2.blocks)
                total += (-1) ** (l - 1) * factorial(l - 1)
    return Fraction(total)


def omega(expr: NCSymExpr) -> NCSymExpr:
    """The involution scaling each power sum term by (-1)^(n - number of blocks)."""
    pe = convert(expr, "p").terms
    terms = linear(pe, lambda pi: ((pi, (-1) ** (pi.size - len(pi.blocks))),))
    return convert(NCSymExpr("p", terms), expr.basis)


def permute(eta: Permutation, expr: NCSymExpr) -> NCSymExpr:
    """Relabel every key by the permutation; the expression must be homogeneous."""
    n = len(eta)

    def rule(pi):
        if pi.size != n:
            raise ValueError(
                f"permutation of size {n} cannot act on a degree {pi.size} term"
            )
        return ((apply_permutation(eta, pi), 1),)

    return NCSymExpr(expr.basis, linear(expr.terms, rule))


def rho(expr: NCSymExpr) -> _sym.SymExpr:
    """Project onto commuting variables.

    Keys collapse to their shapes, scaled by ``sym.rho_scalar``: monomial
    terms pick up the multiplicity superfactorial and elementary terms the
    part factorial, power sums and extra elements map with scalar one.  x
    at pi goes to x at the shape of pi because the interval below pi is the
    product of the partition lattices of its blocks, so the image of x is
    multiplicative.  ``sym`` reads the same scalars, and the coefficient
    functions of ``_key_convert``, to sum every Sym basis change over the
    orbit classes of its targets.
    """

    def rule(pi):
        lam = pi.shape()
        return ((lam, _sym.rho_scalar(expr.basis, lam)),)

    return _sym.SymExpr._trusted(expr.basis, linear(expr.terms, rule))


def _shape_blocks(n: int, parts: tuple):
    """The canonical block tuples of the partitions of {1..n} with block
    sizes ``parts``, in the restricted growth string order of
    ``set_partitions``.

    One walk over one partial partition: each element joins an open block
    or opens the next one, and a prefix is kept only while it can still
    complete to the shape: room[t] counts the parts of size at least t not
    yet matched by a block of size at least t, so a block may grow to size
    t only while room[t] is positive.  ``choice[i]`` is the block element
    i + 1 sits in, so backtracking resumes with the block after it.
    """
    room = [0] * (n + 2)
    for part in parts:
        for t in range(1, part + 1):
            room[t] += 1
    blocks = []
    choice = [0] * n
    i = b = 0  # element i + 1 tries block b next
    while True:
        if i == n:
            yield tuple(map(tuple, blocks))
        else:
            while b < len(blocks) and not room[len(blocks[b]) + 1]:
                b += 1
            if b < len(blocks) or (b == len(blocks) and room[1]):
                if b == len(blocks):
                    blocks.append([])
                blk = blocks[b]
                blk.append(i + 1)
                room[len(blk)] -= 1
                choice[i] = b
                i, b = i + 1, 0
                continue
        if not i:
            return
        i -= 1
        b = choice[i]
        blk = blocks[b]
        room[len(blk)] += 1
        blk.pop()
        if not blk:
            blocks.pop()
        b += 1


def set_partitions_of_shape(lam: IntegerPartition) -> tuple:
    """All partitions of {1..n} whose block sizes realize the given shape,
    in ``set_partitions`` order; only that shape is enumerated, and nothing
    is memoized."""
    check_degree(lam.n)
    ground = frozenset(range(1, lam.n + 1))
    return tuple(
        SetPartition._trusted(blocks, ground) for blocks in _shape_blocks(lam.n, lam.parts)
    )


def lift_R(expr: _sym.SymExpr) -> NCSymExpr:
    """The symmetrizing right inverse of the projection, landing in the p basis.

    A power sum at shape lam lifts to (lam! lam^! / n!) times the sum of the
    power sums over all set partitions of that shape; projecting back down is
    the identity.  The shapes are distinct, so every set partition of one
    shape carries the same coefficient object.
    """
    terms = {}
    for lam, c in _sym.convert_sym(expr, "p").terms.items():
        coeff = c * lambda_factorial(lam) * lambda_superfactorial(lam) / factorial(lam.n)
        for tau in set_partitions_of_shape(lam):
            terms[tau] = coeff
    return NCSymExpr._trusted("p", terms)


def x_to_m_top(n: int) -> NCSymExpr:
    """Monomial expansion of the degree-n one-block extra element.

    The coefficient of each monomial term is, up to the global sign
    (-1)^(n-1), the number of acyclic orientations of the complete
    multipartite graph of the key with a unique sink at a fixed vertex.
    The graph depends only on the shape of the key, so one walk over the
    partitions of {1..n}, each element of unit one so that a partition's
    words are its block sizes, sorts every partition into its shape; the
    count is taken once per shape, from its first partition, and one
    coefficient is shared by all of them.  Terms come shape by shape in
    ``integer_partitions`` order, each shape in ``set_partitions`` order.
    """
    from .graphs import count_acyclic_unique_sink

    if n < 1:
        raise ValueError("degree must be at least 1")
    check_degree(n)
    sign = (-1) ** (n - 1)
    ground = frozenset(range(1, n + 1))
    shape_of = {}  # block sizes in block order -> shape
    by_shape = {}  # shape -> its block tuples
    for blocks, sizes in _rgs_blocks(range(1, n + 1), (1,) * n):
        shape = shape_of.get(sizes)
        if shape is None:
            shape = shape_of[sizes] = tuple(sorted(sizes, reverse=True))
        by_shape.setdefault(shape, []).append(blocks)
    terms = {}
    for lam in integer_partitions(n):
        taus = by_shape[lam.parts]
        c = count_acyclic_unique_sink(SetPartition._trusted(taus[0], ground), 1)
        if c:
            coeff = Fraction(sign * c)
            for blocks in taus:
                terms[SetPartition._trusted(blocks, ground)] = coeff
    return NCSymExpr._trusted("m", terms)


def x_e_expansion_coefficient(pi: SetPartition, sigma: SetPartition) -> Fraction:
    """Coefficient of the elementary term at sigma in the e-expansion of x at pi.

    The interval sum of mu(tau, pi) mu(sigma, tau) / mu(bottom, tau) over the
    partitions tau between sigma and pi; zero when sigma does not refine pi.
    """
    if pi.ground != sigma.ground:
        raise ValueError(
            f"ground sets differ: {sorted(pi.ground)} vs {sorted(sigma.ground)}"
        )
    check_degree(pi.size)
    bottom = _bottom(pi.ground)
    total = Fraction(0)
    for tau in interval(sigma, pi):
        total += Fraction(mobius(tau, pi) * mobius(sigma, tau), mobius(bottom, tau))
    return total
