"""Truncated monomial expansions in k noncommuting or commuting variables.

These are the raw defining sums of the basis functions.  They are kept
deliberately independent of the basis-change machinery so the two routes can
certify each other: with k at least n, distinct degree-n expansions stay
linearly independent, so equality of truncations implies equality of the
abstract elements.

Every defining sum has integer coefficients, so a polynomial stores each
coefficient as an ``int`` when it is integral and as a ``Fraction`` only
otherwise (symmetrizing divides by n!).  ``coefficient()`` still returns a
``Fraction``, and equality compares the exact values either way.

The m, p and e expansions and the position action build every word with one
``operator.itemgetter`` over an assignment or a word, and wrap their terms
unchecked: each word is built once with coefficient 1, or, for the position
action, moved by a bijection of the words of one degree, so no two terms
meet and every coefficient stays as clean as it came in.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import factorial, prod

from .lattice import mobius, refinements
from .partitions import IntegerPartition, Permutation, SetPartition, bracket


def _clean(terms) -> dict:
    """The nonzero terms, each coefficient an int when integral, else a Fraction."""
    clean = {}
    for key, c in (terms or {}).items():
        if type(c) is not int:
            if type(c) is not Fraction:
                c = Fraction(c)
            if c.denominator == 1:
                c = c.numerator
        if c:
            clean[tuple(key)] = c
    return clean


class _Polynomial:
    """Sparse polynomial in k variables, keyed by monomial.

    ``terms`` maps each key to an ``int`` when the coefficient is integral
    and to a ``Fraction`` otherwise.  A subclass fixes the kind of key: its
    unit, and ``_combine``, which multiplies two monomials.  Polynomials of
    two kinds neither add nor multiply.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms=None):
        self.k = k
        self.terms = _clean(terms)

    @classmethod
    def _trusted(cls, k: int, terms: dict) -> "_Polynomial":
        """A polynomial holding ``terms`` as given, unchecked.

        The caller guarantees tuple keys and nonzero coefficients, each an
        ``int`` when integral; the dict is kept, not copied.
        """
        self = object.__new__(cls)
        self.k = k
        self.terms = terms
        return self

    def coefficient(self, key) -> Fraction:
        return Fraction(self.terms.get(tuple(key), 0))

    def __eq__(self, other):
        return type(other) is type(self) and self.k == other.k and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, {len(self.terms)} terms)"

    def _like(self, other) -> bool:
        """Whether ``other`` is of this kind; if so, it must have as many variables."""
        if type(other) is type(self) and self.k != other.k:
            raise ValueError("variable counts differ")
        return type(other) is type(self)

    def __add__(self, other):
        if not self._like(other):
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return type(self)(self.k, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, _Polynomial):
            if not self._like(other):
                return NotImplemented
            combine = self._combine
            terms = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key = combine(k1, k2)
                    terms[key] = terms.get(key, 0) + c1 * c2
            return type(self)(self.k, terms)
        return type(self)(self.k, {key: c * other for key, c in self.terms.items()})

    __rmul__ = __mul__


class NCPolynomial(_Polynomial):
    """Polynomial in k noncommuting variables; keys are letter tuples, and
    words multiply by concatenation."""

    __slots__ = ()
    _combine = staticmethod(operator.add)

    @classmethod
    def one(cls, k: int) -> "NCPolynomial":
        return cls(k, {(): 1})


class CPolynomial(_Polynomial):
    """Polynomial in k commuting variables; keys are exponent tuples, and
    exponent vectors multiply by adding."""

    __slots__ = ()

    @staticmethod
    def _combine(e1: tuple, e2: tuple) -> tuple:
        return tuple(map(operator.add, e1, e2))

    @classmethod
    def one(cls, k: int) -> "CPolynomial":
        return cls(k, {(0,) * k: 1})


def _letters_at(indices):
    """The map from a tuple to the tuple of its entries at ``indices``.

    ``itemgetter`` takes no empty index list and returns a bare entry for a
    single index, so those two lengths get their own small function.
    """
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda t: (t[i],)
    return lambda t: ()


def expand_nc(basis: str, pi: SetPartition, k: int) -> NCPolynomial:
    """The defining sum of the basis element at ``pi``, truncated to variables 1..k.

    Monomial: one word per injective assignment of variables to blocks.
    Power sum: one word per arbitrary assignment of variables to blocks.
    Elementary: one word per assignment injective within each block.
    Extra: Möbius-weighted sum of power sum expansions over refinements.
    """
    if k < 1:
        raise ValueError("need at least one variable")
    if not pi.is_standard():
        raise ValueError(f"expansion needs a partition of {{1..n}}, got {pi}")
    if basis == "x":
        terms = {}
        for sigma in refinements(pi):
            mu = mobius(sigma, pi)
            for word, c in expand_nc("p", sigma, k).terms.items():
                terms[word] = terms.get(word, 0) + mu * c
        return NCPolynomial(k, terms)
    letters = range(1, k + 1)
    if basis in ("m", "p"):
        # position j reads the variable assigned to its block
        index = {x: i for i, blk in enumerate(pi.blocks) for x in blk}
        word = _letters_at([index[j] for j in range(1, pi.size + 1)])
        if basis == "m":
            assignments = itertools.permutations(letters, len(pi.blocks))
        else:
            assignments = itertools.product(letters, repeat=len(pi.blocks))
    elif basis == "e":
        # the blocks' letters side by side, then position j reads its own
        order = [x for blk in pi.blocks for x in blk]
        where = {x: i for i, x in enumerate(order)}
        word = _letters_at([where[j] for j in range(1, pi.size + 1)])
        per_block = [itertools.permutations(letters, len(blk)) for blk in pi.blocks]
        assignments = map(
            tuple, map(itertools.chain.from_iterable, itertools.product(*per_block))
        )
    else:
        raise ValueError(f"unknown basis {basis!r}")
    # distinct assignments spell distinct words, each with coefficient 1
    return NCPolynomial._trusted(k, dict.fromkeys(map(word, assignments), 1))


def _p_single(i: int, k: int) -> CPolynomial:
    return CPolynomial(k, {(0,) * j + (i,) + (0,) * (k - 1 - j): 1 for j in range(k)})


def _e_single(i: int, k: int) -> CPolynomial:
    terms = {}
    for combo in itertools.combinations(range(k), i):
        exps = [0] * k
        for j in combo:
            exps[j] = 1
        terms[tuple(exps)] = 1
    return CPolynomial(k, terms)


def expand_c(basis: str, lam: IntegerPartition, k: int) -> CPolynomial:
    """The defining sum or product of the classical basis element at ``lam``."""
    if k < 1:
        raise ValueError("need at least one variable")
    if basis == "m":
        if len(lam.parts) > k:
            return CPolynomial(k)
        exps = lam.parts + (0,) * (k - len(lam.parts))
        return CPolynomial._trusted(k, dict.fromkeys(_arrangements(exps), 1))
    if basis in ("p", "e"):
        single = _p_single if basis == "p" else _e_single
        out = CPolynomial.one(k)
        for part in lam.parts:
            out = out * single(part, k)
        return out
    if basis == "x":
        br = bracket(lam)
        terms = {}
        for sigma in refinements(br):
            mu = mobius(sigma, br)
            for exps, c in expand_c("p", sigma.shape(), k).terms.items():
                terms[exps] = terms.get(exps, 0) + mu * c
        return CPolynomial(k, terms)
    raise ValueError(f"unknown basis {basis!r}")


def _arrangements(items: tuple) -> list:
    """Every distinct ordering of ``items``, each built once.

    Distinct items are ``itertools.permutations``.  Otherwise an ordering is
    the places that the most frequent value leaves to the other items and
    one distinct ordering of those items, so the work follows the number of
    distinct orderings, not len(items)!.
    """
    if len(set(items)) == len(items):
        return list(itertools.permutations(items))
    fill = max(items, key=items.count)
    rest = tuple(x for x in items if x != fill)
    padded = [inner + (fill,) for inner in _arrangements(rest)]
    out = []
    for places in itertools.combinations(range(len(items)), len(rest)):
        # a place reads its item of the inner ordering, any other the fill
        index = [len(rest)] * len(items)
        for r, j in enumerate(places):
            index[j] = r
        out.extend(map(_letters_at(index), padded))
    return out


def commute(poly: NCPolynomial) -> CPolynomial:
    """Let the variables commute: each word collapses to its exponent vector."""
    terms = {}
    for word, c in poly.terms.items():
        exps = [0] * poly.k
        for letter in word:
            exps[letter - 1] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + c
    return CPolynomial(poly.k, terms)


def symmetrize_R(poly: CPolynomial, n: int) -> NCPolynomial:
    """Average each degree-n monomial over all orderings of its letters.

    The image of a monomial is (stab / n!) times the sum of its distinct
    letter arrangements, where stab is the product of the exponent
    factorials.  Letting the variables commute again recovers the input.
    """
    terms = {}
    for exps, c in poly.terms.items():
        if sum(exps) != n:
            raise ValueError("input must be homogeneous of the stated degree")
        letters = tuple(v + 1 for v, e in enumerate(exps) for _ in range(e))
        weight = c * Fraction(prod(factorial(e) for e in exps), factorial(n))
        for word in _arrangements(letters):
            terms[word] = terms.get(word, 0) + weight
    return NCPolynomial(poly.k, terms)


def position_permute(poly: NCPolynomial, eta: Permutation) -> NCPolynomial:
    """Rearrange word positions: position j receives the letter from eta^{-1}(j)."""
    n = len(eta)
    if set(map(len, poly.terms)) - {n}:
        degree = next(len(word) for word in poly.terms if len(word) != n)
        raise ValueError(f"permutation of size {n} cannot act on a degree {degree} word")
    inv = eta.inverse()
    move = _letters_at([inv(j) - 1 for j in range(1, n + 1)])
    # a bijection of the degree-n words: no two terms meet, none cancels
    terms = poly.terms
    return NCPolynomial._trusted(poly.k, dict(zip(map(move, terms), terms.values())))
