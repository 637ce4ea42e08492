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
"""

from __future__ import annotations

import itertools
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


class NCPolynomial:
    """Sparse polynomial in k noncommuting variables; keys are letter tuples.

    ``terms`` maps each word to an ``int`` when the coefficient is integral
    and to a ``Fraction`` otherwise.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms=None):
        self.k = k
        self.terms = _clean(terms)

    @classmethod
    def one(cls, k: int) -> "NCPolynomial":
        return cls(k, {(): 1})

    def coefficient(self, word) -> Fraction:
        return Fraction(self.terms.get(tuple(word), 0))

    def __eq__(self, other):
        return (
            isinstance(other, NCPolynomial)
            and self.k == other.k
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return f"NCPolynomial(k={self.k}, {len(self.terms)} terms)"

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        if self.k != other.k:
            raise ValueError("variable counts differ")
        terms = dict(self.terms)
        for word, c in other.terms.items():
            terms[word] = terms.get(word, 0) + c
        return NCPolynomial(self.k, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, NCPolynomial):
            if self.k != other.k:
                raise ValueError("variable counts differ")
            terms = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    key = w1 + w2
                    terms[key] = terms.get(key, 0) + c1 * c2
            return NCPolynomial(self.k, terms)
        return NCPolynomial(self.k, {w: c * other for w, c in self.terms.items()})

    __rmul__ = __mul__


class CPolynomial:
    """Sparse polynomial in k commuting variables; keys are exponent tuples.

    ``terms`` maps each exponent vector to an ``int`` when the coefficient is
    integral and to a ``Fraction`` otherwise.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms=None):
        self.k = k
        self.terms = _clean(terms)

    @classmethod
    def one(cls, k: int) -> "CPolynomial":
        return cls(k, {(0,) * k: 1})

    def coefficient(self, exps) -> Fraction:
        return Fraction(self.terms.get(tuple(exps), 0))

    def __eq__(self, other):
        return (
            isinstance(other, CPolynomial)
            and self.k == other.k
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return f"CPolynomial(k={self.k}, {len(self.terms)} terms)"

    def __add__(self, other: "CPolynomial") -> "CPolynomial":
        if self.k != other.k:
            raise ValueError("variable counts differ")
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return CPolynomial(self.k, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, CPolynomial):
            if self.k != other.k:
                raise ValueError("variable counts differ")
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    terms[key] = terms.get(key, 0) + c1 * c2
            return CPolynomial(self.k, terms)
        return CPolynomial(self.k, {e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__


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
    n = pi.size
    index = {x: i for i, blk in enumerate(pi.blocks) for x in blk}
    terms = {}
    if basis == "m":
        assignments = itertools.permutations(range(1, k + 1), len(pi.blocks))
    elif basis == "p":
        assignments = itertools.product(range(1, k + 1), repeat=len(pi.blocks))
    elif basis == "e":
        per_block = [
            list(itertools.permutations(range(1, k + 1), len(blk))) for blk in pi.blocks
        ]
        for combo in itertools.product(*per_block):
            word = [0] * n
            for blk, vals in zip(pi.blocks, combo):
                for pos, v in zip(blk, vals):
                    word[pos - 1] = v
            terms[tuple(word)] = 1
        return NCPolynomial(k, terms)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    for assign in assignments:
        word = tuple(assign[index[j]] for j in range(1, n + 1))
        terms[word] = 1
    return NCPolynomial(k, terms)


def _p_single(i: int, k: int) -> CPolynomial:
    terms = {}
    for j in range(k):
        exps = [0] * k
        exps[j] = i
        terms[tuple(exps)] = 1
    return CPolynomial(k, terms)


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
        return CPolynomial(k, {e: 1 for e in set(itertools.permutations(exps))})
    if basis == "p":
        out = CPolynomial.one(k)
        for part in lam.parts:
            out = out * _p_single(part, k)
        return out
    if basis == "e":
        out = CPolynomial.one(k)
        for part in lam.parts:
            out = out * _e_single(part, k)
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
        letters = [v + 1 for v, e in enumerate(exps) for _ in range(e)]
        weight = c * Fraction(prod(factorial(e) for e in exps), factorial(n))
        for word in set(itertools.permutations(letters)):
            terms[word] = terms.get(word, 0) + weight
    return NCPolynomial(poly.k, terms)


def position_permute(poly: NCPolynomial, eta: Permutation) -> NCPolynomial:
    """Rearrange word positions: position j receives the letter from eta^{-1}(j)."""
    n = len(eta)
    inv = eta.inverse()
    source = [inv(j) - 1 for j in range(1, n + 1)]
    terms = {}
    for word, c in poly.terms.items():
        if len(word) != n:
            raise ValueError(
                f"permutation of size {n} cannot act on a degree {len(word)} word"
            )
        new = tuple(map(word.__getitem__, source))
        terms[new] = terms.get(new, 0) + c
    return NCPolynomial(poly.k, terms)
