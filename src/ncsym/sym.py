"""Classical symmetric functions indexed by integer partitions.

Every basis change is the commutative image of the NCSym one.  The
projection rho sends b at a set partition of shape lam to
``rho_scalar(b, lam)`` times b at lam: lam^! on m, lam! on e and one on p
and x (Rosas-Sagan).  So b at lam is rho of the NCSym row of b at
``bracket(lam)``, divided by b's scalar at lam: each target key collapses
to its shape and is weighted by the target's scalar there.  x <-> e goes
through the p row, collapsed to shapes first, so that no one-block x <-> e
row walks its comparable pairs.  The operations extend their key rules
through ``combination.linear``/``bilinear``.  The monomial oracle is not
used here; it expands the same elements as polynomials and checks them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .combination import Combination, bilinear, linear
from .limits import check_degree
from .partitions import (
    IntegerPartition,
    bracket,
    concat,
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


@lru_cache(maxsize=None)
def _key_convert_sym(basis: str, target: str, lam: IntegerPartition) -> tuple:
    """Coordinates of one basis element in the target basis, as key/value
    pairs: rho of the NCSym row at ``bracket(lam)`` over b's scalar at lam
    (and over the row's scale, for a row into e)."""
    if {basis, target} == {"x", "e"}:
        prow = dict(_key_convert_sym(basis, "p", lam))
        return tuple(linear(prow, partial(_key_convert_sym, "p", target)).items())
    from .expressions import _e_scale, _key_convert

    shapes = {}
    for sigma, w in _key_convert(basis, target, bracket(lam)):
        gam = sigma.shape()
        shapes[gam] = shapes.get(gam, 0) + w
    scale = rho_scalar(basis, lam)
    if target == "e":
        scale *= _e_scale(lam.n)
    return tuple(
        (gam, Fraction(c * rho_scalar(target, gam), scale))
        for gam, c in shapes.items()
        if c
    )


def convert_sym(expr: SymExpr, target: str) -> SymExpr:
    """Re-express a symmetric function in the target basis, exactly."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == expr.basis:
        return expr
    for lam in expr.terms:
        check_degree(lam.n)
    rule = partial(_key_convert_sym, expr.basis, target)
    return SymExpr(target, linear(expr.terms, rule))


def product_sym(a: SymExpr, b: SymExpr) -> SymExpr:
    """Bilinear product; multiplicative bases concatenate keys, m routes through p."""
    if not isinstance(b, SymExpr):
        return a.scale(b)
    basis = a.basis
    if basis == "m":
        return convert_sym(product_sym(convert_sym(a, "p"), convert_sym(b, "p")), "m")
    right = convert_sym(b, basis).terms
    terms = bilinear(a.terms, right, lambda lam, gam: ((concat(lam, gam), 1),))
    return SymExpr(basis, terms)


def omega_sym(expr: SymExpr) -> SymExpr:
    """The involution scaling each power sum term by (-1)^(n - number of parts)."""
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
