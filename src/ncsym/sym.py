"""Classical symmetric functions indexed by integer partitions.

Every basis change is the commutative image of the NCSym one.  The
projection rho sends b at a set partition of shape lam to
``rho_scalar(b, lam)`` times b at lam: lam^! on m, lam! on e and one on p
and x (Rosas-Sagan).  So b at lam is rho of the NCSym row of b at
``bracket(lam)``, divided by b's scalar at lam: each target key collapses
to its shape and is weighted by the target's scalar there.  The product
of two keys is rho of the NCSym product at their brackets in the same way.
The operations extend their key rules through ``combination.linear``/
``bilinear``.  The monomial oracle is not used here; it expands the same
elements as polynomials and checks them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

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
    return tuple(
        (gam, Fraction(c * rho_scalar(basis, gam), scale))
        for gam, c in shapes.items()
        if c
    )


@lru_cache(maxsize=None)
def _key_convert_sym(basis: str, target: str, lam: IntegerPartition) -> tuple:
    """Coordinates of one basis element in the target basis, as key/value
    pairs: rho of the NCSym row at ``bracket(lam)`` over b's scalar at lam
    (and over the row's scale, for a row into e)."""
    from .expressions import _e_scale, _key_convert

    scale = rho_scalar(basis, lam)
    if target == "e":
        scale *= _e_scale(lam.n)
    return _rho_row(target, _key_convert(basis, target, bracket(lam)), scale)


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
    from .expressions import _key_product

    scale = rho_scalar(basis, lam) * rho_scalar(basis, gam)
    return _rho_row(basis, _key_product(basis, bracket(lam), bracket(gam)), scale)


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
