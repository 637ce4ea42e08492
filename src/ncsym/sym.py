"""Classical symmetric functions indexed by integer partitions.

The p and e bases reach m by counting: the m-coefficient of p or e at lam
at gamma is the number of fillings of a table with rows lam and column
totals gamma (whole parts for p, 0/1 rows for e).  The m-to-p and m-to-e
tables are these matrices inverted exactly.  The multiplicative x-basis is
the product over its parts of one-part power sum rows, and p-to-x inverts
it per degree the same way; composite rows and the operations extend
through ``combination.linear``/``bilinear``.  The monomial oracle is not
used here; it expands the same elements as polynomials and checks these
tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial

from .combination import Combination, bilinear, linear
from .lattice import merge_mobius
from .limits import check_degree
from .partitions import (
    IntegerPartition,
    concat,
    integer_partitions,
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
    _FORMAT = "format_sym"

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


@lru_cache(maxsize=None)
def _degree_partitions(n: int) -> tuple:
    return tuple(integer_partitions(n))


@lru_cache(maxsize=None)
def _to_m(basis: str, n: int) -> dict:
    """Each degree-n p or e element in m-coordinates.

    The coefficient at gamma counts the fillings of a table with a row per
    part of lam and column totals gamma: for p every row puts its whole
    part into one column, for e every row is a 0/1 vector.
    """
    parts = _degree_partitions(n)
    out = {}
    for lam in parts:
        row = {}
        for gam in parts:
            c = _fillings(basis, lam.parts, gam.parts)
            if c:
                row[gam] = c
        out[lam] = row
    return out


@lru_cache(maxsize=None)
def _fillings(basis: str, rows: tuple, totals: tuple) -> int:
    """Fillings of the rows, in order, that use up the column totals exactly.

    Columns are interchangeable, so ``totals`` is kept sorted without zeros.
    """
    if not rows:
        return int(not totals)
    part, rest = rows[0], rows[1:]
    if basis == "p":  # the whole part into one column
        choices, step = [(j,) for j, t in enumerate(totals) if t >= part], part
    elif basis == "e":  # one unit into each of ``part`` distinct columns
        choices, step = itertools.combinations(range(len(totals)), part), 1
    else:
        raise ValueError(f"no filling rule for basis {basis!r}")
    count = 0
    for cols in choices:
        left = list(totals)
        for j in cols:
            left[j] -= step
        count += _fillings(basis, rest, tuple(sorted(filter(None, left), reverse=True)))
    return count


def _invert_rows(keys: tuple, rows: dict) -> dict:
    """Invert the square matrix {key -> coordinates over keys} exactly."""
    n = len(keys)
    index = {lam: i for i, lam in enumerate(keys)}
    aug = []
    for i, lam in enumerate(keys):
        row = [Fraction(0)] * n
        for gam, c in rows[lam].items():
            row[index[gam]] = Fraction(c)
        aug.append(row + [Fraction(int(i == j)) for j in range(n)])
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("basis matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y if y else x for x, y in zip(aug[r], aug[col])]
    out = {}
    for j, gam in enumerate(keys):
        out[gam] = {
            keys[i]: aug[j][n + i] for i in range(n) if aug[j][n + i]
        }
    return out


@lru_cache(maxsize=None)
def _from_m(basis: str, n: int) -> dict:
    """Each degree-n monomial element in ``basis`` coordinates."""
    return _invert_rows(_degree_partitions(n), _to_m(basis, n))


@lru_cache(maxsize=None)
def _x_to_p_key(lam: IntegerPartition) -> dict:
    """x at ``lam`` in power sums: the product over the parts of one-part rows."""
    row = {IntegerPartition(): 1}
    for part in lam.parts:
        one = _x_to_p_part(part).items()
        row = linear(row, lambda gam: ((concat(gam, nu), d) for nu, d in one))
    return row


@lru_cache(maxsize=None)
def _x_to_p_part(n: int) -> dict:
    """x at (n) in power sums: each shape nu weighted by its number of set
    partitions times the Möbius value of merging its blocks."""
    return {
        nu: factorial(n) // (lambda_factorial(nu) * lambda_superfactorial(nu))
        * merge_mobius(len(nu.parts))
        for nu in _degree_partitions(n)
    }


@lru_cache(maxsize=None)
def _p_to_x(n: int) -> dict:
    return _invert_rows(
        _degree_partitions(n), {lam: _x_to_p_key(lam) for lam in _degree_partitions(n)}
    )


@lru_cache(maxsize=None)
def _key_convert_sym(basis: str, target: str, lam: IntegerPartition) -> tuple:
    """Coordinates of one basis element in the target basis, as key/value pairs."""
    if basis == target:
        return ((lam, Fraction(1)),)
    n = lam.n
    if basis == "x":
        row = _x_to_p_key(lam)
        if target != "p":
            row = linear(row, lambda mid: _key_convert_sym("p", target, mid))
    elif target == "x":
        prow = dict(_key_convert_sym(basis, "p", lam))
        row = linear(prow, lambda mid: _p_to_x(n)[mid].items())
    elif basis == "m":
        row = _from_m(target, n)[lam]
    elif target == "m":
        row = _to_m(basis, n)[lam]
    else:
        row = linear(_to_m(basis, n)[lam], lambda mid: _from_m(target, n)[mid].items())
    return tuple(row.items())


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
    first offending term in canonical order.  Coefficients that cancel to
    zero do not appear in the sparse expansion and are not offenders.
    """
    ee = convert_sym(expr, "e")
    for lam in sorted(ee.terms, key=lambda l: (l.n, tuple(-p for p in l.parts))):
        if ee.terms[lam] <= 0:
            return False, (lam, ee.terms[lam])
    return True, None
