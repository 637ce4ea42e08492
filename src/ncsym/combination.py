"""The sparse-combination arithmetic shared by every expression type.

A combination maps keys to nonzero exact rationals and carries a basis tag
plus, for the species types, the ground sets its keys partition.  Every
basis change, product and coproduct is the linear or bilinear extension of
a rule on keys; ``linear`` and ``bilinear`` are the one kernel that extends
a rule, accumulating integer numerators over the inputs' common denominator
and dividing once per output key into a nonzero ``Fraction``.  The kernels'
rules build only valid keys, so each kernel wraps its result through the
unchecked ``Combination._trusted``; only parsing and the public
constructors validate keys and coefficients.  The independent monomial
oracle keeps its own polynomial classes and does not use this module, and
the checks do not use the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _numerators(terms: dict) -> tuple:
    """The coefficients as integer numerators over their lcm denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return [(k, c.numerator * (den // c.denominator)) for k, c in terms.items()], den


def _divide(out: dict, den: int) -> dict:
    """The nonzero accumulated values over den, every one a Fraction."""
    if den != 1:
        return {k: Fraction(v, den) for k, v in out.items() if v}
    return {k: v if type(v) is Fraction else Fraction(v) for k, v in out.items() if v}


def linear(terms: dict, rule) -> dict:
    """The linear extension of ``rule``, which maps a key to (key, weight)
    pairs, applied to {key: rational coefficient}: {key: nonzero Fraction}."""
    numerators, den = _numerators(terms)
    out = {}
    for key, a in numerators:
        for k, w in rule(key):
            out[k] = out.get(k, 0) + a * w
    return _divide(out, den)


def bilinear(left: dict, right: dict, rule) -> dict:
    """The bilinear extension of ``rule``, which maps a pair of keys to
    (key, weight) pairs, applied to two {key: rational coefficient} maps."""
    lnum, lden = _numerators(left)
    rnum, rden = _numerators(right)
    out = {}
    for k1, a in lnum:
        for k2, b in rnum:
            ab = a * b
            for k, w in rule(k1, k2):
                out[k] = out.get(k, 0) + ab * w
    return _divide(out, lden * rden)


class Combination:
    """Immutable sparse rational combination of keys in one context.

    A subclass lists its ``BASES``, checks each key in ``_check_key``, and
    names in ``_FIELDS`` the constructor arguments that precede the terms,
    its context: the basis plus any ground sets.  Two combinations add only
    when their contexts agree after ``_coerce`` has brought the right
    operand over, and raise ``ValueError(_MISMATCH)`` otherwise;
    ``_product`` is the bilinear product used when both factors are
    combinations.
    """

    __slots__ = ("basis", "terms")
    _FIELDS = ("basis",)

    _UNKNOWN_BASIS = "unknown basis {!r}"

    def __init__(self, basis: str, terms=None):
        if basis not in self.BASES:
            raise ValueError(self._UNKNOWN_BASIS.format(basis))
        self.basis = basis
        clean = {}
        for key, coeff in (terms or {}).items():
            self._check_key(key)
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, *args) -> "Combination":
        """An instance from the constructor's arguments, unchecked.

        The caller guarantees a basis in ``BASES``, frozenset grounds, keys
        that ``_check_key`` accepts and nonzero ``Fraction`` coefficients;
        the terms dict is kept, not copied.
        """
        self = object.__new__(cls)
        for name, value in zip(cls._FIELDS, args):
            setattr(self, name, value)
        self.terms = args[-1]
        return self

    def _context(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def _new(self, terms) -> "Combination":
        return type(self)(*self._context(), terms)

    def _coerce(self, other):
        return other

    def _product(self, other):
        return NotImplemented

    def coefficient(self, *key) -> Fraction:
        """The coefficient at a key; a tensor key is passed as its two legs."""
        return self.terms.get(key if len(key) > 1 else key[0], Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._context() == other._context()
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"

    def __str__(self):
        from . import parsing

        return parsing.format_terms(self)

    def __add__(self, other):
        if isinstance(other, Combination) and type(other) is not type(self):
            return NotImplemented  # no operator mixes combination types
        other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        if other._context() != self._context():
            raise ValueError(self._MISMATCH)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return self._new(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__((-1) * other)

    def __rsub__(self, other):
        return ((-1) * self).__add__(other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Combination":
        return self._new({key: v * c for key, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Combination):
            return self._product(other) if type(other) is type(self) else NotImplemented
        return self.scale(other)

    def __rmul__(self, other):
        return NotImplemented if isinstance(other, Combination) else self.scale(other)
