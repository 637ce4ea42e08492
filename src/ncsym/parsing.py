"""Expression grammar: parsing and canonical printing.

    expr     := term (('+'|'-') term)*
    term     := rational | [rational '*'] basis '{' key '}'
    rational := int ['/' int]
    basis    := 'm' | 'p' | 'e' | 'x'

Keys are set partitions (``x{1,3/2}``) or integer partitions (``x{3,2,1}``).
A bare rational is the degree-0 unit term.  ``format_terms`` (text) and
``terms_json`` (JSON rows) render every combination type, listing terms in
canonical order: by degree, then lexicographically by restricted growth
string (set partitions) or by descending parts (integer partitions), and
tensor pairs leg by leg.  The ASCII tensor separator is ``(x)``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expressions import NCSymExpr
from .partitions import IntegerPartition, SetPartition
from .species import SpeciesElement
from .sym import SymExpr, canonical_order


class ParseError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>\d+(?:\s*/\s*\d+)?)\s*(?:\*\s*(?P<elt1>[mpex])\s*\{(?P<key1>[^{}]*)\}\s*)?"
    r"|(?P<elt2>[mpex])\s*\{(?P<key2>[^{}]*)\}\s*)$"
)


def _signed_chunks(text: str):
    """Split on top-level + and - signs; yields (sign, chunk, position)."""
    depth = 0
    sign = 1
    start = None
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced '}'", i)
        elif ch in "+-" and depth == 0 and start is not None:
            yield sign, text[start:i], start
            sign = -1 if ch == "-" else 1
            start = None
            i += 1
            continue
        if start is None and not ch.isspace():
            if ch == "-":
                sign = -sign
                i += 1
                continue
            if ch == "+":
                i += 1
                continue
            start = i
        i += 1
    if depth != 0:
        raise ParseError("unbalanced '{'", n)
    if start is None:
        raise ParseError("empty term", n)
    yield sign, text[start:], start


def _parse_terms(text: str, key_parser):
    """Yield (coefficient, basis_or_None, key_or_None) for each term."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    for sign, chunk, pos in _signed_chunks(text):
        match = _TERM_RE.match(chunk)
        if not match:
            raise ParseError(f"malformed term {chunk.strip()!r}", pos)
        coeff_text = match.group("coeff")
        basis = match.group("elt1") or match.group("elt2")
        key_text = match.group("key1") if match.group("elt1") else match.group("key2")
        try:
            coeff = Fraction(coeff_text.replace(" ", "")) if coeff_text else Fraction(1)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {coeff_text.strip()!r}", pos) from None
        coeff *= sign
        if basis is None:
            yield coeff, None, None
            continue
        try:
            key = key_parser(key_text)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        yield coeff, basis, key


def _assemble(text: str, key_parser, unit_key):
    terms = {}
    basis_seen = None
    for coeff, basis, key in _parse_terms(text, key_parser):
        if basis is None:
            key = unit_key
        else:
            if basis_seen is None:
                basis_seen = basis
            elif basis != basis_seen:
                raise ParseError(
                    f"mixed bases {basis_seen!r} and {basis!r} in one expression", 0
                )
        terms[key] = terms.get(key, 0) + coeff
    return basis_seen, terms


def parse_ncsym(text: str, default_basis: str = "p") -> NCSymExpr:
    """Parse an expression with set partition keys on standard ground sets."""
    basis, terms = _assemble(text, SetPartition.parse, SetPartition.empty())
    return NCSymExpr(basis or default_basis, terms)


def parse_sym(text: str, default_basis: str = "p") -> SymExpr:
    """Parse an expression with integer partition keys."""
    basis, terms = _assemble(text, IntegerPartition.parse, IntegerPartition())
    return SymExpr(basis or default_basis, terms)


def parse_species(text: str, default_basis: str = "p") -> SpeciesElement:
    """Parse a species element; every key must partition one shared ground set."""
    basis, terms = _assemble(text, SetPartition.parse, SetPartition.empty())
    grounds = {pi.ground for pi in terms}
    if len(grounds) > 1:
        raise ParseError("species keys must all partition one ground set", 0)
    ground = grounds.pop() if grounds else frozenset()
    return SpeciesElement(ground, basis or default_basis, terms)


def _nc_sort_key(pi: SetPartition):
    return (pi.size, pi.rgs())


def _blocks(pi: SetPartition) -> list:
    return [list(blk) for blk in pi.blocks]


def _key_rules(c):
    """The sort key, the JSON fields and the term text ``text(key, mag)``,
    ``mag`` the coefficient's magnitude as text, for the keys of ``c``,
    picked once from their type: set partitions
    (``blocks``), integer partitions (``parts``), or tensor pairs of set
    partitions (``left_blocks``, ``right_blocks``, ordered leg by leg)."""
    basis = c.basis
    first = next(iter(c.terms), None)
    if isinstance(first, tuple):

        def leg(pi):
            return f"{basis}{{{pi}}}" if pi else "1"

        def text(key, mag):
            left, right = leg(key[0]), leg(key[1])
            return f"1 (x) {right}" if mag == "1" and left == "1" else f"{mag}*{left} (x) {right}"

        return (
            lambda key: (_nc_sort_key(key[0]), _nc_sort_key(key[1])),
            lambda key: {"left_blocks": _blocks(key[0]), "right_blocks": _blocks(key[1])},
            text,
        )

    def text(key, mag):
        return f"{mag}*{basis}{{{key}}}" if key else mag

    if isinstance(first, IntegerPartition):
        return (
            canonical_order,
            lambda lam: {"parts": list(lam.parts)},
            text,
        )
    return _nc_sort_key, lambda pi: {"blocks": _blocks(pi)}, text


def format_terms(c) -> str:
    """Canonical text of a combination: its terms in canonical order with
    explicit magnitudes and signs, or ``0``.  A magnitude prints as
    ``str(Fraction)`` does: ``num`` or ``num/den``."""
    order, _, text = _key_rules(c)
    terms = c.terms
    out = []
    for key in sorted(terms, key=order):
        coeff = terms[key]
        num, den = coeff.numerator, coeff.denominator
        if num < 0:
            num = -num
            sign = " - " if out else "-"
        else:
            sign = " + " if out else ""
        out.append(sign + text(key, str(num) if den == 1 else f"{num}/{den}"))
    return "".join(out) or "0"


def terms_json(c) -> list:
    """Schema: list of {basis, numerator, denominator} plus the key's fields,
    in the canonical order of ``format_terms``."""
    order, fields, _ = _key_rules(c)
    return [
        {
            "basis": c.basis,
            **fields(key),
            "numerator": c.terms[key].numerator,
            "denominator": c.terms[key].denominator,
        }
        for key in sorted(c.terms, key=order)
    ]


# The per-type names.  The keys of a species value partition one ground set,
# so there the graded canonical order is the restricted growth string order.
format_ncsym = format_sym = format_nctensor = format_terms
format_species = format_species_tensor = format_terms
ncsym_json = sym_json = nctensor_json = terms_json
species_json = species_tensor_json = terms_json
