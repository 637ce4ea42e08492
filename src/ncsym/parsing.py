"""Expression grammar: parsing and canonical printing.

    expr     := term (('+'|'-') term)*
    term     := rational | [rational '*'] basis '{' key '}'
    rational := int ['/' int]
    basis    := 'm' | 'p' | 'e' | 'x'

Keys are set partitions (``x{1,3/2}``) or integer partitions (``x{3,2,1}``).
A bare rational is the degree-0 unit term.  Printing lists terms in
canonical order: by degree, then lexicographically by restricted growth
string (set partitions) or by descending parts (integer partitions).  The
ASCII tensor separator is ``(x)``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expressions import NCSymExpr, NCTensorExpr
from .partitions import IntegerPartition, SetPartition
from .species import SpeciesElement
from .sym import SymExpr


class ParseError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>\d+(?:\s*/\s*\d+)?)\s*(?:\*\s*(?P<elt1>[mpex])\s*\{(?P<key1>[^{}]*)\}\s*)?"
    r"|(?P<elt2>[mpex])\s*\{(?P<key2>[^{}]*)\}\s*)$"
)


def _split_terms(text: str):
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


def _parse_terms(text: str, key_parser, position_base: int = 0):
    """Yield (coefficient, basis_or_None, key_or_None) for each term."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    for sign, chunk, pos in _split_terms(text):
        match = _TERM_RE.match(chunk)
        if not match:
            raise ParseError(f"malformed term {chunk.strip()!r}", position_base + pos)
        coeff_text = match.group("coeff")
        basis = match.group("elt1") or match.group("elt2")
        key_text = match.group("key1") if match.group("elt1") else match.group("key2")
        try:
            coeff = Fraction(coeff_text.replace(" ", "")) if coeff_text else Fraction(1)
        except ZeroDivisionError:
            raise ParseError(
                f"zero denominator in {coeff_text.strip()!r}", position_base + pos
            ) from None
        coeff *= sign
        if basis is None:
            yield coeff, None, None
            continue
        try:
            key = key_parser(key_text)
        except ValueError as exc:
            raise ParseError(str(exc), position_base + pos) from None
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


def _sym_sort_key(lam: IntegerPartition):
    return (lam.n, tuple(-p for p in lam.parts))


def _join_signed(pieces) -> str:
    """Join (coefficient, body) pairs with explicit magnitudes and signs."""
    out = []
    for coeff, body in pieces:
        mag = abs(coeff)
        text = body(mag)
        if not out:
            out.append(text if coeff > 0 else f"-{text}")
        else:
            out.append(f" + {text}" if coeff > 0 else f" - {text}")
    return "".join(out) if out else "0"


def _term_body(basis: str, key_str: str, empty: bool):
    if empty:
        return str
    return lambda mag: f"{mag}*{basis}{{{key_str}}}"


def format_ncsym(expr: NCSymExpr) -> str:
    pieces = []
    for pi in sorted(expr.terms, key=_nc_sort_key):
        pieces.append(
            (expr.terms[pi], _term_body(expr.basis, str(pi), not pi.blocks))
        )
    return _join_signed(pieces)


def format_sym(expr: SymExpr) -> str:
    pieces = []
    for lam in sorted(expr.terms, key=_sym_sort_key):
        pieces.append(
            (expr.terms[lam], _term_body(expr.basis, str(lam), not lam.parts))
        )
    return _join_signed(pieces)


def _tensor_body(basis: str, left: SetPartition, right: SetPartition):
    lstr = "1" if not left.blocks else f"{basis}{{{left}}}"
    rstr = "1" if not right.blocks else f"{basis}{{{right}}}"

    def body(mag):
        if mag == 1 and lstr == "1":
            return f"1 (x) {rstr}"
        return f"{mag}*{lstr} (x) {rstr}"

    return body


def format_nctensor(t: NCTensorExpr) -> str:
    pieces = []
    for left, right in sorted(
        t.terms, key=lambda k: (_nc_sort_key(k[0]), _nc_sort_key(k[1]))
    ):
        pieces.append(
            (t.terms[(left, right)], _tensor_body(t.basis, left, right))
        )
    return _join_signed(pieces)


def ncsym_json(expr: NCSymExpr) -> list:
    """Schema: list of {basis, blocks, numerator, denominator}."""
    return [
        {
            "basis": expr.basis,
            "blocks": [list(blk) for blk in pi.blocks],
            "numerator": expr.terms[pi].numerator,
            "denominator": expr.terms[pi].denominator,
        }
        for pi in sorted(expr.terms, key=_nc_sort_key)
    ]


def sym_json(expr: SymExpr) -> list:
    """Schema: list of {basis, parts, numerator, denominator}."""
    return [
        {
            "basis": expr.basis,
            "parts": list(lam.parts),
            "numerator": expr.terms[lam].numerator,
            "denominator": expr.terms[lam].denominator,
        }
        for lam in sorted(expr.terms, key=_sym_sort_key)
    ]


def nctensor_json(t: NCTensorExpr) -> list:
    """Schema: list of {basis, left_blocks, right_blocks, numerator, denominator}."""
    return [
        {
            "basis": t.basis,
            "left_blocks": [list(blk) for blk in left.blocks],
            "right_blocks": [list(blk) for blk in right.blocks],
            "numerator": t.terms[(left, right)].numerator,
            "denominator": t.terms[(left, right)].denominator,
        }
        for left, right in sorted(
            t.terms, key=lambda k: (_nc_sort_key(k[0]), _nc_sort_key(k[1]))
        )
    ]


# Every key of a species value partitions one shared ground set, so the
# graded canonical order (degree, then restricted growth string) reduces to
# the restricted growth string and the graded printers serve unchanged.
format_species = format_ncsym
format_species_tensor = format_nctensor
species_json = ncsym_json
species_tensor_json = nctensor_json
