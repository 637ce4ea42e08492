import itertools
import re
from fractions import Fraction
from math import factorial

import pytest

from ncsym import (
    CPolynomial,
    IntegerPartition,
    SymExpr,
    convert_sym,
    expand_c,
    integer_partitions,
    is_e_positive,
    lift_R,
    omega_sym,
    product_sym,
    rho,
)
from ncsym import expressions, sym
from ncsym.lattice import _rgs_blocks
from ncsym.parsing import format_terms
from ncsym.partitions import bracket, lambda_factorial, lambda_superfactorial

from conftest import concat, ip_, reachable_names


def s_elt(basis, *parts):
    return SymExpr.element(basis, ip_(*parts))


def test_convert_x_to_p():
    assert convert_sym(s_elt("x", 2), "p") == SymExpr(
        "p", {ip_(2): 1, ip_(1, 1): -1}
    )
    e = s_elt("m", 2, 1)
    assert convert_sym(e, "m") is e


def test_convert_p_to_m():
    # p at (2,1) = m at (2,1) + m at (3)
    assert convert_sym(s_elt("p", 2, 1), "m") == SymExpr(
        "m", {ip_(2, 1): 1, ip_(3): 1}
    )


def test_convert_round_trips():
    for n in range(6):
        for lam in integer_partitions(n):
            for b1 in "mpex":
                start = SymExpr.element(b1, lam)
                for b2 in "mpex":
                    assert convert_sym(convert_sym(start, b2), b1) == start


def test_convert_matches_oracle():
    for n in range(7):
        k = max(n, 1)
        for lam in integer_partitions(n):
            for b1 in ("p", "e", "x") if n < 5 else ("p", "e"):
                in_m = convert_sym(SymExpr.element(b1, lam), "m")
                acc = CPolynomial(k)
                for gam, c in in_m.terms.items():
                    acc = acc + c * expand_c("m", gam, k)
                assert acc == expand_c(b1, lam, k)


def _x_to_p_one_part(n):
    """x at (n) in power sums: each shape nu weighted by its number of set
    partitions times the Möbius value (-1)^(l-1) (l-1)! of merging its l
    blocks."""
    return {
        nu: factorial(n) // (lambda_factorial(nu) * lambda_superfactorial(nu))
        * (-1) ** (len(nu.parts) - 1)
        * factorial(len(nu.parts) - 1)
        for nu in integer_partitions(n)
    }


def test_x_to_p_matches_one_part_closed_form():
    # x is multiplicative, so x at lam in power sums is the product over its
    # parts of one-part rows, which count shapes without enumerating any
    # set partition
    for n in range(9):
        for lam in integer_partitions(n):
            want = {ip_(): 1}
            for part in lam.parts:
                step = {}
                for gam, c in want.items():
                    for nu, d in _x_to_p_one_part(part).items():
                        key = concat(gam, nu)
                        step[key] = step.get(key, 0) + c * d
                want = step
            assert convert_sym(s_elt("x", *lam.parts), "p") == SymExpr("p", want), lam


def test_product():
    assert product_sym(s_elt("x", 3, 2, 2, 1), s_elt("x", 2, 2, 1)) == s_elt(
        "x", 3, 2, 2, 2, 2, 1, 1
    )
    b = s_elt("m", 2, 1)
    assert product_sym(SymExpr.unit("m"), b) == b
    assert product_sym(s_elt("e", 2), s_elt("e", 1)) == s_elt("e", 2, 1)
    assert product_sym(s_elt("p", 2), s_elt("p", 1)) == s_elt("p", 2, 1)


def test_product_matches_oracle():
    # every basis is multiplicative on polynomials: the product of two keys
    # expands to the product of their expansions
    keys = [lam for n in range(6) for lam in integer_partitions(n)]
    for lam, gam in itertools.product(keys, repeat=2):
        n = lam.n + gam.n
        if n > 5:
            continue
        k = max(n, 1)
        for basis in "mpex":
            got = product_sym(SymExpr.element(basis, lam), SymExpr.element(basis, gam))
            acc = CPolynomial(k)
            for mu, c in got.terms.items():
                acc = acc + c * expand_c(basis, mu, k)
            assert acc == expand_c(basis, lam, k) * expand_c(basis, gam, k), (
                basis,
                lam,
                gam,
            )


def test_rules_are_rho_of_the_ncsym_rules(monkeypatch):
    # the row rule sums the NCSym coefficient functions over orbit classes,
    # without building an NCSym row; the product rule collapses the NCSym
    # product; neither detours through another Sym basis
    names = reachable_names(sym, "_key_convert_sym")
    assert {"_vector_partitions", "_signature_rule"} <= names
    # the walk and coefficient of every route come from the one table that
    # _key_convert reads; sym defines no coefficient function
    assert {"_per_block", "_m_to", "_block_mobius", "_vector_mobius"} <= reachable_names(
        expressions, "_signature_rule"
    )
    assert "_signature_rule" in reachable_names(expressions, "_key_convert")
    assert not {"_one", "_block_mobius", "_vector_mobius", "_per_block"} & set(vars(sym))
    assert not names & {"_key_convert", "_by_signature", "_rho_row", "bracket"}
    assert not names & {"convert_sym", "concat"}
    names = reachable_names(sym, "_key_product_sym")
    assert "_key_product" in names and "_rho_row" in names
    assert not names & {"convert_sym", "concat"}
    calls = []
    convert = sym.convert_sym

    def recording(expr, target):
        calls.append((expr, target))
        return convert(expr, target)

    monkeypatch.setattr(sym, "convert_sym", recording)
    # product_sym converts only its right operand
    for basis in "mpex":
        a, b = s_elt(basis, 2, 1), s_elt("p" if basis != "p" else "x", 3, 1)
        calls.clear()
        product_sym(a, b)
        assert calls == [(b, basis)], basis
    # omega_sym keeps its own sign rule on p, the independent side of the
    # omega/rho check
    for basis in "mpex":
        a = s_elt(basis, 3, 1)
        calls.clear()
        omega_sym(a)
        assert [target for _, target in calls] == ["p", basis], basis


def _bell(n):
    return sum(1 for _ in _rgs_blocks(range(n)))


def _grouped(counts, width, walk, weights=None):
    """Brute force: the partitions of a set split into groups of
    ``counts[i]`` elements, grouped by signature, as
    {sorted signature: (shape, class size)}, only those in ``walk``."""
    owner = [i for i, c in enumerate(counts) for _ in range(c)]
    unit = [1 << width * i for i in owner]
    classes = {}
    for blocks, words in _rgs_blocks(range(len(owner)), unit):
        fields = [expressions._fields(width, word)[0] for word in words]
        if walk == "transversal" and any(c > 1 for f in fields for _, c in f):
            continue
        if walk == "refinements" and any(len(f) > 1 for f in fields):
            continue
        shape = tuple(sorted(sum(weights[owner[x]] if weights else 1 for x in b) for b in blocks))
        entry = classes.setdefault(tuple(sorted(words)), [shape, 0])
        assert entry[0] == shape
        entry[1] += 1
    return {sig: tuple(v) for sig, v in classes.items()}


def _classes(counts, width, walk, weights=None):
    out = sym._vector_partitions(counts, width, walk, weights)
    got = {tuple(sorted(sig)): (tuple(sorted(sizes)), size) for sig, sizes, size in out}
    assert len(got) == len(out)  # every class once
    return got


def test_vector_partitions_are_the_signature_classes():
    # the classes and sizes of the enumerator are the signatures of the
    # partitions of bracket(lam)'s ground set, grouped by brute force; on
    # the transversal and refining walks only the matching ones
    for n in range(8):
        width = n.bit_length() + 1
        for lam in integer_partitions(n):
            counts = lam.parts
            for walk in ("all", "transversal", "refinements"):
                got = _classes(counts, width, walk)
                assert got == _grouped(counts, width, walk), (lam, walk)
                if walk == "all":
                    assert sum(size for _, size in got.values()) == _bell(n)


def test_vector_partitions_of_the_multiplicities_are_the_coarsening_classes():
    # the coarsenings of bracket(lam), up to permuting its equal blocks,
    # with the shapes their merged blocks make
    for n in range(8):
        for lam in integer_partitions(n):
            mult = lam.multiplicities()
            counts, parts = tuple(mult.values()), tuple(mult)
            width = len(lam).bit_length() + 1
            got = _classes(counts, width, "all", parts)
            assert got == _grouped(counts, width, "all", parts), lam
            assert sum(size for _, size in got.values()) == _bell(len(lam))
    # (1^8) has 22 classes, one per integer partition of 8, not 4140
    assert len(_classes((8,), 5, "all", (1,))) == 22


def _rho_of_the_ncsym_row(basis, target, lam):
    """The Sym row as rho of the NCSym row at bracket(lam), key by key."""
    scale = sym.rho_scalar(basis, lam)
    if target == "e":
        scale *= expressions._e_scale(lam.n)
    row = expressions._key_convert(basis, target, bracket(lam))
    return SymExpr(target, dict(sym._rho_row(target, row, scale)))


@pytest.mark.parametrize("n", range(9))
def test_orbit_sums_match_rho_of_the_ncsym_rows(n):
    keys = list(integer_partitions(n))
    if n == 8:
        keys = [ip_(8), ip_(3, 3, 2), ip_(3, 1, 1, 1, 1, 1), ip_(*[1] * 8)]
    for lam in keys:
        for basis, target in itertools.permutations("mpex", 2):
            got = convert_sym(SymExpr.element(basis, lam), target)
            assert got == _rho_of_the_ncsym_row(basis, target, lam), (basis, target, lam)


def test_omega():
    assert omega_sym(s_elt("p", 2, 1)) == s_elt("p", 2, 1) * -1
    for n in range(6):
        for lam in integer_partitions(n):
            for basis in "mpex":
                e = SymExpr.element(basis, lam)
                assert omega_sym(omega_sym(e)) == e
    # classical involution swaps elementary and complete directions on p
    assert omega_sym(s_elt("e", 1)) == s_elt("e", 1)


def test_omega_commutes_with_projection():
    from ncsym import NCSymExpr, omega, set_partitions

    for n in range(5):
        for pi in set_partitions(range(1, n + 1)):
            e = NCSymExpr.element("p", pi)
            assert rho(omega(e)) == omega_sym(rho(e))


def test_is_e_positive():
    assert is_e_positive(s_elt("e", 2, 1)) == (True, None)
    ok, certificate = is_e_positive(s_elt("x", 2))
    assert not ok
    assert certificate == (ip_(2), Fraction(-2))
    assert is_e_positive(s_elt("x", 1)) == (True, None)
    # cross-check the certificate with the defining expansion in two variables
    assert expand_c("x", ip_(2), 2) == -2 * expand_c("e", ip_(2), 2)


def test_is_e_positive_returns_the_first_offender_in_printed_order():
    # keys inserted against the canonical order, every sign pattern
    lams = [ip_(1), ip_(2), ip_(1, 1), ip_(3, 1), ip_(2, 2), ip_(2, 1, 1), ip_(4)]
    exprs = [
        SymExpr("e", {lam: sign for lam, sign in zip(reversed(lams), signs)})
        for signs in itertools.product((1, -1), repeat=len(lams))
    ]
    exprs += [s_elt("x", n) for n in range(1, 6)]
    exprs += [SymExpr("x", {ip_(4): 1, ip_(3, 1): 2, ip_(2, 1, 1): -3})]
    for expr in exprs:
        text = format_terms(convert_sym(expr, "e"))
        first = re.search(r"(?:^-| - )[\d/]+\*e\{([\d,]+)\}", text)
        ok, offender = is_e_positive(expr)
        if first is None:
            assert (ok, offender) == (True, None), text
        else:
            parts = map(int, first.group(1).split(","))
            assert not ok and offender[0] == ip_(*parts), text


def test_x_basis_unitriangular():
    for n in range(8):
        parts = sorted(integer_partitions(n), key=lambda l: (len(l.parts), l.parts))
        index = {lam: i for i, lam in enumerate(parts)}
        for lam in parts:
            row = convert_sym(SymExpr.element("x", lam), "p").terms
            assert row[lam] == 1
            for gam in row:
                assert index[gam] >= index[lam]


def test_rho_lift_round_trip():
    for n in range(7):
        for lam in integer_partitions(n):
            for basis in "mpex":
                start = SymExpr.element(basis, lam)
                assert convert_sym(rho(lift_R(start)), basis) == start


def test_e_positivity_trans():
    # the one-block extra element and its projection agree on e-positivity
    from ncsym import NCSymExpr, SetPartition, convert

    for n in range(1, 6):
        top = SetPartition.whole(range(1, n + 1))
        nc = convert(NCSymExpr.element("x", top), "e")
        nc_positive = all(c > 0 for c in nc.terms.values())
        sym_positive, _ = is_e_positive(SymExpr.element("x", ip_(n)))
        assert nc_positive == sym_positive
