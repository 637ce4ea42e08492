"""Output digests and independent checks for every op kind.

``canonical`` renders a result with the library's canonical formatters, so
its digest can be compared against the golden digests recorded for the
default seed.  ``verify`` checks a result by a route other than the one the
op took: a round trip through the power-sum basis, the power-sum route for
the x coproduct, Stirling-number counts for graphs, and ``passed`` for check
results.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import factorial, prod


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(L, result) -> str:
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str):
        code, stdout = result
        return f"exit={code}\n{stdout}"
    formatters = (
        (L.NCSymExpr, L.format_ncsym),
        (L.NCTensorExpr, L.format_nctensor),
        (L.SymExpr, L.format_sym),
        (L.SpeciesTensor, L.format_species_tensor),
        (L.ChromaticPolynomial, lambda chi: f"{chi} {sorted(chi.counts.items())}"),
    )
    for cls, fmt in formatters:
        if isinstance(result, cls):
            return fmt(result)
    if isinstance(result, list):
        return json.dumps([tuple(r) if isinstance(r, tuple) else r for r in result], sort_keys=True)
    return repr(result)


# ------------------------------------------------------------------ helpers


def _stirling2(n: int, k: int) -> int:
    return sum((-1) ** j * (k - j) ** n * factorial(k) // (factorial(j) * factorial(k - j)) for j in range(k + 1)) // factorial(k)


def stable_counts(sigma) -> dict:
    """Refinements of ``sigma`` by block count: a convolution of Stirling numbers."""
    counts = {0: 1}
    for blk in sigma.blocks:
        nxt = {}
        for l, c in counts.items():
            for j in range(1, len(blk) + 1):
                nxt[l + j] = nxt.get(l + j, 0) + c * _stirling2(len(blk), j)
        counts = nxt
    return counts


def unique_sink_count(sigma) -> int:
    """Greene–Zaslavsky: (-1)^(n-1) times the linear coefficient of the chromatic polynomial."""
    q = sum(c * (-1) ** (l - 1) * factorial(l - 1) for l, c in stable_counts(sigma).items())
    return (-1) ** (sigma.size - 1) * q


def set_partitions(elems: list):
    """Every partition of ``elems`` as a list of blocks (independent of the library's RGS walk)."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def _split_respecting(pi, s1) -> bool:
    return all(set(blk) <= s1 or not set(blk) & s1 for blk in pi.blocks)


def species_convert(L, basis: str, ground, terms: dict, target: str) -> dict:
    """Convert a combination on any ground set by standardizing, converting, relabelling back."""
    elems = sorted(ground)
    st = {x: i + 1 for i, x in enumerate(elems)}
    back = {i + 1: x for i, x in enumerate(elems)}
    expr = L.NCSymExpr(basis, {pi.relabel(st): c for pi, c in terms.items()})
    return {pi.relabel(back): c for pi, c in L.convert(expr, target).terms.items()}


def delta_via_p(L, v, s1, s2):
    """Species coproduct component through p: restrict split-respecting power sums."""
    legs = {}

    def leg(part):
        if part not in legs:
            legs[part] = species_convert(L, "p", part.ground, {part: 1}, v.basis)
        return legs[part]

    out = {}
    for pi, c in species_convert(L, v.basis, v.ground, v.terms, "p").items():
        if not _split_respecting(pi, s1):
            continue
        for lt, lc in leg(pi.restrict(s1)).items():
            for rt, rc in leg(pi.restrict(s2)).items():
                out[(lt, rt)] = out.get((lt, rt), 0) + c * lc * rc
    return L.SpeciesTensor(s1, s2, v.basis, out)


def coproduct_independent(L, expr):
    """The coproduct by a route other than the production one for its basis."""
    b = expr.basis
    if b == "x":
        return L.tensor_convert(L.coproduct(L.convert(expr, "p")), "x")
    if b == "e":
        return L.tensor_convert(L.coproduct(L.convert(expr, "x")), "e")
    ground = {pi.ground for pi in expr.terms}.pop()
    return L.fock_coproduct(L.SpeciesElement(ground, b, expr.terms))


def x_coefficient_via_p(L, pi, sigma, tau) -> int:
    """Coefficient of x_sigma (x) x_tau in the coproduct of x_pi, through power sums."""
    total = 0
    for rho in L.refinements(pi):
        mu = L.mobius(rho, pi)
        blocks = rho.blocks
        for r in range(len(blocks) + 1):
            for chosen in itertools.combinations(range(len(blocks)), r):
                if sum(len(blocks[i]) for i in chosen) != sigma.size:
                    continue
                left = L.SetPartition(blocks[i] for i in chosen).standardize()
                right = L.SetPartition(blk for i, blk in enumerate(blocks) if i not in chosen).standardize()
                if L.is_refinement(sigma, left) and L.is_refinement(tau, right):
                    total += mu
    return total


def c_coefficient_via_p(L, A, s1, s2, B, C) -> int:
    total = 0
    for rho in L.refinements(A):
        if _split_respecting(rho, s1):
            if L.is_refinement(B, rho.restrict(s1)) and L.is_refinement(C, rho.restrict(s2)):
                total += L.mobius(rho, A)
    return total


def brute_mobius(L, lower, upper) -> int:
    """Möbius value from the defining recursion over the interval."""
    values = {}
    for y in sorted(L.interval(lower, upper), key=lambda p: -len(p.blocks)):
        values[y] = 1 if y == lower else -sum(values[z] for z in L.interval(lower, y) if z != y)
    return values[upper]


def _p_product(L, a, b):
    """Product of two p-basis expressions by shifted concatenation of keys."""
    terms = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            shift = k1.size
            key = L.SetPartition(k1.blocks + tuple(tuple(x + shift for x in blk) for blk in k2.blocks))
            terms[key] = terms.get(key, 0) + c1 * c2
    return L.NCSymExpr("p", terms)


def _p_product_sym(L, a, b):
    terms = {}
    for l1, c1 in a.terms.items():
        for l2, c2 in b.terms.items():
            key = L.IntegerPartition(l1.parts + l2.parts)
            terms[key] = terms.get(key, 0) + c1 * c2
    return L.SymExpr("p", terms)


# ------------------------------------------------------------------ library ops


FULL_CHECK_TERMS = 200
SAMPLED_COEFFICIENTS = 48


def _to_p(L, expr) -> dict:
    """p-coordinates straight from the defining Möbius sums, key by key."""
    out = {}
    for pi, c in expr.terms.items():
        if expr.basis == "p":
            pairs = [(pi, 1)]
        elif expr.basis == "m":
            pairs = [(s, L.mobius(pi, s)) for s in L.coarsenings(pi)]
        elif expr.basis == "x":
            pairs = [(s, L.mobius(s, pi)) for s in L.refinements(pi)]
        else:
            bottom = L.SetPartition.singletons(pi.ground)
            pairs = [(s, L.mobius(bottom, s)) for s in L.refinements(pi)]
        for sigma, w in pairs:
            out[sigma] = out.get(sigma, 0) + c * w
    return {k: v for k, v in out.items() if v}


def p_coefficient(L, expr, sigma):
    """Coefficient of p at ``sigma`` in ``expr``, without converting all of it."""
    terms = expr.terms
    if expr.basis == "p":
        return terms.get(sigma, 0)
    if expr.basis == "m":
        return sum(terms.get(t, 0) * L.mobius(t, sigma) for t in L.refinements(sigma))
    if expr.basis == "x":
        return sum(terms.get(t, 0) * L.mobius(sigma, t) for t in L.coarsenings(sigma))
    bottom = L.SetPartition.singletons(sigma.ground)
    return L.mobius(bottom, sigma) * sum(terms.get(t, 0) for t in L.coarsenings(sigma))


def _check_nc_convert(L, expr, target, result) -> bool:
    """Round trip through p; a large result is checked on sampled p-coefficients.

    A full round trip of a several-thousand-term result costs several times
    the op, so results above ``FULL_CHECK_TERMS`` terms are compared with the
    input's p-coordinates at up to ``SAMPLED_COEFFICIENTS`` partitions: those
    in the input's p-support and random ones, seeded by the input itself.
    """
    if result.basis != target:
        return False
    expected = _to_p(L, expr)
    if target == "p":
        return result.terms == expected
    if len(result.terms) <= FULL_CHECK_TERMS:
        return L.convert(result, "p").terms == expected
    rng = random.Random(L.format_ncsym(expr))
    support = sorted(expected, key=str)
    half = SAMPLED_COEFFICIENTS // 2
    sample = rng.sample(support, min(half, len(support)))
    n = next(iter(expr.terms)).size
    while len(sample) < SAMPLED_COEFFICIENTS:
        blocks = _random_partition(rng, n)
        sample.append(L.SetPartition(blocks))
    return all(p_coefficient(L, result, s) == expected.get(s, 0) for s in sample)


def _random_partition(rng, n: int) -> list:
    blocks = []
    for x in range(1, n + 1):
        i = rng.randrange(len(blocks) + 1)
        if i == len(blocks):
            blocks.append([x])
        else:
            blocks[i].append(x)
    return blocks


def _check_sym_convert(L, expr, target, result) -> bool:
    """Round trip through p; Sym results have at most a few dozen terms."""
    if result.basis != target:
        return False
    if target == "p":
        return L.convert_sym(result, expr.basis) == expr
    return L.convert_sym(result, "p") == L.convert_sym(expr, "p")


def _projection(L, basis: str, terms: dict) -> dict:
    """Collapse keys to shapes: m picks up prod(mult!), e prod(part!), p and x nothing."""
    out = {}
    for pi, c in terms.items():
        sizes = sorted((len(b) for b in pi.blocks), reverse=True)
        if basis == "m":
            scale = prod(factorial(sizes.count(s)) for s in set(sizes))
        elif basis == "e":
            scale = prod(factorial(s) for s in sizes)
        else:
            scale = 1
        lam = L.IntegerPartition(sizes)
        out[lam] = out.get(lam, 0) + c * scale
    return {k: v for k, v in out.items() if v}


def _check_rho(L, args, result):
    """x projects through its p-coordinates; the other bases by their scalings."""
    (expr,) = args
    if result.basis != expr.basis:
        return False
    if expr.basis == "x":
        return L.convert_sym(result, "p").terms == _projection(L, "p", _to_p(L, expr))
    return result.terms == _projection(L, expr.basis, expr.terms)


def _check_tensor_convert(L, args, result):
    t, target = args
    if target == "p":
        return L.tensor_convert(result, t.basis) == t
    return L.tensor_convert(result, "p") == L.tensor_convert(t, "p")


def _check_fock(L, args, result):
    (v,) = args
    expr = L.NCSymExpr(v.basis, v.terms)
    if v.basis == "x":
        return result == L.tensor_convert(L.coproduct(L.convert(expr, "p")), "x")
    return result == L.coproduct(expr)


def _check_coproduct(L, args, result):
    (expr,) = args
    if expr.basis == "e":
        return L.tensor_convert(result, "p") == L.coproduct(L.convert(expr, "p"))
    return result == coproduct_independent(L, expr)


def _check_x_to_m_top(L, args, result):
    """Each coefficient is the signed unique-sink orientation count of its graph."""
    (n,) = args
    sign = (-1) ** (n - 1)
    expected = {}
    for sigma in set_partitions(list(range(1, n + 1))):
        key = L.SetPartition(sigma)
        c = unique_sink_count(key)
        if c:
            expected[key] = sign * c
    return result.basis == "m" and result.terms == expected


def _check_conjecture(L, args, rows):
    (max_n,) = args
    bell = lambda n: sum(_stirling2(n, k) for k in range(n + 1))  # noqa: E731
    return len(rows) == max_n and all(
        r["internal_agreement"] and r["nonzero_terms"] + r["zero_terms"] == bell(r["n"])
        for r in rows
    )


LIBRARY_CHECKS = {
    "convert": lambda L, a, r: _check_nc_convert(L, *a, r),
    "convert_sym": lambda L, a, r: _check_sym_convert(L, *a, r),
    "x_to_m_top": _check_x_to_m_top,
    "lift_R": lambda L, a, r: r.basis == "p" and L.rho(r) == L.convert_sym(a[0], "p"),
    "rho": _check_rho,
    "coproduct": _check_coproduct,
    "species_delta": lambda L, a, r: r == delta_via_p(L, *a),
    "x_coeff": lambda L, a, r: r == x_coefficient_via_p(L, *a),
    "c_coeff": lambda L, a, r: r == c_coefficient_via_p(L, *a),
    "fock": _check_fock,
    "tensor_convert": _check_tensor_convert,
    "conjecture": _check_conjecture,
    "suite": lambda L, a, r: bool(r) and all(res.passed for res in r),
    "chromatic": lambda L, a, r: r.counts == {l: c for l, c in stable_counts(a[0].parts).items() if c},
    "orientations": lambda L, a, r: r == unique_sink_count(a[0]),
}


# ------------------------------------------------------------------ CLI requests


def _render(L, as_json: bool, text: str, value) -> str:
    if as_json:
        return json.dumps(value, indent=2, sort_keys=True) + "\n"
    return text + "\n"


def _read_output(L, stdout: str, as_json: bool, basis: str, sym: bool):
    """Rebuild the printed expression; text output must also be canonical."""
    if as_json:
        terms = {
            (L.IntegerPartition(r["parts"]) if sym else L.SetPartition(r["blocks"])): Fraction(
                r["numerator"], r["denominator"]
            )
            for r in json.loads(stdout)
        }
    else:
        terms = (L.parse_sym if sym else L.parse_ncsym)(stdout).terms
    result = (L.SymExpr if sym else L.NCSymExpr)(basis, terms)
    if sym:
        rendered = _render(L, as_json, L.format_sym(result), L.parsing.sym_json(result))
    else:
        rendered = _render(L, as_json, L.format_ncsym(result), L.parsing.ncsym_json(result))
    return result, rendered == stdout


def _check_q_convert(L, argv, as_json, stdout):
    sym = "--sym" in argv
    target = argv[argv.index("--to") + 1]
    expr = (L.parse_sym if sym else L.parse_ncsym)(argv[1])
    result, canonical_text = _read_output(L, stdout, as_json, target, sym)
    check = _check_sym_convert if sym else _check_nc_convert
    return canonical_text and check(L, expr, target, result)


def _check_q_product(L, argv, as_json, stdout):
    sym = "--sym" in argv
    parse = L.parse_sym if sym else L.parse_ncsym
    a, b = parse(argv[1]), parse(argv[2])
    result, canonical_text = _read_output(L, stdout, as_json, a.basis, sym)
    if sym:
        expected = _p_product_sym(L, L.convert_sym(a, "p"), L.convert_sym(b, "p"))
        return canonical_text and L.convert_sym(result, "p") == expected
    expected = _p_product(L, L.convert(a, "p"), L.convert(b, "p"))
    return canonical_text and L.convert(result, "p") == expected


def _check_q_coproduct(L, argv, as_json, stdout):
    t = coproduct_independent(L, L.parse_ncsym(argv[1]))
    return stdout == _render(L, as_json, L.format_nctensor(t), L.parsing.nctensor_json(t))


def _check_q_split(L, argv, as_json, stdout):
    text = argv[2] if argv[0] == "species" else argv[1]
    expr = L.parse_ncsym(text)
    ground = {pi.ground for pi in expr.terms}.pop()
    split = argv[argv.index("--split") + 1]
    s1 = frozenset(int(x) for x in split.split(","))
    v = L.SpeciesElement(ground, expr.basis, expr.terms)
    t = delta_via_p(L, v, s1, ground - s1)
    return stdout == _render(L, as_json, L.format_species_tensor(t), L.parsing.species_tensor_json(t))


def _check_q_species_mu(L, argv, as_json, stdout):
    a, b = L.parse_species(argv[2]), L.parse_species(argv[3])
    pa = species_convert(L, a.basis, a.ground, a.terms, "p")
    pb = species_convert(L, b.basis, b.ground, b.terms, "p")
    ground = a.ground | b.ground
    prod_p = {}
    for k1, c1 in pa.items():
        for k2, c2 in pb.items():
            key = L.SetPartition(k1.blocks + k2.blocks)
            prod_p[key] = prod_p.get(key, 0) + c1 * c2
    v = L.SpeciesElement(ground, a.basis, species_convert(L, "p", ground, prod_p, a.basis))
    return stdout == _render(L, as_json, L.format_species(v), L.parsing.species_json(v))


def _check_q_mobius(L, argv, as_json, stdout):
    value = brute_mobius(L, L.SetPartition.parse(argv[1]), L.SetPartition.parse(argv[2]))
    return stdout == _render(L, as_json, str(value), {"value": value})


def _check_q_graph(L, argv, as_json, stdout):
    sigma = L.SetPartition.parse(argv[1])
    if "--stable" in argv:
        listed = json.loads(stdout) if as_json else stdout.split()
        parts = [L.SetPartition.parse(s) for s in listed]
        expected = sum(stable_counts(sigma).values())
        return (
            len(parts) == expected
            and len(set(parts)) == expected
            and all(L.is_refinement(p, sigma) for p in parts)
        )
    if "--orientations" in argv:
        sink = int(argv[argv.index("--orientations") + 1])
        method = argv[argv.index("--method") + 1] if "--method" in argv else "chromatic"
        count = unique_sink_count(sigma)
        return stdout == _render(L, as_json, str(count), {"sink": sink, "method": method, "count": count})
    chi = L.ChromaticPolynomial(stable_counts(sigma))
    return stdout == _render(
        L, as_json, str(chi), {"coefficients": chi.coefficients(), "stable_counts": chi.counts}
    )


CLI_CHECKS = {
    "q_convert": _check_q_convert,
    "q_convert_sym": _check_q_convert,
    "q_product": _check_q_product,
    "q_product_sym": _check_q_product,
    "q_coproduct": _check_q_coproduct,
    "q_split": _check_q_split,
    "q_species_mu": _check_q_species_mu,
    "q_mobius": _check_q_mobius,
    "q_graph": _check_q_graph,
}


def verify(L, op, result) -> bool:
    """True when the result is right by an independent route."""
    if op.target == "cli.main":
        code, stdout = result
        argv = op.args[0]
        if op.kind == "malformed":
            return code == 2 and stdout == ""
        return code == 0 and CLI_CHECKS[op.kind](L, argv, "--json" in argv, stdout)
    return bool(LIBRARY_CHECKS[op.kind](L, op.args, result))
