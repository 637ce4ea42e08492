"""Named verification suites over the library's structural laws.

``PROPERTIES`` is one ordered table: each property is a generator that takes
the degree bound and the suite run and yields one description per failure,
registered with its suite, its name, its detail and an optional degree cap.
One runner lowers the degree bound to each cap and builds every result row:
``N failure(s), first: ...`` on failure, else the detail, a template in
``{n}`` (the bound the property ran at) and ``{k}`` (the oracle's variable
count) or a function of the ``run.observed`` value the property set.  A
suite run holds one ``random.Random(seed)``, consumed by its properties in
table order; the oracle's run also shares its monomial expansions.

To add a property, register a generator in its suite's section::

    @_property("lattice", "what it asserts", detail="n <= {n}", cap=5)
    def _name(max_n, run):
        yield "description of one failure"
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, gcd, lcm, prod
from types import SimpleNamespace

from . import graphs, monomials, species
from .expressions import (
    NCSymExpr,
    convert,
    coproduct,
    omega,
    permute,
    product,
    rho,
    tensor_convert,
    tensor_product,
    x_coproduct_coefficient,
    x_e_expansion_coefficient,
    x_to_m_top,
    x_top_coproduct_coefficient,
)
from .lattice import (
    coarsenings,
    interval,
    is_refinement,
    join,
    meet,
    mobius,
    mobius_to_top,
    refinements,
    set_partitions,
)
from .partitions import (
    Permutation,
    SetPartition,
    apply_permutation,
    integer_partitions,
    lambda_factorial,
    lambda_superfactorial,
    slash,
)
from .sym import omega_sym

CheckResult = namedtuple("CheckResult", ["name", "passed", "detail"])

Property = namedtuple("Property", ["suite", "name", "check", "detail", "cap"])

PROPERTIES = []

DEFAULT_SEED = 20060413

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]

_BASES = ("m", "p", "e", "x")


def _property(suite: str, name: str, detail="", cap=None):
    """Append the decorated generator to ``PROPERTIES``."""

    def register(check):
        PROPERTIES.append(Property(suite, name, check, detail, cap))
        return check

    return register


@lru_cache(maxsize=None)
def _parts(n: int) -> tuple:
    return tuple(set_partitions(range(1, n + 1)))


def _keys(max_n: int, start: int = 0):
    """Every standard key of degree start..max_n."""
    for n in range(start, max_n + 1):
        yield from _parts(n)


def _key_pairs(max_total: int):
    """Every ordered pair of standard keys of total degree at most max_total."""
    for total in range(max_total + 1):
        for i in range(total + 1):
            for pi in _parts(i):
                for sigma in _parts(total - i):
                    yield pi, sigma


def _top(n: int) -> SetPartition:
    return SetPartition.whole(range(1, n + 1))


def _elt(basis: str, pi: SetPartition) -> NCSymExpr:
    return NCSymExpr.element(basis, pi)


def _sp(text: str) -> SetPartition:
    return SetPartition.parse(text)


def _species_elt(basis: str, pi: SetPartition) -> species.SpeciesElement:
    return species.SpeciesElement.element(basis, pi)


def _subsets(elems):
    for r in range(len(elems) + 1):
        yield from itertools.combinations(elems, r)


def bell_triangle(upto: int) -> list:
    """Bell numbers 0..upto by the triangle recurrence (independent of RGS code)."""
    rows = [[1]]
    for _ in range(upto):
        prev = rows[-1]
        row = [prev[-1]]
        for v in prev:
            row.append(row[-1] + v)
        rows.append(row)
    return [r[0] for r in rows]


# ---------------------------------------------------------------- mobius

@_property("mobius", "mobius closed form satisfies the defining recursion",
           detail="all intervals up to n={n}")
def _mobius_recursion(max_n, run):
    for upper in _keys(max_n):
        for lower in refinements(upper):
            total = sum(mobius(mid, upper) for mid in interval(lower, upper))
            if total != (1 if lower == upper else 0):
                yield f"sum over [{lower}, {upper}] = {total}"


@_property("mobius", "mobius factorizes over the blocks of the coarser partition", cap=5)
def _mobius_factorizes(max_n, run):
    for upper in _keys(max_n, 1):
        for lower in refinements(upper):
            blocks = (lower.restrict(blk).standardize() for blk in upper.blocks)
            if prod(mobius_to_top(b) for b in blocks) != mobius(lower, upper):
                yield f"mu({lower},{upper})"


@_property("mobius", "mobius worked values")
def _mobius_worked_values(max_n, run):
    got = (
        mobius(_sp("1/3/24"), _sp("13/24")),
        mobius(_sp("1/3/24"), _sp("1234")),
        mobius_to_top(_sp("1/3/24")),
        mobius_to_top(_sp("1/2/3/4")),
    )
    if got != (-1, 2, 2, -6):
        yield f"{got} != (-1, 2, 2, -6)"


# ---------------------------------------------------------------- lattice

@_property("lattice", "enumeration counts match the Bell triangle",
           detail=lambda counts: f"counts {counts}", cap=8)
def _bell_counts(max_n, run):
    upto = max(max_n, 0)
    run.observed = [len(_parts(n)) for n in range(upto + 1)]
    if run.observed != bell_triangle(upto) or run.observed != BELL[: upto + 1]:
        yield f"counts {run.observed}"


@_property("lattice", "meet and join satisfy the lattice laws", cap=5)
def _lattice_laws(max_n, run):
    for n in range(2, max_n + 1):
        parts = _parts(n)
        index = {p: i for i, p in enumerate(parts)}
        meets = [[index[meet(a, b)] for b in parts] for a in parts]
        joins = [[index[join(a, b)] for b in parts] for a in parts]
        for i, j in itertools.product(range(len(parts)), repeat=2):
            if meets[i][j] != meets[j][i] or joins[i][j] != joins[j][i]:
                yield f"commutativity at n={n}"
            if meets[i][joins[i][j]] != i or joins[i][meets[i][j]] != i:
                yield f"absorption at n={n}"
            for k in range(len(parts)):
                if meets[meets[i][j]][k] != meets[i][meets[j][k]]:
                    yield f"meet associativity at n={n}"
                if joins[joins[i][j]][k] != joins[i][joins[j][k]]:
                    yield f"join associativity at n={n}"


@_property("lattice", "top, bottom, and idempotence identities", cap=5)
def _lattice_identities(max_n, run):
    for n in range(max_n + 1):
        top = _top(n)
        bottom = SetPartition.singletons(range(1, n + 1))
        for pi in _parts(n):
            if meet(pi, top) != pi or join(pi, bottom) != pi:
                yield str(pi)
            if meet(pi, pi) != pi or join(pi, pi) != pi:
                yield str(pi)


@_property("lattice", "refinement and coarsening streams match the brute-force predicate",
           cap=4)
def _lattice_streams(max_n, run):
    for n in range(max_n + 1):
        for pi in _parts(n):
            if set(refinements(pi)) != {s for s in _parts(n) if is_refinement(s, pi)}:
                yield f"refinements({pi})"
            if set(coarsenings(pi)) != {s for s in _parts(n) if is_refinement(pi, s)}:
                yield f"coarsenings({pi})"


# ---------------------------------------------------------------- bases

@_property("bases", "basis round-trips are exact",
           detail="all 16 routes, all elements up to n={n}")
def _basis_round_trips(max_n, run):
    for pi in _keys(max_n):
        for b1 in _BASES:
            start = _elt(b1, pi)
            for b2 in _BASES:
                if convert(convert(start, b2), b1) != start:
                    yield f"{b1}->{b2}->{b1} at {pi}"


@_property("bases", "worked conversion values")
def _worked_conversions(max_n, run):
    x132 = _elt("x", _sp("13/2"))
    if convert(x132, "p") != NCSymExpr("p", {_sp("13/2"): 1, _sp("1/2/3"): -1}):
        yield "x{13/2} in p"
    if convert(x132, "m") != NCSymExpr(
        "m", {_sp("1/2/3"): -1, _sp("12/3"): -1, _sp("1/23"): -1}
    ):
        yield "x{13/2} in m"
    if convert(_elt("x", _sp("12")), "e") != NCSymExpr("e", {_sp("12"): -1}):
        yield "x{12} in e"


@_property("bases", "one-block extra element has the signed factorial power sum expansion")
def _x_top_in_p(max_n, run):
    for n in range(1, max_n + 1):
        xp = convert(_elt("x", _top(n)), "p")
        for sigma in _parts(n):
            l = len(sigma.blocks)
            if xp.coefficient(sigma) != Fraction((-1) ** (l - 1) * factorial(l - 1)):
                yield f"n={n}, {sigma}"


# ---------------------------------------------------------------- hopf axioms

_SPECIES_BASES = ("m", "p", "x")


@_property("hopf-axioms", "product naturality under relabeling", cap=5)
def _product_naturality(max_n, run):
    rng = run.rng
    for n in range(max_n + 1):
        ground = list(range(1, n + 1))
        for _ in range(8):
            f = dict(zip(ground, rng.sample(range(1, 60), n)))
            s1 = set(rng.sample(ground, rng.randrange(n + 1)))
            s2 = [x for x in ground if x not in s1]
            a_key = rng.choice(list(set_partitions(s1)))
            b_key = rng.choice(list(set_partitions(s2)))
            for basis in _SPECIES_BASES:
                a = _species_elt(basis, a_key)
                b = _species_elt(basis, b_key)
                lhs = species.relabel(f, species.species_mu(a, b))
                rhs = species.species_mu(
                    species.relabel({x: f[x] for x in s1}, a),
                    species.relabel({x: f[x] for x in s2}, b),
                )
                if lhs != rhs:
                    yield f"basis {basis}, n={n}"


@_property("hopf-axioms", "product associativity over ordered decompositions", cap=5)
def _product_associativity(max_n, run):
    for n in range(max_n + 1):
        ground = list(range(1, n + 1))
        for s1 in _subsets(ground):
            rest1 = [x for x in ground if x not in set(s1)]
            for s2 in _subsets(rest1):
                s3 = [x for x in rest1 if x not in set(s2)]
                keys = [list(set_partitions(s)) for s in (s1, s2, s3)]
                for basis in _SPECIES_BASES:
                    for a_key, b_key, c_key in itertools.product(*keys):
                        a, b, c = (_species_elt(basis, key) for key in (a_key, b_key, c_key))
                        lhs = species.species_mu(species.species_mu(a, b), c)
                        if lhs != species.species_mu(a, species.species_mu(b, c)):
                            yield f"basis {basis}: ({a_key})({b_key})({c_key})"


@_property("hopf-axioms", "unit laws", cap=5)
def _unit_laws(max_n, run):
    for n in range(max_n + 1):
        for basis in _SPECIES_BASES:
            unit = species.SpeciesElement.unit(basis)
            for pi in _parts(n):
                v = _species_elt(basis, pi)
                if species.species_mu(unit, v) != v or species.species_mu(v, unit) != v:
                    yield f"basis {basis}, {pi}"


@_property("hopf-axioms", "product and coproduct compatibility diagram", cap=4)
def _compatibility_diagram(max_n, run):
    legs = {}  # (basis, left key, right key) -> terms of their product

    def leg_product(basis, x, y):
        if (basis, x, y) not in legs:
            xy = species.species_mu(_species_elt(basis, x), _species_elt(basis, y))
            legs[basis, x, y] = xy.terms
        return legs[basis, x, y]

    deltas = {}  # (basis, key, left part) -> terms of its species coproduct

    def leg_delta(basis, key, elt, left, right):
        if (basis, key, left) not in deltas:
            deltas[basis, key, left] = species.species_delta(elt, left, right).terms
        return deltas[basis, key, left]

    for n in range(max_n + 1):
        ground = list(range(1, n + 1))
        gset = frozenset(ground)
        splits = list(map(frozenset, _subsets(ground)))
        for s1 in splits:
            s2 = gset - s1
            failures = {t1: [] for t1 in splits}  # reported in (s1, t1) order
            for basis in ("m", "p"):
                for a_key in set_partitions(s1):
                    for b_key in set_partitions(s2):
                        a = _species_elt(basis, a_key)
                        b = _species_elt(basis, b_key)
                        ab = species.species_mu(a, b)
                        for t1 in splits:
                            t2 = gset - t1
                            path1 = species.species_delta(ab, t1, t2)
                            acc = {}
                            da = leg_delta(basis, a_key, a, s1 & t1, s1 & t2)
                            db = leg_delta(basis, b_key, b, s2 & t1, s2 & t2)
                            for ((ai, aj), ca), ((bk, bl), cb) in itertools.product(
                                da.items(), db.items()
                            ):
                                left = leg_product(basis, ai, bk)
                                right = leg_product(basis, aj, bl)
                                for kl, cl in left.items():
                                    for kr, cr in right.items():
                                        acc[kl, kr] = acc.get((kl, kr), 0) + ca * cb * cl * cr
                            if {k: v for k, v in acc.items() if v} != path1.terms:
                                failures[t1].append(
                                    f"basis {basis}, ({sorted(s1)},{sorted(t1)}),"
                                    f" a={a_key}, b={b_key}"
                                )
            for found in failures.values():
                yield from found


@_property("hopf-axioms", "coassociativity of the graded coproduct")
def _coassociativity(max_n, run):
    for basis in ("p", "x"):
        for pi in _keys(max_n):
            lhs, rhs = {}, {}
            for (a, b), c in coproduct(_elt(basis, pi)).terms.items():
                for (a1, a2), d in coproduct(_elt(basis, a)).terms.items():
                    lhs[a1, a2, b] = lhs.get((a1, a2, b), 0) + c * d
                for (b1, b2), d in coproduct(_elt(basis, b)).terms.items():
                    rhs[a, b1, b2] = rhs.get((a, b1, b2), 0) + c * d
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                yield f"basis {basis}, {pi}"


@_property("hopf-axioms", "coproduct is an algebra morphism",
           detail="all four bases, total degree <= {n}")
def _coproduct_morphism(max_n, run):
    for basis in _BASES:
        for pi, sigma in _key_pairs(max_n):
            a = _elt(basis, pi)
            b = _elt(basis, sigma)
            if coproduct(product(a, b)) != tensor_product(coproduct(a), coproduct(b)):
                yield f"basis {basis}, {pi} * {sigma}"


# ---------------------------------------------------------------- coproduct-x

@_property("coproduct-x", "closed-form x coproduct equals the power sum route",
           detail="all keys up to n={n}")
def _x_coproduct_routes(max_n, run):
    for pi in _keys(max_n):
        # the independent route converts to p, splits there and converts back
        via_p = tensor_convert(coproduct(convert(_elt("x", pi), "p")), "x")
        if coproduct(_elt("x", pi)) != via_p:
            yield str(pi)


@_property("coproduct-x", "splitting coefficients match the brute-force expansion",
           detail="every tensor pair up to n={n}")
def _x_top_splitting(max_n, run):
    for n in range(max_n + 1):
        brute = coproduct(_elt("x", _top(n)))
        for a in range(n + 1):
            for sigma, tau in itertools.product(_parts(a), _parts(n - a)):
                expected = brute.coefficient(sigma, tau)
                if x_top_coproduct_coefficient(n, sigma, tau) != expected:
                    yield f"n={n}, ({sigma}, {tau})"
                if x_coproduct_coefficient(_top(n), sigma, tau) != expected:
                    yield f"general route, n={n}, ({sigma}, {tau})"


@_property("coproduct-x",
           "per-coefficient closed form agrees for every key, not just one block", cap=4)
def _x_splitting_every_key(max_n, run):
    for pi in _keys(max_n):
        brute = coproduct(_elt("x", pi))
        for a in range(pi.size + 1):
            for sigma, tau in itertools.product(_parts(a), _parts(pi.size - a)):
                if x_coproduct_coefficient(pi, sigma, tau) != brute.coefficient(sigma, tau):
                    yield f"{pi}: ({sigma}, {tau})"


@_property("coproduct-x", "species x coproduct equals the Möbius expansion route", cap=4)
def _species_x_coproduct(max_n, run):
    for n in range(max_n + 1):
        ground = list(range(1, n + 1))
        for chosen in _subsets(ground):
            s1 = frozenset(chosen)
            s2 = frozenset(ground) - s1
            for pi in _parts(n):
                direct = species.species_delta(_species_elt("x", pi), s1, s2)
                acc = {}
                for d in refinements(pi):
                    w = mobius(d, pi)
                    if not all(set(blk) <= s1 or not (set(blk) & s1) for blk in d.blocks):
                        continue
                    for key in itertools.product(
                        refinements(d.restrict(s1)), refinements(d.restrict(s2))
                    ):
                        acc[key] = acc.get(key, 0) + w
                if {k: Fraction(v) for k, v in acc.items() if v} != direct.terms:
                    yield f"{pi} at split {sorted(s1)}"


# ---------------------------------------------------------------- x-to-m

@_property("x-to-m", "orientation-count route equals the Möbius inversion route",
           detail="n <= {n}")
def _x_to_m_routes(max_n, run):
    for n in range(1, max_n + 1):
        if x_to_m_top(n) != convert(_elt("x", _top(n)), "m"):
            yield f"n={n}"


@_property("x-to-m", "unique-sink counts are sink-independent and agree across backends",
           detail="n <= {n}", cap=min(graphs.ENUMERATION_VERTEX_CAP - 1, 6))
def _unique_sink_counts(max_n, run):
    for sigma in _keys(max_n, 1):
        counts = {
            v: graphs.count_acyclic_unique_sink_by_enumeration(sigma, v)
            for v in range(1, sigma.size + 1)
        }
        if len(set(counts.values())) != 1:
            yield f"{sigma}: {counts}"
        if counts[1] != graphs.count_acyclic_unique_sink(sigma, 1):
            yield f"backend mismatch at {sigma}"


@_property("x-to-m", "stable partitions are exactly the refinements", cap=6)
def _stable_partitions(max_n, run):
    for n in range(max_n + 1):
        owners = {
            tau: {x: i for i, blk in enumerate(tau.blocks) for x in blk}
            for tau in _parts(n)
        }
        for sigma in _parts(n):
            graph = graphs.MultipartiteGraph(sigma)
            edges = graph.edges()
            brute = {
                tau
                for tau in _parts(n)
                if all(owners[tau][i] != owners[tau][j] for i, j in edges)
            }
            if set(graphs.stable_partitions(graph)) != brute:
                yield str(sigma)


@_property("x-to-m", "chromatic polynomial values match brute-force coloring counts", cap=5)
def _chromatic_values(max_n, run):
    for sigma in _keys(max_n):
        graph = graphs.MultipartiteGraph(sigma)
        chi = graphs.chromatic_polynomial(graph)
        for k in range(1, 5):
            if chi.evaluate(k) != graphs.count_proper_colorings(graph, k):
                yield f"{sigma} at k={k}"


# ---------------------------------------------------------------- omega

@_property("omega", "omega is an involution")
def _omega_involution(max_n, run):
    for basis in _BASES:
        for pi in _keys(max_n):
            e = _elt(basis, pi)
            if omega(omega(e)) != e:
                yield f"basis {basis}, {pi}"


@_property("omega", "omega is an algebra morphism")
def _omega_morphism(max_n, run):
    for pi, sigma in _key_pairs(max_n):
        a, b = _elt("p", pi), _elt("p", sigma)
        if omega(product(a, b)) != product(omega(a), omega(b)):
            yield f"{pi} * {sigma}"


@_property("omega", "omega of the one-block extra element has the factorial expansion")
def _omega_x_top(max_n, run):
    for n in range(1, max_n + 1):
        w = convert(omega(_elt("x", _top(n))), "p")
        for sigma in _parts(n):
            expected = Fraction((-1) ** (n - 1) * factorial(len(sigma.blocks) - 1))
            if w.coefficient(sigma) != expected:
                yield f"n={n}, {sigma}"


@_property("omega", "omega of every extra element is power sum positive or negative",
           detail=lambda signs: f"observed one-block signs by degree: {' '.join(signs)}")
def _omega_sign(max_n, run):
    run.observed = []
    for n in range(1, max_n + 1):
        for pi in _parts(n):
            values = list(convert(omega(_elt("x", pi)), "p").terms.values())
            if not values or not (all(v > 0 for v in values) or all(v < 0 for v in values)):
                yield str(pi)
        sample = convert(omega(_elt("x", _top(n))), "p")
        run.observed.append("+" if next(iter(sample.terms.values())) > 0 else "-")


@_property("omega", "omega commutes with the permutation action", cap=4)
def _omega_permute(max_n, run):
    for n in range(1, max_n + 1):
        etas = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        chosen = run.rng.sample(etas, min(4, len(etas)))
        for pi in _parts(n):
            for basis in ("p", "x"):
                e = _elt(basis, pi)
                for eta in chosen:
                    if permute(eta, omega(e)) != omega(permute(eta, e)):
                        yield f"{basis}, {pi}, {eta}"


@_property("omega", "omega commutes with the commutative projection")
def _omega_rho(max_n, run):
    for pi in _keys(max_n):
        e = _elt("p", pi)
        if rho(omega(e)) != omega_sym(rho(e)):
            yield str(pi)


# ---------------------------------------------------------------- fock

# the algebra product and coproduct use the species rules, so each
# reference is taken in another basis and converted back
_FOCK_ROUTES = (("m", "p"), ("p", "x"), ("x", "p"))


@_property("fock", "graded species product matches the algebra product")
def _fock_product(max_n, run):
    for basis, other in _FOCK_ROUTES:
        for pi, sigma in _key_pairs(max_n):
            got = species.fock_product(_species_elt(basis, pi), _species_elt(basis, sigma))
            a, b = convert(_elt(basis, pi), other), convert(_elt(basis, sigma), other)
            if dict(got.terms) != convert(product(a, b), basis).terms:
                yield f"basis {basis}: {pi} * {sigma}"


@_property("fock", "graded species coproduct matches the algebra coproduct")
def _fock_coproduct(max_n, run):
    for basis, other in _FOCK_ROUTES:
        for pi in _keys(max_n):
            got = species.fock_coproduct(_species_elt(basis, pi))
            if got != tensor_convert(coproduct(convert(_elt(basis, pi), other)), basis):
                yield f"basis {basis}: {pi}"


@_property("fock", "power sum and extra bases triangulate exactly over any ground set", cap=5)
def _fock_triangulation(max_n, run):
    for n in range(max_n + 1):
        grounds = [range(1, n + 1)]
        if n:
            grounds.append(sorted(run.rng.sample(range(1, 40), n)))
        for ground in grounds:
            for a_key in set_partitions(ground):
                # p = sum of x over refinements, then x = Möbius sum of p
                acc = {}
                for b in refinements(a_key):
                    for c in refinements(b):
                        acc[c] = acc.get(c, 0) + mobius(c, b)
                if {k: v for k, v in acc.items() if v} != {a_key: 1}:
                    yield str(a_key)


@_property("fock", "relabeling is functorial")
def _relabeling_functorial(max_n, run):
    example = species.relabel({1: 1, 6: 3, 3: 2, 8: 4}, _species_elt("m", _sp("1,6/3,8")))
    if example != _species_elt("m", _sp("13/24")):
        yield "m{1,6/3,8} relabels to m{13/24}"
    rng = run.rng
    for _ in range(10):
        n = rng.randrange(0, 6)
        ground = sorted(rng.sample(range(1, 30), n))
        mid = rng.sample(range(31, 60), n)
        final = rng.sample(range(61, 90), n)
        f = dict(zip(ground, mid))
        g = dict(zip(mid, final))
        for pi in set_partitions(ground):
            v = _species_elt("p", pi)
            composed = species.relabel({x: g[f[x]] for x in ground}, v)
            if composed != species.relabel(g, species.relabel(f, v)):
                yield f"{pi} under {f} then {g}"


# ---------------------------------------------------------------- oracle

def _rank(polys) -> int:
    """Rank over the rationals of a family of polynomials on their joint support.

    Each row is scaled to integers by the lcm of its denominators, and the
    elimination stays in integers: a row below the pivot becomes
    pivot * row - entry * pivot row, divided by the gcd of its entries.
    """
    support = sorted({w for p in polys for w in p.terms})
    index = {w: i for i, w in enumerate(support)}
    rows = []
    for p in polys:
        den = lcm(*(c.denominator for c in p.terms.values()))
        row = [0] * len(support)
        for w, c in p.terms.items():
            row[index[w]] = c.numerator * (den // c.denominator)
        rows.append(row)
    rank = 0
    for col in range(len(support)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        pv = top[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                row = [pv * x - f * y for x, y in zip(rows[r], top)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


@_property("oracle", "every basis conversion matches the defining expansions",
           detail="n <= {n}, k = {k}")
def _oracle_conversions(max_n, run):
    # with D the lcm of the denominators of the converted coefficients, the
    # integer sum of D * coefficient * expansion, less D * the source, must
    # vanish word by word
    for pi in _keys(max_n):
        for b1, b2 in itertools.product(_BASES, repeat=2):
            if b1 == b2:
                continue
            image = convert(_elt(b1, pi), b2).terms
            den = lcm(*(c.denominator for c in image.values()))
            acc = {w: -den * v for w, v in run.expansion(b1, pi).terms.items()}
            for sigma, c in image.items():
                scaled = c.numerator * (den // c.denominator)
                for w, v in run.expansion(b2, sigma).terms.items():
                    acc[w] = acc.get(w, 0) + scaled * v
            if any(acc.values()):
                yield f"{b1}->{b2} at {pi}"


@_property("oracle", "commutative projection carries the three scalar factors")
def _oracle_commute(max_n, run):
    for pi in _keys(max_n):
        lam = pi.shape()
        scalars = {"m": lambda_superfactorial(lam), "p": 1, "e": lambda_factorial(lam)}
        for b, scalar in scalars.items():
            lhs = monomials.commute(run.expansion(b, pi))
            if lhs != scalar * monomials.expand_c(b, lam, run.k):
                yield f"{b} at {pi}"


@_property("oracle", "position action matches the relabeled expansions")
def _oracle_positions(max_n, run):
    for n in range(max_n + 1):
        for eta_tuple in itertools.permutations(range(1, n + 1)):
            eta = Permutation(eta_tuple)
            for pi in _parts(n):
                for b in _BASES:
                    lhs = monomials.position_permute(run.expansion(b, pi), eta)
                    if lhs != run.expansion(b, apply_permutation(eta, pi)):
                        yield f"{b}, {pi}, {eta_tuple}"


@_property("oracle", "symmetrizing then commuting is the identity")
def _oracle_symmetrize(max_n, run):
    k, rng = run.k, run.rng
    for n in range(max_n + 1):
        for lam in integer_partitions(n):
            for b in ("m", "p", "e"):
                q = monomials.expand_c(b, lam, k)
                if monomials.commute(monomials.symmetrize_R(q, n)) != q:
                    yield f"{b} at {lam}"
        for _ in range(3):
            terms = {}
            for _ in range(4):
                exps = [0] * k
                for _ in range(n):
                    exps[rng.randrange(k)] += 1
                terms[tuple(exps)] = rng.randrange(-5, 6)
            q = monomials.CPolynomial(k, terms)
            if monomials.commute(monomials.symmetrize_R(q, n)) != q:
                yield f"random degree {n}"


@_property("oracle", "symmetrized power sums spread evenly over one shape")
def _oracle_lift(max_n, run):
    for n in range(max_n + 1):
        for lam in integer_partitions(n):
            lifted = monomials.symmetrize_R(monomials.expand_c("p", lam, run.k), n)
            scale = Fraction(lambda_factorial(lam) * lambda_superfactorial(lam), factorial(n))
            acc = {}
            for tau in _parts(n):
                if tau.shape() == lam:
                    for w, v in run.expansion("p", tau).terms.items():
                        acc[w] = acc.get(w, 0) + v
            if lifted != scale * monomials.NCPolynomial(run.k, acc):
                yield str(lam)


@_property("oracle", "power sum expansions multiply by concatenation")
def _oracle_concatenation(max_n, run):
    for pi, sigma in _key_pairs(max_n):
        lhs = run.expansion("p", pi) * run.expansion("p", sigma)
        if lhs != monomials.expand_nc("p", slash(pi, sigma), run.k):
            yield f"{pi} | {sigma}"


@_property("oracle", "expansions are consistent across truncation widths", cap=3)
def _oracle_widths(max_n, run):
    for pi in _keys(max_n):
        for b in _BASES:
            small = monomials.expand_nc(b, pi, run.k)
            big = monomials.expand_nc(b, pi, run.k + 1)
            restricted = {w: c for w, c in big.terms.items() if all(x <= run.k for x in w)}
            if restricted != small.terms:
                yield f"{b} at {pi}"


@_property("oracle", "degree-n truncations stay linearly independent when k >= n")
def _oracle_independence(max_n, run):
    for n in range(max_n + 1):
        for b in _BASES:
            family = [run.expansion(b, pi) for pi in _parts(n)]
            if _rank(family) != len(family):
                yield f"basis {b}, n={n}"


# ---------------------------------------------------------------- runner

SUITES = tuple(dict.fromkeys(prop.suite for prop in PROPERTIES))


def _run(suite: str, max_n: int, seed: int, k=None) -> list:
    """One result row per property of ``suite``, in table order."""
    run = SimpleNamespace(
        rng=random.Random(seed),
        k=k,
        expansion=lru_cache(maxsize=None)(partial(monomials.expand_nc, k=k)),
        observed=None,
    )
    results = []
    for prop in PROPERTIES:
        if prop.suite != suite:
            continue
        n = max_n if prop.cap is None else min(max_n, prop.cap)
        failures = list(prop.check(n, run))
        if failures:
            detail = f"{len(failures)} failure(s), first: {failures[0]}"
        elif callable(prop.detail):
            detail = prop.detail(run.observed)
        else:
            detail = prop.detail.format(n=n, k=k)
        results.append(CheckResult(prop.name, not failures, detail))
    return results


def run_oracle(max_n: int = 4, seed: int = DEFAULT_SEED, k: int = 4) -> list:
    """The oracle suite against expansions in k variables."""
    # certification requires k >= n for injective truncation, and the word
    # count k^n makes larger degrees pointless here anyway
    return _run("oracle", min(max_n, k), seed, k)


def run_suite(name: str, max_n: int = 5, seed: int = DEFAULT_SEED) -> list:
    """Run one named suite, or all of them in declaration order."""
    if name == "all":
        return [
            res._replace(name=f"{suite}: {res.name}")
            for suite in SUITES
            for res in run_suite(suite, max_n, seed)
        ]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if name == "oracle":
        return run_oracle(max_n, seed)
    return _run(name, max_n, seed)


# ---------------------------------------------------------------- conjecture

def _consecutive_blocks(sigma: SetPartition) -> SetPartition:
    """The representative of sigma's shape: sigma's sorted ground set cut
    into consecutive blocks of sigma's block sizes, largest first."""
    elems = iter(sorted(sigma.ground))
    return SetPartition(
        [next(elems) for _ in range(size)] for size in sigma.shape().parts
    )


def _interval_sum_by_shape(top: SetPartition, sigma: SetPartition, by_shape: dict):
    """The interval sum at sigma for x at the one-block partition ``top``.

    Relabelling the ground set fixes x at ``top``, so the coefficient
    depends only on the shape of sigma: it is evaluated once per shape, at
    the consecutive-block representative, and kept in ``by_shape``.
    """
    lam = sigma.shape()
    if lam not in by_shape:
        by_shape[lam] = x_e_expansion_coefficient(top, _consecutive_blocks(sigma))
    return by_shape[lam]


def conjecture_report(max_n: int = 7) -> list:
    """Sign data for the elementary expansion of the one-block extra elements.

    For each degree: the sign predicted by parity, the observed extrema of
    the nonzero coefficients, the count of vanishing coefficients, whether
    every nonzero coefficient matches the predicted sign, and whether the
    interval-sum formula agrees with the basis-change route coefficient by
    coefficient.  The basis change computes x -> e as a product of block
    weights over the signature walk of the refinements of the key; the
    interval sum walks the comparable pairs, once per shape of sigma, and
    every coefficient of the basis change is compared with it.  This is a
    report, not an assertion.
    """
    rows = []
    for n in range(1, max_n + 1):
        top = _top(n)
        via_convert = convert(_elt("x", top), "e")
        predicted = "+" if (n - 1) % 2 == 0 else "-"
        internal = True
        violations = []
        nonzero = []
        zeros = 0
        by_shape = {}
        for sigma in _parts(n):
            direct = _interval_sum_by_shape(top, sigma, by_shape)
            if direct != via_convert.coefficient(sigma):
                internal = False
            if direct == 0:
                zeros += 1
                continue
            nonzero.append(direct)
            if (direct > 0) != (predicted == "+"):
                violations.append(str(sigma))
        rows.append(
            {
                "n": n,
                "predicted_sign": predicted,
                "nonzero_terms": len(nonzero),
                "zero_terms": zeros,
                "min_coeff": str(min(nonzero)) if nonzero else None,
                "max_coeff": str(max(nonzero)) if nonzero else None,
                "internal_agreement": internal,
                "violations": violations,
                "consistent_with_prediction": not violations,
            }
        )
    return rows
