"""Named verification suites over the library's structural laws.

Each suite runs a family of exhaustive small-degree law checks and returns
one result per property.  The CLI ``check`` subcommand and the test suite
both drive these; results are deterministic, with randomized relabeling
checks seeded explicitly.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial

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

DEFAULT_SEED = 20060413

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


@lru_cache(maxsize=None)
def _parts(n: int) -> tuple:
    return tuple(set_partitions(range(1, n + 1)))


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


def _result(name: str, failures: list, detail: str = "") -> CheckResult:
    if failures:
        return CheckResult(name, False, f"{len(failures)} failure(s), first: {failures[0]}")
    return CheckResult(name, True, detail)


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

def run_mobius(max_n: int = 5, seed: int = DEFAULT_SEED) -> list:
    results = []

    failures = []
    for n in range(max_n + 1):
        for upper in _parts(n):
            for lower in refinements(upper):
                total = sum(mobius(mid, upper) for mid in interval(lower, upper))
                expected = 1 if lower == upper else 0
                if total != expected:
                    failures.append(f"sum over [{lower}, {upper}] = {total}")
    results.append(
        _result(
            "mobius closed form satisfies the defining recursion",
            failures,
            f"all intervals up to n={max_n}",
        )
    )

    failures = []
    for n in range(1, min(max_n, 5) + 1):
        for upper in _parts(n):
            for lower in refinements(upper):
                prod_val = 1
                for blk in upper.blocks:
                    prod_val *= mobius_to_top(lower.restrict(blk).standardize())
                if prod_val != mobius(lower, upper):
                    failures.append(f"mu({lower},{upper})")
    results.append(
        _result("mobius factorizes over the blocks of the coarser partition", failures)
    )

    ok = (
        mobius(_sp("1/3/24"), _sp("13/24")) == -1
        and mobius(_sp("1/3/24"), _sp("1234")) == 2
        and mobius_to_top(_sp("1/3/24")) == 2
        and mobius_to_top(_sp("1/2/3/4")) == -6
    )
    results.append(CheckResult("mobius worked values", ok, ""))
    return results


# ---------------------------------------------------------------- lattice

def run_lattice(max_n: int = 5, seed: int = DEFAULT_SEED) -> list:
    results = []

    upto = min(max(max_n, 0), 8)
    counts = [len(_parts(n)) for n in range(upto + 1)]
    triangle = bell_triangle(upto)
    results.append(
        CheckResult(
            "enumeration counts match the Bell triangle",
            counts == triangle and counts == BELL[: upto + 1],
            f"counts {counts}",
        )
    )

    failures = []
    for n in range(2, min(max_n, 5) + 1):
        parts = _parts(n)
        index = {p: i for i, p in enumerate(parts)}
        meets = [[index[meet(a, b)] for b in parts] for a in parts]
        joins = [[index[join(a, b)] for b in parts] for a in parts]
        size = len(parts)
        for i in range(size):
            for j in range(size):
                if meets[i][j] != meets[j][i] or joins[i][j] != joins[j][i]:
                    failures.append(f"commutativity at n={n}")
                if meets[i][joins[i][j]] != i or joins[i][meets[i][j]] != i:
                    failures.append(f"absorption at n={n}")
                for k in range(size):
                    if meets[meets[i][j]][k] != meets[i][meets[j][k]]:
                        failures.append(f"meet associativity at n={n}")
                    if joins[joins[i][j]][k] != joins[i][joins[j][k]]:
                        failures.append(f"join associativity at n={n}")
            if failures:
                break
        if failures:
            break
    results.append(_result("meet and join satisfy the lattice laws", failures))

    failures = []
    for n in range(min(max_n, 5) + 1):
        top = _top(n)
        bottom = SetPartition.singletons(range(1, n + 1))
        for pi in _parts(n):
            if meet(pi, top) != pi or join(pi, bottom) != pi:
                failures.append(str(pi))
            if meet(pi, pi) != pi or join(pi, pi) != pi:
                failures.append(str(pi))
    results.append(_result("top, bottom, and idempotence identities", failures))

    failures = []
    for n in range(min(max_n, 4) + 1):
        for pi in _parts(n):
            brute_ref = {s for s in _parts(n) if is_refinement(s, pi)}
            if set(refinements(pi)) != brute_ref:
                failures.append(f"refinements({pi})")
            brute_coars = {s for s in _parts(n) if is_refinement(pi, s)}
            if set(coarsenings(pi)) != brute_coars:
                failures.append(f"coarsenings({pi})")
    results.append(
        _result("refinement and coarsening streams match the brute-force predicate", failures)
    )
    return results


# ---------------------------------------------------------------- bases

def run_bases(max_n: int = 5, seed: int = DEFAULT_SEED) -> list:
    results = []
    bases = ("m", "p", "e", "x")

    failures = []
    for n in range(max_n + 1):
        for pi in _parts(n):
            for b1 in bases:
                start = _elt(b1, pi)
                for b2 in bases:
                    back = convert(convert(start, b2), b1)
                    if back != start:
                        failures.append(f"{b1}->{b2}->{b1} at {pi}")
    results.append(
        _result(
            "basis round-trips are exact",
            failures,
            f"all 16 routes, all elements up to n={max_n}",
        )
    )

    x132 = _elt("x", _sp("13/2"))
    ok = (
        convert(x132, "p")
        == NCSymExpr("p", {_sp("13/2"): 1, _sp("1/2/3"): -1})
        and convert(x132, "m")
        == NCSymExpr("m", {_sp("1/2/3"): -1, _sp("12/3"): -1, _sp("1/23"): -1})
        and convert(_elt("x", _sp("12")), "e") == NCSymExpr("e", {_sp("12"): -1})
    )
    results.append(CheckResult("worked conversion values", ok, ""))

    failures = []
    for n in range(1, max_n + 1):
        xp = convert(_elt("x", _top(n)), "p")
        for sigma in _parts(n):
            l = len(sigma.blocks)
            expected = Fraction((-1) ** (l - 1) * factorial(l - 1))
            if xp.coefficient(sigma) != expected:
                failures.append(f"n={n}, {sigma}")
    results.append(
        _result(
            "one-block extra element has the signed factorial power sum expansion",
            failures,
        )
    )
    return results


# ---------------------------------------------------------------- hopf axioms

def _species_elt(basis: str, pi: SetPartition) -> species.SpeciesElement:
    return species.SpeciesElement.element(basis, pi)


def _subsets(elems):
    for r in range(len(elems) + 1):
        yield from itertools.combinations(elems, r)


def run_hopf_axioms(max_n: int = 5, seed: int = DEFAULT_SEED) -> list:
    results = []
    rng = random.Random(seed)
    species_bases = ("m", "p", "x")

    failures = []
    for n in range(min(max_n, 5) + 1):
        ground = list(range(1, n + 1))
        for _ in range(8):
            codomain = rng.sample(range(1, 60), n)
            f = dict(zip(ground, codomain))
            r = rng.randrange(n + 1)
            s1 = set(rng.sample(ground, r))
            s2 = [x for x in ground if x not in s1]
            parts1 = list(set_partitions(s1))
            parts2 = list(set_partitions(s2))
            a_key = rng.choice(parts1)
            b_key = rng.choice(parts2)
            for basis in species_bases:
                a = _species_elt(basis, a_key)
                b = _species_elt(basis, b_key)
                lhs = species.relabel(f, species.species_mu(a, b))
                rhs = species.species_mu(
                    species.relabel({x: f[x] for x in s1}, a),
                    species.relabel({x: f[x] for x in s2}, b),
                )
                if lhs != rhs:
                    failures.append(f"basis {basis}, n={n}")
    results.append(_result("product naturality under relabeling", failures))

    failures = []
    for n in range(min(max_n, 5) + 1):
        ground = list(range(1, n + 1))
        for s1 in _subsets(ground):
            rest1 = [x for x in ground if x not in set(s1)]
            for s2 in _subsets(rest1):
                s3 = [x for x in rest1 if x not in set(s2)]
                for basis in species_bases:
                    for a_key in set_partitions(s1):
                        for b_key in set_partitions(s2):
                            for c_key in set_partitions(s3):
                                a = _species_elt(basis, a_key)
                                b = _species_elt(basis, b_key)
                                c = _species_elt(basis, c_key)
                                lhs = species.species_mu(species.species_mu(a, b), c)
                                rhs = species.species_mu(a, species.species_mu(b, c))
                                if lhs != rhs:
                                    failures.append(
                                        f"basis {basis}: ({a_key})({b_key})({c_key})"
                                    )
    results.append(_result("product associativity over ordered decompositions", failures))

    failures = []
    for n in range(min(max_n, 5) + 1):
        for basis in species_bases:
            unit = species.SpeciesElement.unit(basis)
            for pi in _parts(n):
                v = _species_elt(basis, pi)
                if species.species_mu(unit, v) != v or species.species_mu(v, unit) != v:
                    failures.append(f"basis {basis}, {pi}")
    results.append(_result("unit laws", failures))

    failures = []
    for n in range(min(max_n, 4) + 1):
        ground = list(range(1, n + 1))
        gset = frozenset(ground)
        for s1 in _subsets(ground):
            s1 = frozenset(s1)
            s2 = gset - s1
            for t1 in _subsets(ground):
                t1 = frozenset(t1)
                t2 = gset - t1
                i_set, j_set = s1 & t1, s1 & t2
                k_set, l_set = s2 & t1, s2 & t2
                for basis in ("m", "p"):
                    for a_key in set_partitions(s1):
                        for b_key in set_partitions(s2):
                            a = _species_elt(basis, a_key)
                            b = _species_elt(basis, b_key)
                            path1 = species.species_delta(
                                species.species_mu(a, b), t1, t2
                            ).terms
                            acc = {}
                            da = species.species_delta(a, i_set, j_set).terms
                            db = species.species_delta(b, k_set, l_set).terms
                            for (ai, aj), ca in da.items():
                                for (bk, bl), cb in db.items():
                                    left = species.species_mu(
                                        _species_elt(basis, ai), _species_elt(basis, bk)
                                    )
                                    right = species.species_mu(
                                        _species_elt(basis, aj), _species_elt(basis, bl)
                                    )
                                    for kl, cl in left.terms.items():
                                        for kr, cr in right.terms.items():
                                            key = (kl, kr)
                                            acc[key] = acc.get(key, 0) + ca * cb * cl * cr
                            acc = {k: v for k, v in acc.items() if v}
                            if acc != path1:
                                failures.append(
                                    f"basis {basis}, ({sorted(s1)},{sorted(t1)}), a={a_key}, b={b_key}"
                                )
    results.append(_result("product and coproduct compatibility diagram", failures))

    failures = []
    for basis in ("p", "x"):
        for n in range(max_n + 1):
            for pi in _parts(n):
                t = coproduct(_elt(basis, pi))
                lhs, rhs = {}, {}
                for (a, b), c in t.terms.items():
                    for (a1, a2), d in coproduct(_elt(basis, a)).terms.items():
                        key = (a1, a2, b)
                        lhs[key] = lhs.get(key, 0) + c * d
                    for (b1, b2), d in coproduct(_elt(basis, b)).terms.items():
                        key = (a, b1, b2)
                        rhs[key] = rhs.get(key, 0) + c * d
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {k: v for k, v in rhs.items() if v}
                if lhs != rhs:
                    failures.append(f"basis {basis}, {pi}")
    results.append(_result("coassociativity of the graded coproduct", failures))

    failures = []
    for basis in ("m", "p", "e", "x"):
        for pi, sigma in _key_pairs(max_n):
            a = _elt(basis, pi)
            b = _elt(basis, sigma)
            if coproduct(product(a, b)) != tensor_product(coproduct(a), coproduct(b)):
                failures.append(f"basis {basis}, {pi} * {sigma}")
    results.append(
        _result(
            "coproduct is an algebra morphism",
            failures,
            f"all four bases, total degree <= {max_n}",
        )
    )
    return results


# ---------------------------------------------------------------- coproduct-x

def _x_coproduct_via_p(pi: SetPartition):
    """Independent route: convert to p, split there, convert the legs back."""
    return tensor_convert(coproduct(convert(_elt("x", pi), "p")), "x")


def run_coproduct_x(max_n: int = 5, seed: int = DEFAULT_SEED) -> list:
    results = []

    failures = []
    for n in range(max_n + 1):
        for pi in _parts(n):
            if coproduct(_elt("x", pi)) != _x_coproduct_via_p(pi):
                failures.append(str(pi))
    results.append(
        _result(
            "closed-form x coproduct equals the power sum route",
            failures,
            f"all keys up to n={max_n}",
        )
    )

    failures = []
    for n in range(max_n + 1):
        brute = coproduct(_elt("x", _top(n)))
        for a in range(n + 1):
            for sigma in _parts(a):
                for tau in _parts(n - a):
                    expected = brute.coefficient(sigma, tau)
                    if x_top_coproduct_coefficient(n, sigma, tau) != expected:
                        failures.append(f"n={n}, ({sigma}, {tau})")
                    if x_coproduct_coefficient(_top(n), sigma, tau) != expected:
                        failures.append(f"general route, n={n}, ({sigma}, {tau})")
    results.append(
        _result(
            "splitting coefficients match the brute-force expansion",
            failures,
            f"every tensor pair up to n={max_n}",
        )
    )

    failures = []
    for n in range(min(max_n, 4) + 1):
        for pi in _parts(n):
            brute = coproduct(_elt("x", pi))
            for a in range(n + 1):
                for sigma in _parts(a):
                    for tau in _parts(n - a):
                        if x_coproduct_coefficient(pi, sigma, tau) != brute.coefficient(
                            sigma, tau
                        ):
                            failures.append(f"{pi}: ({sigma}, {tau})")
    results.append(
        _result("per-coefficient closed form agrees for every key, not just one block", failures)
    )

    failures = []
    for n in range(min(max_n, 4) + 1):
        ground = list(range(1, n + 1))
        for chosen in _subsets(ground):
            s1 = frozenset(chosen)
            s2 = frozenset(ground) - s1
            for pi in _parts(n):
                direct = species.species_delta(_species_elt("x", pi), s1, s2)
                acc = {}
                for d, w in ((d, mobius(d, pi)) for d in refinements(pi)):
                    if not all(
                        set(blk) <= s1 or not (set(blk) & s1) for blk in d.blocks
                    ):
                        continue
                    d1, d2 = d.restrict(s1), d.restrict(s2)
                    for b in refinements(d1):
                        for c in refinements(d2):
                            key = (b, c)
                            acc[key] = acc.get(key, 0) + w
                acc = {k: Fraction(v) for k, v in acc.items() if v}
                if acc != direct.terms:
                    failures.append(f"{pi} at split {sorted(s1)}")
    results.append(
        _result("species x coproduct equals the Möbius expansion route", failures)
    )
    return results


# ---------------------------------------------------------------- x-to-m

def run_x_to_m(max_n: int = 6, seed: int = DEFAULT_SEED) -> list:
    results = []

    failures = []
    for n in range(1, max_n + 1):
        if x_to_m_top(n) != convert(_elt("x", _top(n)), "m"):
            failures.append(f"n={n}")
    results.append(
        _result(
            "orientation-count route equals the Möbius inversion route",
            failures,
            f"n <= {max_n}",
        )
    )

    cap = min(max_n, graphs.ENUMERATION_VERTEX_CAP - 1, 6)
    failures = []
    for n in range(1, cap + 1):
        for sigma in _parts(n):
            counts = {
                v: graphs.count_acyclic_unique_sink_by_enumeration(sigma, v)
                for v in range(1, n + 1)
            }
            if len(set(counts.values())) != 1:
                failures.append(f"{sigma}: {counts}")
            if counts[1] != graphs.count_acyclic_unique_sink(sigma, 1):
                failures.append(f"backend mismatch at {sigma}")
    results.append(
        _result(
            "unique-sink counts are sink-independent and agree across backends",
            failures,
            f"n <= {cap}",
        )
    )

    failures = []
    for n in range(min(max_n, 6) + 1):
        owners = {
            tau: {x: i for i, blk in enumerate(tau.blocks) for x in blk}
            for tau in _parts(n)
        }
        for sigma in _parts(n):
            graph = graphs.MultipartiteGraph(sigma)
            edges = graph.edges()
            stable = set(graphs.stable_partitions(graph))
            brute = {
                tau
                for tau in _parts(n)
                if all(owners[tau][i] != owners[tau][j] for i, j in edges)
            }
            if stable != brute:
                failures.append(str(sigma))
    results.append(_result("stable partitions are exactly the refinements", failures))

    failures = []
    for n in range(min(max_n, 5) + 1):
        for sigma in _parts(n):
            graph = graphs.MultipartiteGraph(sigma)
            chi = graphs.chromatic_polynomial(graph)
            for k in range(1, 5):
                if chi.evaluate(k) != graphs.count_proper_colorings(graph, k):
                    failures.append(f"{sigma} at k={k}")
    results.append(
        _result("chromatic polynomial values match brute-force coloring counts", failures)
    )
    return results


# ---------------------------------------------------------------- omega

def run_omega(max_n: int = 5, seed: int = DEFAULT_SEED) -> list:
    results = []
    rng = random.Random(seed)

    failures = []
    for basis in ("m", "p", "e", "x"):
        for n in range(max_n + 1):
            for pi in _parts(n):
                e = _elt(basis, pi)
                if omega(omega(e)) != e:
                    failures.append(f"basis {basis}, {pi}")
    results.append(_result("omega is an involution", failures))

    failures = []
    for pi, sigma in _key_pairs(max_n):
        a, b = _elt("p", pi), _elt("p", sigma)
        if omega(product(a, b)) != product(omega(a), omega(b)):
            failures.append(f"{pi} * {sigma}")
    results.append(_result("omega is an algebra morphism", failures))

    failures = []
    for n in range(1, max_n + 1):
        w = convert(omega(_elt("x", _top(n))), "p")
        sign = (-1) ** (n - 1)
        for sigma in _parts(n):
            expected = Fraction(sign * factorial(len(sigma.blocks) - 1))
            if w.coefficient(sigma) != expected:
                failures.append(f"n={n}, {sigma}")
    results.append(
        _result("omega of the one-block extra element has the factorial expansion", failures)
    )

    failures = []
    signs = []
    for n in range(1, max_n + 1):
        for pi in _parts(n):
            w = convert(omega(_elt("x", pi)), "p")
            values = list(w.terms.values())
            if not values or not (
                all(v > 0 for v in values) or all(v < 0 for v in values)
            ):
                failures.append(str(pi))
        sample = convert(omega(_elt("x", _top(n))), "p")
        signs.append("+" if next(iter(sample.terms.values())) > 0 else "-")
    results.append(
        _result(
            "omega of every extra element is power sum positive or negative",
            failures,
            f"observed one-block signs by degree: {' '.join(signs)}",
        )
    )

    failures = []
    for n in range(1, min(max_n, 4) + 1):
        etas = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        chosen = rng.sample(etas, min(4, len(etas)))
        for pi in _parts(n):
            for basis in ("p", "x"):
                e = _elt(basis, pi)
                for eta in chosen:
                    if permute(eta, omega(e)) != omega(permute(eta, e)):
                        failures.append(f"{basis}, {pi}, {eta}")
    results.append(_result("omega commutes with the permutation action", failures))

    failures = []
    for n in range(max_n + 1):
        for pi in _parts(n):
            e = _elt("p", pi)
            if rho(omega(e)) != omega_sym(rho(e)):
                failures.append(str(pi))
    results.append(_result("omega commutes with the commutative projection", failures))
    return results


# ---------------------------------------------------------------- fock

def run_fock(max_n: int = 5, seed: int = DEFAULT_SEED) -> list:
    results = []
    rng = random.Random(seed)

    # the algebra product and coproduct use the species rules, so each
    # reference is taken in another basis and converted back
    routes = (("m", "p"), ("p", "x"), ("x", "p"))
    failures = []
    for basis, other in routes:
        for pi, sigma in _key_pairs(max_n):
            got = species.fock_product(_species_elt(basis, pi), _species_elt(basis, sigma))
            a, b = convert(_elt(basis, pi), other), convert(_elt(basis, sigma), other)
            if dict(got.terms) != convert(product(a, b), basis).terms:
                failures.append(f"basis {basis}: {pi} * {sigma}")
    results.append(
        _result("graded species product matches the algebra product", failures)
    )

    failures = []
    for basis, other in routes:
        for n in range(max_n + 1):
            for pi in _parts(n):
                got = species.fock_coproduct(_species_elt(basis, pi))
                want = tensor_convert(coproduct(convert(_elt(basis, pi), other)), basis)
                if got != want:
                    failures.append(f"basis {basis}: {pi}")
    results.append(
        _result("graded species coproduct matches the algebra coproduct", failures)
    )

    failures = []
    for n in range(min(max_n, 5) + 1):
        grounds = [range(1, n + 1)]
        if n:
            grounds.append(sorted(rng.sample(range(1, 40), n)))
        for ground in grounds:
            for a_key in set_partitions(ground):
                # p = sum of x over refinements, then x = Möbius sum of p
                acc = {}
                for b in refinements(a_key):
                    for c in refinements(b):
                        acc[c] = acc.get(c, 0) + mobius(c, b)
                acc = {k: v for k, v in acc.items() if v}
                if acc != {a_key: 1}:
                    failures.append(str(a_key))
    results.append(
        _result("power sum and extra bases triangulate exactly over any ground set", failures)
    )

    st_example = species.relabel(
        {1: 1, 6: 3, 3: 2, 8: 4}, _species_elt("m", _sp("1,6/3,8"))
    )
    ok = st_example == _species_elt("m", _sp("13/24"))
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
            stepwise = species.relabel(g, species.relabel(f, v))
            if composed != stepwise:
                ok = False
    results.append(CheckResult("relabeling is functorial", ok, ""))
    return results


# ---------------------------------------------------------------- oracle

def _rank(polys) -> int:
    """Rank of a family of polynomials over their joint support."""
    support = sorted({w for p in polys for w in p.terms})
    index = {w: i for i, w in enumerate(support)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(support)
        for w, c in p.terms.items():
            row[index[w]] = Fraction(c)
        rows.append(row)
    rank = 0
    for col in range(len(support)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def run_oracle(max_n: int = 4, seed: int = DEFAULT_SEED, k: int = 4) -> list:
    # certification requires k >= n for injective truncation, and the word
    # count k^n makes larger degrees pointless here anyway
    max_n = min(max_n, k)
    results = []
    rng = random.Random(seed)
    bases = ("m", "p", "e", "x")

    expansions = {}
    for n in range(max_n + 1):
        for pi in _parts(n):
            for b in bases:
                expansions[(b, pi)] = monomials.expand_nc(b, pi, k)

    failures = []
    for n in range(max_n + 1):
        for pi in _parts(n):
            for b1 in bases:
                for b2 in bases:
                    if b1 == b2:
                        continue
                    target = convert(_elt(b1, pi), b2)
                    acc = monomials.NCPolynomial(k)
                    for sigma, c in target.terms.items():
                        acc = acc + c * expansions[(b2, sigma)]
                    if acc != expansions[(b1, pi)]:
                        failures.append(f"{b1}->{b2} at {pi}")
    results.append(
        _result(
            "every basis conversion matches the defining expansions",
            failures,
            f"n <= {max_n}, k = {k}",
        )
    )

    failures = []
    for n in range(max_n + 1):
        for pi in _parts(n):
            lam = pi.shape()
            pairs = [
                ("m", lambda_superfactorial(lam)),
                ("p", 1),
                ("e", lambda_factorial(lam)),
            ]
            for b, scalar in pairs:
                lhs = monomials.commute(expansions[(b, pi)])
                rhs = scalar * monomials.expand_c(b, lam, k)
                if lhs != rhs:
                    failures.append(f"{b} at {pi}")
    results.append(
        _result("commutative projection carries the three scalar factors", failures)
    )

    failures = []
    for n in range(max_n + 1):
        for eta_tuple in itertools.permutations(range(1, n + 1)):
            eta = Permutation(eta_tuple)
            for pi in _parts(n):
                for b in bases:
                    lhs = monomials.position_permute(expansions[(b, pi)], eta)
                    if lhs != expansions[(b, apply_permutation(eta, pi))]:
                        failures.append(f"{b}, {pi}, {eta_tuple}")
    results.append(
        _result("position action matches the relabeled expansions", failures)
    )

    failures = []
    for n in range(max_n + 1):
        for lam in integer_partitions(n):
            for b in ("m", "p", "e"):
                q = monomials.expand_c(b, lam, k)
                if monomials.commute(monomials.symmetrize_R(q, n)) != q:
                    failures.append(f"{b} at {lam}")
        for _ in range(3):
            terms = {}
            for _ in range(4):
                exps = [0] * k
                for _ in range(n):
                    exps[rng.randrange(k)] += 1
                terms[tuple(exps)] = rng.randrange(-5, 6)
            q = monomials.CPolynomial(k, terms)
            if monomials.commute(monomials.symmetrize_R(q, n)) != q:
                failures.append(f"random degree {n}")
    results.append(
        _result("symmetrizing then commuting is the identity", failures)
    )

    failures = []
    for n in range(max_n + 1):
        for lam in integer_partitions(n):
            lifted = monomials.symmetrize_R(monomials.expand_c("p", lam, k), n)
            scale = Fraction(
                lambda_factorial(lam) * lambda_superfactorial(lam), factorial(max(n, 1))
            ) if n else Fraction(1)
            acc = monomials.NCPolynomial(k)
            for tau in _parts(n):
                if tau.shape() == lam:
                    acc = acc + scale * expansions[("p", tau)]
            if lifted != acc:
                failures.append(str(lam))
    results.append(
        _result("symmetrized power sums spread evenly over one shape", failures)
    )

    failures = []
    for pi, sigma in _key_pairs(min(max_n, k)):
        lhs = expansions[("p", pi)] * expansions[("p", sigma)]
        if lhs != monomials.expand_nc("p", slash(pi, sigma), k):
            failures.append(f"{pi} | {sigma}")
    results.append(
        _result("power sum expansions multiply by concatenation", failures)
    )

    failures = []
    for n in range(min(max_n, 3) + 1):
        for pi in _parts(n):
            for b in bases:
                small = monomials.expand_nc(b, pi, k)
                big = monomials.expand_nc(b, pi, k + 1)
                restricted = {
                    w: c for w, c in big.terms.items() if all(x <= k for x in w)
                }
                if restricted != small.terms:
                    failures.append(f"{b} at {pi}")
    results.append(
        _result("expansions are consistent across truncation widths", failures)
    )

    failures = []
    for n in range(max_n + 1):
        if k < n:
            continue
        for b in bases:
            family = [expansions[(b, pi)] for pi in _parts(n)]
            if _rank(family) != len(family):
                failures.append(f"basis {b}, n={n}")
    results.append(
        _result(
            "degree-n truncations stay linearly independent when k >= n", failures
        )
    )
    return results


# ---------------------------------------------------------------- conjecture

def conjecture_report(max_n: int = 7) -> list:
    """Sign data for the elementary expansion of the one-block extra elements.

    For each degree: the sign predicted by parity, the observed extrema of
    the nonzero coefficients, the count of vanishing coefficients, whether
    every nonzero coefficient matches the predicted sign, and whether the
    interval-sum formula agrees with the basis-change route coefficient by
    coefficient.  This is a report, not an assertion.
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
        for sigma in _parts(n):
            direct = x_e_expansion_coefficient(top, sigma)
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


SUITES = {
    "mobius": run_mobius,
    "lattice": run_lattice,
    "bases": run_bases,
    "hopf-axioms": run_hopf_axioms,
    "coproduct-x": run_coproduct_x,
    "x-to-m": run_x_to_m,
    "omega": run_omega,
    "fock": run_fock,
    "oracle": run_oracle,
}


def run_suite(name: str, max_n: int = 5, seed: int = DEFAULT_SEED) -> list:
    """Run one named suite, or all of them in declaration order."""
    if name == "all":
        out = []
        for suite_name, fn in SUITES.items():
            for res in fn(max_n=max_n, seed=seed):
                out.append(CheckResult(f"{suite_name}: {res.name}", res.passed, res.detail))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](max_n=max_n, seed=seed)
