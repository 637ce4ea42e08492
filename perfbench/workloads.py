"""The four workloads: seeded inputs and the ops run on them.

Every workload is a fixed list of op *strata* (which call, which degree,
which block shapes, how many terms) and a seed that fills them in: the set
partition labels, coefficients, splits, suite seeds and the request draw
sequence come from ``random.Random(seed)`` and nothing else.  Strata and
their order come from a constant plan generator, so the cost of a run does
not depend on the seed while the inputs do.  ``size="tiny"`` shrinks every
degree for the self-test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

WORKLOADS = ("convert-cold", "hopf-split", "query-warm", "verify-report")
DEFAULT_SEED = 1
PAIRS = tuple((a, b) for a in "mpex" for b in "mpex" if a != b)


class Op:
    """One call into the library: ``target`` is ``"module.function"``."""

    __slots__ = ("label", "target", "args", "kind")

    def __init__(self, label: str, target: str, args: tuple, kind: str):
        self.label = label
        self.target = target
        self.args = args
        self.kind = kind


class Workload:
    """Ops in execution order; ``cold`` clears every table before each op."""

    def __init__(self, name: str, ops: list, cold: bool, sequence=None):
        self.name = name
        self.ops = ops
        self.cold = cold
        # query-warm draws requests from the pool; others run ops in order
        self.sequence = sequence if sequence is not None else list(range(len(ops)))


# ------------------------------------------------------------------ inputs


def _bell(upto: int) -> list:
    rows = [[1]]
    for _ in range(upto):
        prev = rows[-1]
        row = [prev[-1]]
        for v in prev:
            row.append(row[-1] + v)
        rows.append(row)
    return [r[0] for r in rows]


_BELL = _bell(16)


def plan_shape(plan: random.Random, n: int, max_block: int | None = None) -> list:
    """Block sizes of a uniformly random set partition of n elements.

    The block holding the least element has j + 1 elements with probability
    C(n-1, j) B(n-1-j) / B(n); the rest is a uniform partition of what is
    left.  Shapes with a block above ``max_block`` are redrawn.
    """
    while True:
        sizes, left = [], n
        while left:
            r = plan.randrange(_BELL[left])
            for j in range(left):
                r -= comb(left - 1, j) * _BELL[left - 1 - j]
                if r < 0:
                    break
            sizes.append(j + 1)
            left -= j + 1
        if max_block is None or max(sizes) <= max_block:
            return sorted(sizes, reverse=True)


def labelled(L, rng: random.Random, shape, ground=None):
    """A uniformly random set partition of ``ground`` (default 1..n) with this shape."""
    elems = list(ground) if ground is not None else list(range(1, sum(shape) + 1))
    rng.shuffle(elems)
    blocks, start = [], 0
    for size in shape:
        blocks.append(elems[start : start + size])
        start += size
    return L.SetPartition(blocks)


def coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def nc_expr(L, rng, plan, basis: str, n: int, terms: int, max_block=None):
    """Shapes come from the plan, labels and coefficients from the seed.

    A label that repeats an earlier key is redrawn a few times; a shape with
    a single labelling (one block, all singletons) may still merge terms.
    """
    keys = {}
    for shape in [plan_shape(plan, n, max_block) for _ in range(terms)]:
        for _ in range(20):
            key = labelled(L, rng, shape)
            if key not in keys:
                break
        keys[key] = keys.get(key, 0) + coeff(rng)
    return L.NCSymExpr(basis, keys)


def sym_expr(L, rng, plan, basis: str, n: int, terms: int):
    """Integer partition keys carry no labels: the plan picks them, the seed the coefficients."""
    pool = list(L.integer_partitions(n))
    chosen = plan.sample(pool, min(terms, len(pool)))
    return L.SymExpr(basis, {lam: coeff(rng) for lam in chosen})


def _deg(full: bool, n: int, shrink: int = 4) -> int:
    """The degree used at this size; tiny runs shrink every degree."""
    return n if full else max(2, n - shrink)


# ------------------------------------------------------------------ convert-cold


def convert_cold(L, rng, full: bool) -> Workload:
    plan = random.Random("convert-cold")
    ops = []
    # two strata per pair at degrees 6 and 7 keep the middle of the cost
    # distribution dense, so the median op does not jump between far-apart costs
    for n, per_pair in ((_deg(full, 6), 2), (_deg(full, 7), 2), (_deg(full, 8), 1)):
        for a, b in PAIRS * per_pair:
            # degree 8 keeps one composite op (and its check) under about half a second
            terms = plan.randint(1, 1 if n >= 8 else 5)
            expr = nc_expr(L, rng, plan, a, n, terms, max_block=n - 4 if n >= 8 else None)
            ops.append(
                Op(f"convert {a}->{b} n={n} terms={terms}", "expressions.convert", (expr, b), "convert")
            )
    # Sym tables cost seconds per degree above 6, so degrees 7 and 8 take the x <-> p routes
    sym_pairs = {6: PAIRS, 7: (("x", "p"), ("p", "x")), 8: (("x", "p"), ("p", "x"))}
    for n, pairs in sym_pairs.items():
        for a, b in pairs:
            terms = plan.randint(1, 3)
            expr = sym_expr(L, rng, plan, a, _deg(full, n), terms)
            ops.append(
                Op(f"convert_sym {a}->{b} n={_deg(full, n)}", "sym.convert_sym", (expr, b), "convert_sym")
            )
    for n in (7, 8):
        ops.append(Op(f"x_to_m_top {_deg(full, n)}", "expressions.x_to_m_top", (_deg(full, n),), "x_to_m_top"))
    lifts = {6: "mpex", 7: "px", 8: "px"}
    for n, bases in lifts.items():
        for a in bases:
            expr = sym_expr(L, rng, plan, a, _deg(full, n), plan.randint(1, 3))
            ops.append(Op(f"lift_R {a} n={_deg(full, n)}", "expressions.lift_R", (expr,), "lift_R"))
    for n in (6, 7, 8):
        for a in "mpex":
            expr = nc_expr(L, rng, plan, a, _deg(full, n), plan.randint(1, 5))
            ops.append(Op(f"rho {a} n={_deg(full, n)}", "expressions.rho", (expr,), "rho"))
    plan.shuffle(ops)
    return Workload("convert-cold", ops, cold=True)


# ------------------------------------------------------------------ hopf-split


def _split(rng, plan, ground) -> tuple:
    elems = sorted(ground)
    size = plan.randint(1, len(elems) - 1)
    s1 = frozenset(rng.sample(elems, size))
    return s1, frozenset(elems) - s1


def hopf_split(L, rng, full: bool) -> Workload:
    plan = random.Random("hopf-split")
    ops = []
    for n in (_deg(full, 5), _deg(full, 6)):
        for b in "mpex":
            for _ in range(3):
                key = labelled(L, rng, plan_shape(plan, n))
                ops.append(
                    Op(f"coproduct {b} n={n}", "expressions.coproduct", (L.NCSymExpr.element(b, key),), "coproduct")
                )
    for n in (_deg(full, 7), _deg(full, 8)):
        for b in "mpx":
            for _ in range(2):
                key = labelled(L, rng, plan_shape(plan, n))
                s1, s2 = _split(rng, plan, key.ground)
                v = L.SpeciesElement.element(b, key)
                ops.append(Op(f"species_delta {b} n={n}", "species.species_delta", (v, s1, s2), "species_delta"))
    n = _deg(full, 7)
    for _ in range(6):
        pi = labelled(L, rng, plan_shape(plan, n))
        a = plan.randint(1, n - 1)
        sigma = labelled(L, rng, plan_shape(plan, a))
        tau = labelled(L, rng, plan_shape(plan, n - a))
        ops.append(
            Op(f"x_coproduct_coefficient n={n}", "expressions.x_coproduct_coefficient", (pi, sigma, tau), "x_coeff")
        )
    for _ in range(6):
        A = labelled(L, rng, plan_shape(plan, n))
        s1, s2 = _split(rng, plan, A.ground)
        B = labelled(L, rng, plan_shape(plan, len(s1)), s1)
        C = labelled(L, rng, plan_shape(plan, len(s2)), s2)
        ops.append(Op(f"c_coefficient n={n}", "species.c_coefficient", (A, s1, s2, B, C), "c_coeff"))
    for n in (_deg(full, 5), _deg(full, 6)):
        for b in "mpx":
            for _ in range(2):
                key = labelled(L, rng, plan_shape(plan, n))
                v = L.SpeciesElement.element(b, key)
                ops.append(Op(f"fock_coproduct {b} n={n}", "species.fock_coproduct", (v,), "fock"))
    for n in (_deg(full, 5), _deg(full, 6)):
        for a, b in PAIRS:
            terms = {}
            for _ in range(plan.randint(2, 6)):
                left = plan.randint(0, n)
                legs = tuple(
                    labelled(L, rng, plan_shape(plan, k)) if k else L.SetPartition.empty()
                    for k in (left, n - left)
                )
                terms[legs] = coeff(rng)
            t = L.NCTensorExpr(a, terms)
            ops.append(
                Op(f"tensor_convert {a}->{b} n={n}", "expressions.tensor_convert", (t, b), "tensor_convert")
            )
    plan.shuffle(ops)
    return Workload("hopf-split", ops, cold=True)


# ------------------------------------------------------------------ query-warm

SEQUENCE_LENGTH = 400
# An assumed reuse skew: there is no request log to fit it to.  With 56
# requests and 400 draws it gives the top request 12% of the draws, the top
# five 33% and the least popular 3 draws each, so the median op spans many
# requests rather than the one the plan happens to rank first.
ZIPF_EXPONENT = 0.7


def _arg(L, expr) -> str:
    """Canonical text with a positive leading term, so argparse reads it as an operand."""
    text = str(expr)
    return str(expr.scale(-1)) if text.startswith("-") else text


def _text(L, rng, plan, basis, n, terms, max_block=None) -> str:
    return _arg(L, nc_expr(L, rng, plan, basis, n, terms, max_block))


def query_warm(L, rng, full: bool) -> Workload:
    plan = random.Random("query-warm")
    d = lambda n: _deg(full, n)  # noqa: E731
    requests = []

    def add(argv, kind, *extra):
        if plan.random() < 0.5 and kind != "malformed":
            argv = argv + ["--json"]
        requests.append(Op(" ".join(argv)[:60], "cli.main", (argv, *extra), kind))

    for _ in range(16):
        a, b = plan.choice(PAIRS)
        n = plan.randint(d(3), d(7))
        add(["convert", _text(L, rng, plan, a, n, plan.randint(1, 4)), "--to", b], "q_convert")
    for _ in range(6):
        a, b = plan.choice(PAIRS)
        n = plan.randint(d(3), d(6))
        expr = sym_expr(L, rng, plan, a, n, plan.randint(1, 3))
        add(["convert", _arg(L, expr), "--to", b, "--sym"], "q_convert_sym")
    for _ in range(5):
        b = plan.choice("mpex")
        left = _text(L, rng, plan, b, plan.randint(1, d(3)), plan.randint(1, 2))
        right = _text(L, rng, plan, plan.choice("mpex"), plan.randint(1, d(3)), plan.randint(1, 2))
        add(["product", left, right], "q_product")
    for _ in range(3):
        b = plan.choice("mpex")
        left = sym_expr(L, rng, plan, b, plan.randint(1, d(4)), plan.randint(1, 2))
        right = sym_expr(L, rng, plan, plan.choice("mpex"), plan.randint(1, d(3)), 1)
        add(["product", _arg(L, left), _arg(L, right), "--sym"], "q_product_sym")
    for b in "mpex":
        n = plan.randint(d(4), d(6))
        add(["coproduct", _text(L, rng, plan, b, n, 1, max_block=5)], "q_coproduct")
    for _ in range(4):
        b = plan.choice("mpx")
        n = plan.randint(d(5), d(7))
        key = labelled(L, rng, plan_shape(plan, n))
        s1, _ = _split(rng, plan, key.ground)
        text = L.format_ncsym(L.NCSymExpr.element(b, key))
        add(["coproduct", text, "--split", ",".join(map(str, sorted(s1)))], "q_split")
    for _ in range(4):
        n = plan.randint(d(3), d(7))
        upper = labelled(L, rng, plan_shape(plan, n))
        lower = L.SetPartition(
            part for blk in upper.blocks for part in labelled(L, rng, plan_shape(plan, len(blk)), blk).blocks
        )
        add(["mobius", str(lower), str(upper)], "q_mobius")
    for _ in range(3):
        b = plan.choice("mpx")
        n = plan.randint(d(5), d(7))
        key = labelled(L, rng, plan_shape(plan, n))
        s1, _ = _split(rng, plan, key.ground)
        text = L.format_ncsym(L.NCSymExpr.element(b, key))
        add(["species", "delta", text, "--split", ",".join(map(str, sorted(s1)))], "q_split")
    for _ in range(2):
        b = plan.choice("mpx")
        left = labelled(L, rng, plan_shape(plan, d(3)), range(1, d(3) + 1))
        right = labelled(L, rng, plan_shape(plan, d(3)), range(d(3) + 1, 2 * d(3) + 1))
        add(
            ["species", "mu", f"{b}{{{left}}}", f"{b}{{{right}}}"],
            "q_species_mu",
        )
    for extra in ([], [], [], ["--stable"], ["--orientations"], ["--orientations", "--method", "enumerate"]):
        n = plan.randint(d(5), d(7))
        sigma = str(labelled(L, rng, plan_shape(plan, n)))
        if extra[:1] == ["--orientations"]:
            extra = ["--orientations", str(rng.randint(1, n))] + extra[1:]
        add(["graph", sigma, *extra], "q_graph")
    n_bad = d(9) if full else 9
    add(["convert", "x{1,2/3} + q{1}", "--to", "m"], "malformed")
    add(["convert", f"x{{{','.join(map(str, range(1, n_bad + 1)))}}}", "--to", "m"], "malformed")
    add(["convert", "x{1,2}"], "malformed")

    plan.shuffle(requests)  # the plan fixes which request is popular
    length = SEQUENCE_LENGTH if full else 40
    sequence = [i for i, k in enumerate(zipf_counts(len(requests), length)) for _ in range(k)]
    rng.shuffle(sequence)
    return Workload("query-warm", requests, cold=False, sequence=sequence)


def zipf_counts(pool: int, length: int) -> list:
    """How often each pool rank is drawn: Zipf shares of ``length``, largest remainders first.

    Fixed counts keep the request mix, and so the cost of a pass, the same
    for every seed; the seed only orders the draws.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(pool)]
    shares = [length * w / sum(weights) for w in weights]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(pool), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: length - sum(counts)]:
        counts[i] += 1
    return counts


# ------------------------------------------------------------------ verify-report


def verify_report(L, rng, full: bool) -> Workload:
    plan = random.Random("verify-report")
    d = lambda n: _deg(full, n, shrink=5)  # noqa: E731
    max_n = 4 if full else 2
    ops = [Op(f"conjecture_report {d(7)}", "checks.conjecture_report", (d(7),), "conjecture")]
    for name in L.checks.SUITES:
        if name == "oracle":
            continue  # run_suite("oracle") is run_oracle(max_n, k=4), listed once below
        ops.append(
            Op(f"run_suite {name}", "checks.run_suite", (name, max_n, rng.randrange(2**31)), "suite")
        )
    ops.append(Op("run_oracle", "checks.run_oracle", (max_n, rng.randrange(2**31), max_n), "suite"))
    # 96 graphs of each kind keep the costs around the median and tail ranks
    # dense, so the median op does not jump between far-apart costs by seed
    for _ in range(96):
        n = plan.randint(d(9), d(10))
        sigma = labelled(L, rng, plan_shape(plan, n, max_block=6))
        ops.append(
            Op(f"chromatic n={n}", "graphs.chromatic_polynomial", (L.MultipartiteGraph(sigma),), "chromatic")
        )
    for _ in range(96):
        n = plan.randint(d(6), d(7))
        sigma = labelled(L, rng, plan_shape(plan, n))
        ops.append(
            Op(
                f"orientations n={n}",
                "graphs.count_acyclic_unique_sink_by_enumeration",
                (sigma, rng.randint(1, n)),
                "orientations",
            )
        )
    plan.shuffle(ops)
    return Workload("verify-report", ops, cold=True)


WORKLOAD_FACTORIES = {
    "convert-cold": convert_cold,
    "hopf-split": hopf_split,
    "query-warm": query_warm,
    "verify-report": verify_report,
}


def build(L, name: str, seed: int, size: str) -> Workload:
    return WORKLOAD_FACTORIES[name](L, random.Random(seed), size == "full")
