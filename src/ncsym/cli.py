"""Command line front end.

Exit codes: 0 on success, 1 when a property check fails, 2 on usage, parse,
or domain errors, 141 (128 + SIGPIPE, as a shell reports a program that
SIGPIPE ended) when the reader closes standard output early.

``main(argv)`` returns the exit code and may be called any number of times
in one process: the argument parser is built on the first call and reused,
and each request renders its result only in the form it asked for (text, or
``--json``).  What depends on the environment, such as the degree cap, is
read again on every call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import checks
from .expressions import convert, coproduct, product
from .graphs import (
    MultipartiteGraph,
    chromatic_polynomial,
    count_acyclic_unique_sink,
    count_acyclic_unique_sink_by_enumeration,
    stable_partitions,
)
from .lattice import mobius
from .limits import max_degree
from .parsing import ParseError, format_terms, parse_ncsym, parse_species, parse_sym, terms_json
from .partitions import SetPartition
from .species import SpeciesElement, species_delta, species_mu
from .sym import convert_sym, product_sym

BASIS_CHOICES = ("m", "p", "e", "x")


def _parse_int_set(text: str) -> frozenset:
    """The set of the comma-separated ints of ``text``; each at most once,
    as ``SetPartition.parse`` takes each element of its ground set.  An
    error points at the first piece that is not an int or repeats one."""
    s = text.strip()
    if s in ("", "()"):
        return frozenset()
    seen = set()
    position = text.index(s)
    for piece in s.split(","):
        try:
            x = int(piece)
        except ValueError:
            raise ParseError(f"malformed element set {text!r}", position) from None
        if x in seen:
            raise ParseError(f"repeated element {x} in element set {text!r}", position)
        seen.add(x)
        position += len(piece) + 1
    return frozenset(seen)


def _dumps(value, indent: str = "\n") -> str:
    """The text ``json.dumps`` writes for ``value`` at an indent of two with
    sorted keys, built by one join per container: ints by ``int.__repr__``,
    strings by the C string encoder, any other leaf by ``json.dumps``.  Dict
    keys are sorted first and then stringified, as ``json`` does."""
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is str:
        return _quote(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = []
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if not isinstance(key, (int, float)) and key is not None:
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = json.dumps(key)
            rows.append(_quote(key) + ": " + _dumps(item, inner))
        return "{" + inner + ("," + inner).join(rows) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_dumps(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


def _emit(args, value, text=None, to_json=None) -> None:
    """Print ``value`` as ``to_json(value)`` under --json, else as ``text(value)``.

    Either defaults to the combination renderer of its form, looked up when
    called; only the requested form is rendered.
    """
    if getattr(args, "json", False):
        print(_dumps((to_json or terms_json)(value)))
    else:
        print((text or format_terms)(value))


def _cmd_convert(args) -> int:
    if args.sym:
        _emit(args, convert_sym(parse_sym(args.expr), args.to))
    else:
        _emit(args, convert(parse_ncsym(args.expr), args.to))
    return 0


def _cmd_product(args) -> int:
    if args.sym:
        _emit(args, product_sym(parse_sym(args.left), parse_sym(args.right)))
    else:
        _emit(args, product(parse_ncsym(args.left), parse_ncsym(args.right)))
    return 0


def _cmd_coproduct(args) -> int:
    expr = parse_ncsym(args.expr)
    if args.split is None:
        _emit(args, coproduct(expr))
        return 0
    grounds = {pi.ground for pi in expr.terms}
    if len(grounds) > 1:
        raise ValueError("--split needs a homogeneous expression on one ground set")
    ground = grounds.pop() if grounds else frozenset()
    return _emit_split(args, ground, expr.basis, expr.terms)


def _emit_split(args, ground: frozenset, basis: str, terms: dict) -> int:
    """The species coproduct component with the --split part as first leg."""
    s1 = _parse_int_set(args.split)
    t = species_delta(SpeciesElement(ground, basis, terms), s1, ground - s1)
    _emit(args, t)
    return 0


def _cmd_mobius(args) -> int:
    value = mobius(SetPartition.parse(args.finer), SetPartition.parse(args.coarser))
    _emit(args, value, str, lambda v: {"value": v})
    return 0


def _cmd_species(args) -> int:
    if args.species_op == "mu":
        _emit(args, species_mu(parse_species(args.left), parse_species(args.right)))
        return 0
    v = parse_species(args.expr)
    return _emit_split(args, v.ground, v.basis, v.terms)


def _cmd_graph(args) -> int:
    sigma = SetPartition.parse(args.sigma)
    graph = MultipartiteGraph(sigma)
    if args.stable:
        taus = [str(t) for t in stable_partitions(graph)]
        _emit(args, taus, "\n".join, list)
        return 0
    if args.orientations is not None:
        sink = args.orientations
        if args.method == "enumerate":
            count = count_acyclic_unique_sink_by_enumeration(sigma, sink)
        else:
            count = count_acyclic_unique_sink(sigma, sink)
        _emit(args, count, str, lambda c: {"sink": sink, "method": args.method, "count": c})
        return 0
    _emit(
        args,
        chromatic_polynomial(graph),
        str,
        lambda chi: {"coefficients": chi.coefficients(), "stable_counts": chi.counts},
    )
    return 0


def _conjecture_text(rows) -> str:
    lines = [
        "CONJECTURE report (the tool reports sign data, it does not assert the"
        " conjecture): elementary expansion of the one-block extra element",
        f"{'n':>2}  {'predicted':>9}  {'nonzero':>7}  {'zeros':>5}  "
        f"{'min':>10}  {'max':>10}  {'internal':>8}  consistent",
    ]
    for row in rows:
        lines.append(
            f"{row['n']:>2}  {row['predicted_sign']:>9}  {row['nonzero_terms']:>7}  "
            f"{row['zero_terms']:>5}  {str(row['min_coeff']):>10}  "
            f"{str(row['max_coeff']):>10}  "
            f"{'ok' if row['internal_agreement'] else 'MISMATCH':>8}  "
            f"{'yes' if row['consistent_with_prediction'] else 'NO: ' + ', '.join(row['violations'])}"
        )
    return "\n".join(lines)


def _conjecture_json(rows) -> dict:
    return {"label": "CONJECTURE", "rows": rows}


def _cmd_conjecture(args) -> int:
    rows = checks.conjecture_report(args.max_n)
    _emit(args, rows, _conjecture_text, _conjecture_json)
    return 0 if all(row["internal_agreement"] for row in rows) else 1


def _results_text(results) -> str:
    lines = []
    for r in results:
        detail = f"  [{r.detail}]" if r.detail else ""
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}{detail}")
    lines.append("all checks passed" if all(r.passed for r in results) else "CHECKS FAILED")
    return "\n".join(lines)


def _results_json(results) -> dict:
    return {
        "passed": all(r.passed for r in results),
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    }


def _print_results(args, results) -> int:
    _emit(args, results, _results_text, _results_json)
    return 0 if all(r.passed for r in results) else 1


def _cmd_check(args) -> int:
    results = checks.run_suite(args.suite, max_n=args.max_n, seed=args.seed)
    return _print_results(args, results)


def _cmd_verify(args) -> int:
    results = checks.run_oracle(max_n=args.max_n, seed=args.seed, k=args.vars)
    return _print_results(args, results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsym",
        description=(
            "Exact computer algebra for symmetric functions in noncommuting"
            " variables and the Hopf monoid of set partitions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="re-express an expression in another basis")
    p.add_argument("expr")
    p.add_argument("--to", required=True, choices=BASIS_CHOICES)
    p.add_argument("--sym", action="store_true", help="integer partition keys")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("product", help="multiply two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--sym", action="store_true", help="integer partition keys")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("coproduct", help="full coproduct, or one species component")
    p.add_argument("expr")
    p.add_argument("--split", help="comma separated first tensor leg, e.g. 1,2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_coproduct)

    p = sub.add_parser("mobius", help="Möbius value of a refinement pair")
    p.add_argument("finer")
    p.add_argument("coarser")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mobius)

    p = sub.add_parser("species", help="Hopf monoid operations at explicit ground sets")
    species_sub = p.add_subparsers(dest="species_op", required=True)
    q = species_sub.add_parser("mu", help="product of two species elements")
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_species)
    q = species_sub.add_parser("delta", help="coproduct component at a split")
    q.add_argument("expr")
    q.add_argument("--split", required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_species)

    p = sub.add_parser("graph", help="complete multipartite graph computations")
    p.add_argument("sigma", help="defining set partition")
    p.add_argument("--stable", action="store_true", help="list stable partitions")
    p.add_argument(
        "--orientations",
        type=int,
        metavar="SINK",
        help="count acyclic orientations with a unique sink at SINK",
    )
    p.add_argument("--method", choices=("chromatic", "enumerate"), default="chromatic")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser(
        "conjecture", help="sign report for the elementary expansion (not an assertion)"
    )
    p.add_argument("--max-n", type=int, default=7, dest="max_n")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("check", help="run a named verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=tuple(checks.SUITES) + ("all",),
    )
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="certify conversions against monomial expansions")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--vars", type=int, default=4, help="truncation variable count")
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def _check_arguments(args) -> None:
    """Reject degree bounds and variable counts the subcommands cannot honour."""
    max_n = getattr(args, "max_n", None)
    if max_n is not None:
        if max_n < 0:
            raise ValueError(f"--max-n must be at least 0, got {max_n}")
        if max_n > max_degree():
            raise ValueError(
                f"--max-n {max_n} exceeds the degree cap {max_degree()}"
                " (set NCSYM_MAX_DEGREE to raise it)"
            )
    k = getattr(args, "vars", None)
    if k is not None and k < 1:
        raise ValueError(f"--vars must be at least 1, got {k}")


# The parser of this process, built by the first ``main`` call.  Parsing
# keeps no state in it: every call gets a fresh namespace.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        _check_arguments(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is left, and the flush at exit, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
