"""CLI output pinned byte for byte.

``data/cli_golden.json`` holds argument lists with the exit code, the
standard output and the standard error recorded from an earlier build:
basis changes over every pair in both the set partition and the integer
partition forms, products (commutative, and noncommutative in m, e and
mixed bases), coproducts (of e keys, and of x keys: graded, in ``--json``,
a fractional combination, one ``--split`` component and ``species
delta``), the conjecture report (at degree 6 in both forms, and at the
degree cap 8 in ``--json``), the check suites (all of them, and the
capped degrees of ``x-to-m`` and ``lattice``, and ``oracle`` at degree 4
in text and ``--json``), the oracle at ``--vars`` below ``--max-n``, the
commutative images at degrees 7 and 8 (``x{7} - 1/2*x{4,3}`` to e,
``e{2,2,2,2}`` to x in ``--json``, ``m{1,1,1,1,1,1,1,1}`` to p,
``m{7,1} + 2/3*m{2,2,2,1,1}`` to e in ``--json``, and the m product
``m{3,1}`` times ``2*m{2,2} - 1/3*m{2,1,1}``, all with ``--sym``), the
unique-sink orientation count of ``graph 12/34/5/6/7`` at sink 3 (``504``)
by enumeration and by the chromatic route, each in text and ``--json``,
and five inputs that must exit 2: a product and a key above the degree
cap, a key with overlapping blocks, orientation enumeration on eight
vertices, and a ``--split`` that repeats an element.  The exit-2 cases
print nothing on standard output, so their standard error pins the
message.  A change that alters any of them fails here.

``main`` builds its parser once per process and renders each result only
in the requested form, so the goldens are also replayed in one process
after failed requests and in reverse order, with the unrequested form's
renderers made to raise, and through ``python -m ncsym.cli``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncsym
from ncsym import cli, graphs
from ncsym.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def _case(*argv):
    return next(case for case in GOLDEN if case["argv"] == list(argv))


def _run(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_golden(case, capsys):
    assert _run(case["argv"], capsys) == (case["exit_code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[" ".join(case["argv"]) for case in GOLDEN]
)
def test_cli_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.delenv("NCSYM_MAX_DEGREE", raising=False)
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    assert code == case["exit_code"]
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]


def test_shared_parser_carries_no_state_between_requests(capsys, monkeypatch):
    monkeypatch.delenv("NCSYM_MAX_DEGREE", raising=False)
    builds = []
    build = cli.build_parser

    def counted_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    monkeypatch.setattr(cli, "_PARSER", None)
    # the usage text argparse prints depends on the terminal width
    assert _run(["convert", "x{1,2}"], capsys)[0] == 2
    _assert_golden(_case("convert", "x{1,2,3,4,5,6,7,8,9}", "--to", "m"), capsys)
    _assert_golden(_case("convert", "x{1,2,3,4,5}", "--to", "p", "--json"), capsys)
    _assert_golden(_case("convert", "p{1,2,3,4,5}", "--to", "e"), capsys)
    for case in GOLDEN + GOLDEN[::-1]:
        _assert_golden(case, capsys)
    assert len(builds) == 1


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} rendered a form the request did not ask for")

    return refuse


# The renderers ``_emit`` calls: the combination renderers it falls back
# to, and those of the conjecture report and of the check results.
JSON_BUILDERS = ("terms_json", "_conjecture_json", "_results_json")
TEXT_FORMATTERS = ("format_terms", "_conjecture_text", "_results_text")

# Requests of every subcommand that prints through ``_emit`` with no golden
# case in both forms: the product of species elements, Möbius values, the
# three graph modes (only the orientation count has goldens, on another
# graph) and the oracle report of ``verify``.  They are checked against
# their own output with nothing patched.
UNPINNED = [
    ["species", "mu", "m{1,2}", "m{3,5/4}"],
    ["mobius", "1/3/24", "13/24"],
    ["graph", "12/3/45"],
    ["graph", "12/3/45", "--stable"],
    ["graph", "12/3/45", "--orientations", "2"],
    ["verify", "--max-n", "3", "--vars", "3"],
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_each_request_renders_one_form(as_json, capsys, monkeypatch):
    monkeypatch.delenv("NCSYM_MAX_DEGREE", raising=False)
    # every successful golden: convert, product, coproduct, species,
    # conjecture, check and verify all print through ``_emit``
    emitting = [
        case
        for case in GOLDEN
        if case["exit_code"] == 0 and ("--json" in case["argv"]) == as_json
    ]
    assert {case["argv"][0] for case in emitting} >= {"conjecture", "check"}
    unpinned = [argv + ["--json"] if as_json else argv for argv in UNPINNED]
    expected = [_run(argv, capsys) for argv in unpinned]
    for name in TEXT_FORMATTERS if as_json else JSON_BUILDERS:
        monkeypatch.setattr(cli, name, _refuse(name))
    if as_json:
        # the chromatic polynomial's text form is its str()
        monkeypatch.setattr(graphs.ChromaticPolynomial, "__str__", _refuse("__str__"))
    for case in emitting:
        _assert_golden(case, capsys)
    assert [_run(argv, capsys) for argv in unpinned] == expected
    assert all(code == 0 for code, _, _ in expected)


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "p{1,2,3,4,5}", "--to", "e"],
        ["coproduct", "2*e{1,2/3} - e{1/2,3}", "--json"],
        ["convert", "x{1,1/2}", "--to", "m"],
    ],
    ids=["text", "json", "exit-2"],
)
def test_module_entry_point_matches_goldens(argv):
    case = _case(*argv)
    env = {k: v for k, v in os.environ.items() if k != "NCSYM_MAX_DEGREE"}
    src = str(Path(ncsym.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ncsym.cli", *argv], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == case["exit_code"]
    assert proc.stdout.decode("utf-8") == case["stdout"]
    assert proc.stderr.decode("utf-8") == case["stderr"]


def test_closed_stdout_exits_quietly():
    # a reader that stops after one line, as `| head -n 1` does: the
    # output (about 200 KB) overflows the pipe, so the writer meets a
    # closed pipe
    env = {k: v for k, v in os.environ.items() if k != "NCSYM_MAX_DEGREE"}
    src = str(Path(ncsym.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["convert", "m{1/2/3/4/5/6/7}", "--to", "p", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncsym.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert stderr == b""  # no traceback
