"""CLI output pinned byte for byte.

``data/cli_golden.json`` holds argument lists with the exit code, the
standard output and the standard error recorded from an earlier build:
basis changes over every pair in both the set partition and the integer
partition forms, products (commutative, and noncommutative in m, e and
mixed bases), coproducts (of e keys, and of x keys: graded, in ``--json``,
a fractional combination, one ``--split`` component and ``species
delta``), the conjecture report, the check suites (all of them, and the
capped degrees of ``x-to-m`` and ``lattice``, and ``oracle`` at degree 4
in text and ``--json``), the oracle at ``--vars`` below ``--max-n``, the
commutative images at degrees 7 and 8 (``x{7} - 1/2*x{4,3}`` to e,
``e{2,2,2,2}`` to x in ``--json``, ``m{1,1,1,1,1,1,1,1}`` to p,
``m{7,1} + 2/3*m{2,2,2,1,1}`` to e in ``--json``, and the m product
``m{3,1}`` times ``2*m{2,2} - 1/3*m{2,1,1}``, all with ``--sym``), and
three inputs that must exit 2, in text and ``--json``.  The exit-2 cases print nothing on standard output, so their
standard error pins the message.  A change that alters any of them fails
here.
"""

import json
from pathlib import Path

import pytest

from ncsym.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


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
