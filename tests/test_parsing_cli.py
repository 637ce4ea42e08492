import json
from fractions import Fraction

import pytest

from ncsym import (
    NCSymExpr,
    ParseError,
    SymExpr,
    format_ncsym,
    format_nctensor,
    format_sym,
    parse_ncsym,
    parse_species,
    parse_sym,
    set_partitions,
)
from ncsym import cli
from ncsym.cli import main

from conftest import elt, ip_, sp_


def test_parse_ncsym_basic():
    e = parse_ncsym("x{1,3/2}")
    assert e == NCSymExpr("x", {sp_("13/2"): 1})
    e = parse_ncsym("-1*m{1/2/3} + 2*m{1,2/3}")
    assert e == NCSymExpr("m", {sp_("1/2/3"): -1, sp_("12/3"): 2})
    e = parse_ncsym("1/2*p{1,2} - p{1/2}")
    assert e.coefficient(sp_("12")) == Fraction(1, 2)
    assert e.coefficient(sp_("1/2")) == -1


def test_parse_unit_terms():
    e = parse_ncsym("1")
    assert e.coefficient(sp_("()")) == 1
    e = parse_ncsym("3/2")
    assert e.coefficient(sp_("()")) == Fraction(3, 2)
    e = parse_ncsym("x{}")
    assert e.coefficient(sp_("()")) == 1
    e = parse_ncsym("2 - x{1}")
    assert e.basis == "x"


def test_parse_errors():
    for bad in ("", "q{1}", "x{1,3", "x{1}y", "1*", "x{0}", "+"):
        with pytest.raises(ParseError):
            parse_ncsym(bad)
    with pytest.raises(ParseError):
        parse_ncsym("m{1} + p{1}")
    with pytest.raises(ParseError):
        parse_sym("x{2,3}")


def test_parse_sym():
    e = parse_sym("x{3,2,1}")
    assert e == SymExpr("x", {ip_(3, 2, 1): 1})
    assert parse_sym("2*e{2} - 1*e{1,1}").basis == "e"


def test_print_parse_round_trip():
    for n in range(4):
        for pi in set_partitions(range(1, n + 1)):
            for basis in "mpex":
                e = NCSymExpr(basis, {pi: Fraction(-3, 7)})
                assert parse_ncsym(format_ncsym(e), default_basis=basis) == e
    mixed = parse_ncsym("1/2*x{1,2} - 3*x{1/2} + 1")
    assert parse_ncsym(format_ncsym(mixed)) == mixed
    s = parse_sym("1/2*m{2,2} - m{1,1,1}")
    assert parse_sym(format_sym(s)) == s


def test_canonical_print_order():
    e = parse_ncsym("m{1/2/3} + m{1,2/3} + m{1/2,3} + m{1,3/2}")
    assert (
        format_ncsym(e)
        == "1*m{1,2/3} + 1*m{1,3/2} + 1*m{1/2,3} + 1*m{1/2/3}"
    )
    assert format_ncsym(NCSymExpr.zero("p")) == "0"


def test_parse_species_requires_one_ground():
    v = parse_species("m{1,2/4}")
    assert v.ground == frozenset({1, 2, 4})
    with pytest.raises(ParseError):
        parse_species("m{1,2} + m{1,3}")


def test_cli_convert(capsys):
    assert main(["convert", "x{1,3/2}", "--to", "m"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-1*m{1,2/3} - 1*m{1/2,3} - 1*m{1/2/3}"
    assert main(["convert", "p{1,2}", "--to", "p"]) == 0
    assert capsys.readouterr().out.strip() == "1*p{1,2}"
    assert main(["convert", "x{1,2,3}", "--to", "m"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1*m{1,2/3} + 1*m{1,3/2} + 1*m{1/2,3} + 2*m{1/2/3}"


def test_cli_convert_sym(capsys):
    assert main(["convert", "x{2}", "--to", "e", "--sym"]) == 0
    assert capsys.readouterr().out.strip() == "-2*e{2}"


def test_cli_convert_json(capsys):
    assert main(["convert", "x{1,3/2}", "--to", "p", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [
        {"basis": "p", "blocks": [[1, 3], [2]], "denominator": 1, "numerator": 1},
        {"basis": "p", "blocks": [[1], [2], [3]], "denominator": 1, "numerator": -1},
    ]


def test_cli_product(capsys):
    assert main(["product", "p{1,3/2,4}", "p{1,3/2}"]) == 0
    assert capsys.readouterr().out.strip() == "1*p{1,3/2,4/5,7/6}"
    assert main(["product", "x{3,2,2,1}", "x{2,2,1}", "--sym"]) == 0
    assert capsys.readouterr().out.strip() == "1*x{3,2,2,2,2,1,1}"


def test_cli_coproduct(capsys):
    assert main(["coproduct", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1 (x) 1"
    assert main(["coproduct", "p{1,3/2}"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == (
        "1 (x) p{1,3/2} + 1*p{1} (x) p{1,2} + 1*p{1,2} (x) p{1} + 1*p{1,3/2} (x) 1"
    )
    assert main(["coproduct", "x{1,2,3/4}", "--split", "1,2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-1*x{1,2} (x) x{3/4} + 1*x{1/2} (x) x{3/4}"


def test_cli_split_rejects_a_repeated_element(capsys):
    # a repeat would silently collapse the split part, as SetPartition.parse
    # refuses a repeated ground element
    assert cli._parse_int_set(" 3, 1,2") == frozenset({1, 2, 3})
    for text, repeated, position in (("1,1", 1, 2), (" 2, 1,02", 2, 6)):
        with pytest.raises(ParseError) as info:
            cli._parse_int_set(text)
        assert str(info.value) == (
            f"repeated element {repeated} in element set {text!r} (at position {position})"
        )
        assert info.value.position == position
    for argv in (
        ["coproduct", "x{1,2,3/4}", "--split", "1,1"],
        ["species", "delta", "x{1,3,5/2,4/6}", "--split", "1,2,1"],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parse error: repeated element 1 in element set")


def test_cli_split_points_at_the_first_malformed_piece(capsys):
    for text, position in ((" 2,a", 3), ("1,,2", 2), ("a,1", 0), ("1,1,a", 2)):
        with pytest.raises(ParseError) as info:
            cli._parse_int_set(text)
        assert info.value.position == position
    assert str(info.value).startswith("repeated element 1")  # the earlier fault
    assert main(["coproduct", "x{1,2,3}", "--split", " 2,a"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "parse error: malformed element set ' 2,a' (at position 3)\n"


def test_cli_mobius(capsys):
    assert main(["mobius", "1/3/24", "13/24"]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert main(["mobius", "12/3", "13/2"]) == 2


def test_cli_species(capsys):
    assert main(["species", "mu", "m{1,2}", "m{3,5/4}"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1*m{1,2,3,5/4} + 1*m{1,2,4/3,5} + 1*m{1,2/3,5/4}"
    assert main(["species", "delta", "p{1,2/3,5/4}", "--split", "1,2"]) == 0
    assert capsys.readouterr().out.strip() == "1*p{1,2} (x) p{3,5/4}"


def test_cli_graph(capsys):
    assert main(["graph", "1/2/3"]) == 0
    assert capsys.readouterr().out.strip() == "k^3 - 3*k^2 + 2*k"
    assert main(["graph", "1/2/3", "--orientations", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["graph", "1/2/3", "--orientations", "2", "--method", "enumerate"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["graph", "12/3", "--stable"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["1,2/3", "1/2/3"]


def test_cli_check(capsys):
    assert main(["check", "--suite", "mobius", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_check_json(capsys):
    assert main(["check", "--suite", "lattice", "--max-n", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert all(r["passed"] for r in data["results"])


def test_cli_verify(capsys):
    assert main(["verify", "--max-n", "2", "--vars", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_conjecture(capsys):
    assert main(["conjecture", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "CONJECTURE" in out
    assert main(["conjecture", "--max-n", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["label"] == "CONJECTURE"
    assert [row["n"] for row in data["rows"]] == [1, 2]


def test_cli_exit_codes(capsys):
    assert main(["convert", "x{1,3", "--to", "m"]) == 2
    capsys.readouterr()
    assert main(["mobius", "12/3", "1/2/3"]) == 2  # not a refinement
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["species", "mu", "e{1}", "e{2}"]) == 2
    assert capsys.readouterr().err == "error: unknown species basis 'e'\n"
    assert main(["convert", "3/0", "--to", "m"]) == 2
    assert capsys.readouterr().err == "parse error: zero denominator in '3/0' (at position 0)\n"
    assert main(["product", "p{1}", "1/0"]) == 2
    assert capsys.readouterr().err == "parse error: zero denominator in '1/0' (at position 0)\n"
    assert main(["convert", "p{1} - 2/0*p{1/2}", "--to", "m"]) == 2
    assert "zero denominator in '2/0' (at position 7)" in capsys.readouterr().err


def test_cli_rejects_bad_bounds(monkeypatch, capsys):
    for argv in (
        ["check", "--suite", "all", "--max-n", "-3"],
        ["verify", "--max-n", "-1"],
        ["conjecture", "--max-n", "-1"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --max-n must be at least 0, got {argv[-1]}\n"
    for k in ("-1", "0"):
        assert main(["verify", "--vars", k]) == 2
        assert capsys.readouterr().err == f"error: --vars must be at least 1, got {k}\n"
    monkeypatch.setenv("NCSYM_MAX_DEGREE", "abc")
    for argv in (["check", "--suite", "mobius"], ["verify"], ["conjecture"]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: NCSYM_MAX_DEGREE must be an integer, got 'abc'\n"
        )


def test_cli_degree_cap(monkeypatch, capsys):
    monkeypatch.setenv("NCSYM_MAX_DEGREE", "3")
    for argv in (
        ["convert", "x{1,2,3,4}", "--to", "m"],
        ["coproduct", "p{1/2/3/4}", "--split", "1,2"],
        ["species", "delta", "p{1/2/3/4}", "--split", "1,2"],
        ["species", "mu", "m{1/2}", "m{3/4}"],
        ["product", "m{1,2}", "m{1/2}"],
    ):
        assert main(argv) == 2
        assert "cap" in capsys.readouterr().err
    # the multiplicative bases concatenate keys and stay uncapped
    for basis in "pxe":
        assert main(["product", f"{basis}{{1,2}}", f"{basis}{{1/2}}"]) == 0
        assert capsys.readouterr().out == f"1*{basis}{{1,2/3/4}}\n"
    assert main(["species", "mu", "x{1/2}", "x{3/4}"]) == 0
    assert main(["check", "--suite", "mobius", "--max-n", "5"]) == 2
