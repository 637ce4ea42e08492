import pytest

from ncsym import NCSymExpr, SetPartition, checks
from ncsym.cli import main


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_suite_passes_at_small_degree(suite):
    for result in checks.run_suite(suite, max_n=3):
        assert result.passed, f"{suite}: {result.name}: {result.detail}"


def test_suites_keep_their_order():
    assert checks.SUITES == (
        "mobius",
        "lattice",
        "bases",
        "hopf-axioms",
        "coproduct-x",
        "x-to-m",
        "omega",
        "fock",
        "oracle",
    )


def test_failing_property_reports_its_failures(monkeypatch, capsys):
    passing = checks.run_suite("x-to-m", max_n=3)
    # a wrong orientation-count route: the one-block m element in place of x
    def wrong(n):
        return NCSymExpr.element("m", SetPartition.whole(range(1, n + 1)))

    monkeypatch.setattr(checks, "x_to_m_top", wrong)
    failing = checks.run_suite("x-to-m", max_n=3)
    assert failing[0] == checks.CheckResult(
        "orientation-count route equals the Möbius inversion route",
        False,
        "2 failure(s), first: n=2",
    )
    assert failing[1:] == passing[1:]
    assert main(["check", "--suite", "x-to-m", "--max-n", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  orientation-count route equals the Möbius inversion route" in out
    assert out.endswith("CHECKS FAILED\n")


def test_run_suite_all():
    results = checks.run_suite("all", max_n=2)
    assert results and all(r.passed for r in results)
    with pytest.raises(ValueError):
        checks.run_suite("nonsense")


def test_conjecture_report_shape():
    rows = checks.conjecture_report(3)
    assert [row["n"] for row in rows] == [1, 2, 3]
    assert all(row["internal_agreement"] for row in rows)
    assert rows[0]["predicted_sign"] == "+"
    assert rows[1]["predicted_sign"] == "-"
    assert rows[1]["min_coeff"] == "-1"
    assert rows[2]["nonzero_terms"] == 4 and rows[2]["zero_terms"] == 1
