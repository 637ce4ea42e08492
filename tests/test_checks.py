from fractions import Fraction

import pytest

from ncsym import (
    NCSymExpr,
    SetPartition,
    checks,
    expand_nc,
    integer_partitions,
    monomials,
    set_partitions,
    species,
    x_e_expansion_coefficient,
)
from ncsym.cli import main

CONVERSIONS = "every basis conversion matches the defining expansions"
POSITIONS = "position action matches the relabeled expansions"


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


def _oracle(max_n=3):
    return {r.name: r for r in checks.run_oracle(max_n=max_n, k=3)}


def test_oracle_conversions_fail_on_a_half_step(monkeypatch):
    passing = _oracle()
    real = checks.convert
    source = NCSymExpr.element("p", SetPartition.parse("12/3"))

    # one coefficient of one conversion moved by 1/2; p at 12/3 is m at 12/3
    # plus m at 123, so the sum keeps its support and only a value is wrong
    def shifted(expr, basis):
        out = real(expr, basis)
        if expr == source and basis == "m":
            terms = dict(out.terms)
            first = next(iter(terms))
            terms[first] += Fraction(1, 2)
            return NCSymExpr(basis, terms)
        return out

    monkeypatch.setattr(checks, "convert", shifted)
    failing = _oracle()
    assert failing[CONVERSIONS] == checks.CheckResult(
        CONVERSIONS, False, "1 failure(s), first: p->m at 1,2/3"
    )
    assert all(failing[name] == passing[name] for name in passing if name != CONVERSIONS)


def test_oracle_positions_fail_on_a_wrong_action(monkeypatch):
    real = monomials.position_permute

    # the permutation in place of its inverse differs on the 3-cycles
    def wrong(poly, eta):
        return real(poly, eta.inverse())

    monkeypatch.setattr(monomials, "position_permute", wrong)
    result = _oracle()[POSITIONS]
    assert not result.passed
    assert result.detail.startswith("24 failure(s), first: ")


COMPATIBILITY = "product and coproduct compatibility diagram"


def test_compatibility_diagram_fails_on_a_dropped_coproduct_term(monkeypatch):
    passing = {r.name: r for r in checks.run_suite("hopf-axioms", max_n=3)}
    real = species.species_delta

    # the first term of every component on three or more elements is lost
    def dropping(v, s1, s2):
        t = real(v, s1, s2)
        if len(v.ground) >= 3 and t.terms:
            first = next(iter(t.terms))
            terms = {k: c for k, c in t.terms.items() if k != first}
            return species.SpeciesTensor(t.left_ground, t.right_ground, t.basis, terms)
        return t

    monkeypatch.setattr(species, "species_delta", dropping)
    failing = {r.name: r for r in checks.run_suite("hopf-axioms", max_n=3)}
    assert failing[COMPATIBILITY] == checks.CheckResult(
        COMPATIBILITY, False, "144 failure(s), first: basis m, ([1],[]), a=1, b=2,3"
    )
    assert all(failing[name] == passing[name] for name in passing if name != COMPATIBILITY)


def test_rank_sees_a_fractional_dependence():
    family = [expand_nc("e", pi, 3) for pi in set_partitions(range(1, 4))]
    assert checks._rank(family) == len(family)
    # the first three do not span every word, so a rank that dropped the
    # denominators would count the last member as new
    last = Fraction(1, 2) * family[0] - Fraction(2, 3) * family[1] + Fraction(5, 7) * family[2]
    dependent = family[:3] + [last]
    assert checks._rank(dependent) == len(dependent) - 1
    assert checks._rank([Fraction(1, 3) * family[0], family[0]]) == 1


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


def test_interval_sum_depends_only_on_the_shape():
    # the report evaluates the interval sum at one representative per shape
    for n in range(1, 7):
        top = SetPartition.whole(range(1, n + 1))
        for sigma in set_partitions(range(1, n + 1)):
            rep = checks._consecutive_blocks(sigma)
            assert rep.shape() == sigma.shape() and rep.ground == sigma.ground
            assert all(blk == tuple(range(blk[0], blk[-1] + 1)) for blk in rep.blocks)
            want = x_e_expansion_coefficient(top, sigma)
            assert x_e_expansion_coefficient(top, rep) == want, sigma


def test_conjecture_report_sums_each_interval_once_per_shape(monkeypatch):
    reps = []
    interval_sum = checks.x_e_expansion_coefficient

    def counted(pi, sigma):
        reps.append(sigma)
        return interval_sum(pi, sigma)

    monkeypatch.setattr(checks, "x_e_expansion_coefficient", counted)
    rows = checks.conjecture_report(6)
    assert all(row["internal_agreement"] for row in rows)
    shapes = [lam for n in range(1, 7) for lam in integer_partitions(n)]
    assert sorted(sigma.shape().parts for sigma in reps) == sorted(
        lam.parts for lam in shapes
    )
    assert all(checks._consecutive_blocks(sigma) == sigma for sigma in reps)


def test_conjecture_report_compares_every_coefficient(monkeypatch):
    # a wrong basis-change coefficient at a sigma that is not its shape's
    # representative still breaks the internal agreement of its degree
    convert = checks.convert
    wrong = SetPartition.parse("1,3/2,4")
    assert checks._consecutive_blocks(wrong) != wrong

    def perturbed(expr, target):
        out = convert(expr, target)
        if expr.degrees() == {4}:
            out = out + NCSymExpr("e", {wrong: Fraction(1, 7)})
        return out

    monkeypatch.setattr(checks, "convert", perturbed)
    rows = checks.conjecture_report(5)
    assert [row["internal_agreement"] for row in rows] == [True, True, True, False, True]
