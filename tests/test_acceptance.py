"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The experiments themselves live in lowdisc.acceptance so the command line
(`lowdisc reproduce <n>`) runs exactly the code being tested here.
"""

import re

import pytest

from lowdisc.acceptance import ALL_CRITERIA, format_result_line, run_criterion

# each criterion's detail line, so a changed count or figure fails here
DETAILS = {
    1: "base code valid; 100/100 single-digit corruptions rejected",
    2: (
        "half-power family agrees with exhaustive search for all odd q <= 49; "
        "linear maps complete exactly for a not in {0,-1} up to q=31"
    ),
    3: "60 random permutation polynomials match the theory booleans",
    4: "500 random monic polynomials (deg <= 12, p in {2,3}) match trial division",
    5: "15580 (q,a,b,s) combinations, 335500 prefix inequalities, 0 violations",
    6: "witnesses found in all 42 rows (2^m c=3; 3^m, 5^m c=5)",
    7: "t=0 for 16 nets and 48 sequence prefix blocks",
    8: "200 random generating-matrix sets agree between both routes",
    9: (
        "closed form matches on 100 sets; sampling never exceeds exact D*; "
        "N*D*/log N stable (early max 0.721, late max 0.580)"
    ),
    10: "20 random rules within tail bound 0.0172; Fibonacci P_2 falls from 0.0897 to 0.000077",
    11: "README documents all four classes of excluded results",
}


@pytest.mark.parametrize("cid", sorted(ALL_CRITERIA))
def test_criterion(cid, capsys):
    result = run_criterion(cid)
    with capsys.disabled():
        print(format_result_line(result))
    assert result.passed, result.detail
    assert result.detail == DETAILS[cid]


def test_registry_is_complete():
    assert sorted(ALL_CRITERIA) == list(range(1, 12))
    assert sorted(DETAILS) == sorted(ALL_CRITERIA)
    names = [name for name, _, _ in ALL_CRITERIA.values()]
    assert len(set(names)) == len(names)


def test_a_criterion_over_its_budget_fails(monkeypatch):
    name, _, fn = ALL_CRITERIA[1]
    monkeypatch.setitem(ALL_CRITERIA, 1, (name, 0, fn))
    result = run_criterion(1)
    assert result.passed is False
    head, suffix = result.detail.split(" -- ")
    assert head == DETAILS[1]
    assert re.fullmatch(r"but took \d+\.\ds, over the 0s budget", suffix)
