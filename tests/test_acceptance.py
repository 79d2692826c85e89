"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Criteria 7 and 9 are reports: they must complete and record their findings,
and only their non-negotiable parts (completion, oracle agreement) are
asserted.  Criterion 8 asserts three counting identities; the trivial-count
identity is expected to fail and documents a genuine defect of the closed
form, see the printed adjudication.
"""
from __future__ import annotations

import itertools
import random
import time

import pytest

from rootmult import (
    MultiplicityTable,
    SerreQuotient,
    closed_form_dim,
    free_lie_dim,
    parse_bracket,
    rank3_chain,
    to_standard_form,
)
from rootmult.cli import CSV_HEADER, main as cli_main
from rootmult.formula import VARIANTS, interval_counts
from rootmult.freelie import (
    expand_combination,
    expand_tensor,
    weight_of,
)

from conftest import (
    Params,
    binomial,
    compositions,
    enumerate_configs,
    expand_tuple,
    in_relation_ideal,
    independent_rank_check,
    is_dependent_pattern,
    is_trivial_pattern,
    leaf_count,
    matrix_rank,
    poly_sum,
    random_expr,
    standard_tuples_of_weight,
    weights_of_height,
)

CHAINS = ((1, 1), (1, 2), (2, 2))


def report(line: str) -> None:
    print(line, flush=True)


def test_ac01_rewriter_soundness():
    rng = random.Random(20240229)
    start = time.monotonic()
    for _ in range(200):
        expr = random_expr(rng, rng.randint(1, 8), rank=3)
        combo = to_standard_form(expr)
        assert expand_combination(combo) == expand_tensor(expr), expr
        for t in combo:
            assert len(t) == leaf_count(expr)
    elapsed = time.monotonic() - start
    report(f"AC-01 PASS rewriter soundness: 200 random expressions, {elapsed:.2f}s")
    assert elapsed <= 10.0


def test_ac02_witt_spanning():
    start = time.monotonic()
    checked = 0
    for lam in weights_of_height(7):
        rows = [expand_tuple(t).coeffs for t in standard_tuples_of_weight(lam)]
        assert matrix_rank(rows) == free_lie_dim(lam), lam
        checked += 1
    elapsed = time.monotonic() - start
    report(f"AC-02 PASS Witt vs span rank: {checked} weights of height <= 7, {elapsed:.1f}s")
    assert elapsed <= 120.0


def test_ac03_oracle_equivalence():
    start = time.monotonic()
    mismatches = []
    checked = 0
    for a1, a2 in CHAINS:
        A = rank3_chain(a1, a2)
        table = MultiplicityTable(A)
        engine = SerreQuotient(A)
        for lam in weights_of_height(8):
            p = table.multiplicity(lam)
            q = engine.multiplicity(lam)
            checked += 1
            if p != q:
                mismatches.append(((a1, a2), lam, p, q))
    elapsed = time.monotonic() - start
    status = "PASS" if not mismatches else "FAIL"
    report(
        f"AC-03 {status} oracle equivalence: {checked} weight/algebra pairs "
        f"to height 8, {len(mismatches)} mismatches, {elapsed:.1f}s"
    )
    assert not mismatches, mismatches[:5]
    assert elapsed <= 600.0


def test_ac04_finite_type_exactness():
    table = MultiplicityTable(rank3_chain(1, 1))
    roots = {
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1), (1, 1, 1),
    }
    for lam in weights_of_height(6):
        expected = 1 if lam in roots else 0
        assert table.multiplicity(lam) == expected, lam
    report("AC-04 PASS finite type: multiplicity 1 exactly on the six A3 positive roots")


def test_ac05_stars_and_bars_brute_force():
    # n balls in l boxes: C(n + l - 1, l - 1)
    for n in range(7):
        for l in range(1, 7):
            enumerated = sum(1 for _ in compositions(n, l))
            assert enumerated == binomial(n + l - 1, l - 1), (n, l)
    assert binomial(2 + 4 - 1, 4 - 1) == 10
    report("AC-05 PASS stars and bars: enumeration matches for 0<=n<=6, 1<=l<=6; (2,4)=10")


def test_ac06_formula_arithmetic():
    counts = interval_counts(1, 2, 2, 2, 2)
    assert counts.raw == 5
    assert (counts.vanishing_first, counts.vanishing_second) == (1, 0)
    expected = {"section44": (3, 1), "lemma410": (2, 2), "guarded": (1, 3)}
    for variant, (b, dim) in expected.items():
        assert counts.dependent(variant) == b, variant
        assert closed_form_dim(1, 2, 2, 2, 2, variant) == dim, variant

    counts = interval_counts(2, 2, 2, 3, 2)
    assert counts.raw == 27
    assert (counts.vanishing_first, counts.vanishing_second) == (1, 1)
    for variant in VARIANTS:
        assert counts.dependent(variant) == 6
        assert closed_form_dim(2, 2, 2, 3, 2, variant) == 19
    report("AC-06 PASS closed-form arithmetic: (1,2)@(2,2,2) dims 1/2/3; (2,2)@(2,3,2) dim 19")


def test_ac07_worked_example_report():
    lhs = parse_bracket("[[e1,e2],[[e1,e3],[e2,e3]]]")
    rhs_terms = [
        "[e1,[e2,[e2,[e3,[e3,e1]]]]]",
        "[e2,[e1,[e2,[e3,[e1,e3]]]]]",
        "[e1,[e2,[e3,[e2,[e1,e3]]]]]",
        "[e2,[e1,[e3,[e2,[e3,e1]]]]]",
    ]
    lam = weight_of(lhs, 3)
    assert lam == (2, 2, 2)
    lhs_poly = expand_tensor(lhs)
    rhs_poly = poly_sum((1, expand_tensor(parse_bracket(term))) for term in rhs_terms)

    free_equal = lhs_poly == rhs_poly
    quotient_equal = in_relation_ideal(
        rank3_chain(1, 2), lam, poly_sum([(1, lhs_poly), (-1, rhs_poly)])
    )

    report(
        "AC-07 REPORT worked six-leaf identity: "
        f"free-Lie equality {'PASS' if free_equal else 'FAIL'}; "
        f"equality modulo the relation ideal {'PASS' if quotient_equal else 'FAIL'}"
    )
    # report criterion: both checks must complete; outcomes are recorded above
    assert isinstance(free_equal, bool) and isinstance(quotient_equal, bool)


def test_ac08_combinatorial_identities():
    start = time.monotonic()
    total_bad = []
    dependent_bad = []
    trivial_bad = []
    points = 0
    for a1, a2 in itertools.product((1, 2, 3), repeat=2):
        for n in itertools.product((2, 3, 4), repeat=3):
            points += 1
            p = Params(a1, a2, *n)
            counts = interval_counts(*p)
            configs = enumerate_configs(p)
            if len(configs) != counts.raw:
                total_bad.append(((a1, a2), n))
            dep = sum(is_dependent_pattern(c) for c in configs)
            if dep != counts.dependent("guarded"):
                dependent_bad.append(((a1, a2), n))
            triv = sum(is_trivial_pattern(c) for c in configs)
            v1, v2 = counts.vanishing_first, counts.vanishing_second
            closed = (v1 if p.n2 >= 1 + a1 else 0) + (v2 if p.n2 >= 1 + a2 else 0)
            if triv != closed:
                trivial_bad.append(((a1, a2), n, triv, closed))
    elapsed = time.monotonic() - start
    report(
        f"AC-08 {'PASS' if not total_bad else 'FAIL'} configuration count identity: "
        f"{len(total_bad)} mismatches"
    )
    report(
        f"AC-08 {'PASS' if not dependent_bad else 'FAIL'} dependent count identity: "
        f"{len(dependent_bad)} mismatches"
    )
    report(
        f"AC-08 {'PASS' if not trivial_bad else 'FAIL'} trivial count identity: "
        f"{len(trivial_bad)} of {points} grid points differ "
        f"(closed form pools the two ball colors into one stars-and-bars; "
        f"the pattern set it subtracts has the per-color product count; "
        f"first examples: {trivial_bad[:3]})"
    )
    assert elapsed <= 60.0
    assert not total_bad
    assert not dependent_bad
    assert not trivial_bad, (
        f"trivial-pattern count differs from the closed-form count at "
        f"{len(trivial_bad)} grid points; the closed form undercounts whenever "
        f"n2 exceeds a_i + 1 on an applied side (adjudicated defect, see ledger)"
    )


def _read_rows(path) -> list[dict[str, str]]:
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_ac09_comparison_reports(tmp_path):
    start = time.monotonic()
    outcomes = []
    for (a1, a2), rng in (((1, 2), "2..4"), ((2, 2), "2..3")):
        out = tmp_path / f"report_{a1}{a2}.csv"
        code = cli_main(
            [
                "compare",
                "--gcm",
                f"{a1},{a2}",
                "--range",
                rng,
                "--out",
                str(out),
            ]
        )
        assert code == 0, f"compare failed for ({a1},{a2})"
        rows = _read_rows(out)
        lo, hi = (int(v) for v in rng.split(".."))
        assert len(rows) == (hi - lo + 1) ** 3
        agree = {v: 0 for v in ("formula_section44", "formula_lemma410", "formula_guarded")}
        for row in rows:
            height = int(row["n1"]) + int(row["n2"]) + int(row["n3"])
            peterson = int(row["peterson"])  # always present
            if height <= 10:
                assert row["quotient"] != "skipped"
                assert int(row["quotient"]) == peterson  # also enforced inside compare
            else:
                assert row["quotient"] == "skipped"
            assert row["agree_guarded_peterson"] in ("true", "false")
            for col in agree:
                if int(row[col]) == peterson:
                    agree[col] += 1
        outcomes.append(((a1, a2), len(rows), agree))
    elapsed = time.monotonic() - start
    report(f"AC-09 REPORT comparison grids complete in {elapsed:.1f}s; oracle columns agree")
    for (a1, a2), nrows, agree in outcomes:
        summary = ", ".join(f"{k.split('_')[1]} {v}/{nrows}" for k, v in agree.items())
        report(f"AC-09 REPORT ({a1},{a2}): closed-form rows matching the oracles: {summary}")


@pytest.mark.slow
def test_ac10_rank_sandwich():
    violations = []
    short = []  # span rank differs from the multiplicity
    points = 0
    for a1, a2 in itertools.product((1, 2, 3), repeat=2):
        A = rank3_chain(a1, a2)
        engine = SerreQuotient(A)
        for n in itertools.product((2, 3, 4), repeat=3):
            if sum(n) > 8:
                continue
            points += 1
            check = independent_rank_check(A, Params(a1, a2, *n), engine)
            if check.rank_in_quotient > check.oracle_mult:
                violations.append(((a1, a2), n, check))
            if check.rank_in_quotient != check.oracle_mult:
                short.append(((a1, a2), n, check))
    status = "PASS" if not violations else "FAIL"
    report(f"AC-10 {status} rank sandwich: span rank <= multiplicity on every grid point")
    status = "PASS" if not short else "FAIL"
    report(
        f"AC-10 {status} spanning: span rank = multiplicity on "
        f"{points - len(short)} of {points} grid points"
    )
    assert not violations, violations[:5]
    assert not short, short[:5]

    # the paper's spanning claim to height 12 on the two chains where it is cheap
    start = time.monotonic()
    deep_short = []
    deep_points = 0
    for a1, a2 in ((1, 2), (2, 2)):
        A = rank3_chain(a1, a2)
        engine = SerreQuotient(A, height_cap=12)
        for n in itertools.product((2, 3, 4, 5), repeat=3):
            if sum(n) > 12:
                continue
            deep_points += 1
            check = independent_rank_check(A, Params(a1, a2, *n), engine)
            if check.rank_in_quotient != check.oracle_mult:
                deep_short.append(((a1, a2), n, check))
    elapsed = time.monotonic() - start
    status = "PASS" if not deep_short else "FAIL"
    report(
        f"AC-10 {status} spanning to height 12 on (1,2) and (2,2): span rank = multiplicity "
        f"on {deep_points - len(deep_short)} of {deep_points} points, {elapsed:.1f}s"
    )
    assert not deep_short, deep_short[:5]


def test_ac11_performance_floor():
    table = MultiplicityTable(rank3_chain(1, 2))
    start = time.monotonic()
    value = table.multiplicity((13, 14, 13))
    recurrence_time = time.monotonic() - start
    assert recurrence_time <= 5.0

    engine = SerreQuotient(rank3_chain(1, 2))
    start = time.monotonic()
    quotient_value = engine.multiplicity((4, 3, 3))
    quotient_time = time.monotonic() - start
    assert quotient_time <= 300.0
    report(
        f"AC-11 PASS performance floor: height-40 recurrence {recurrence_time:.2f}s "
        f"(mult {value}); height-10 quotient {quotient_time:.1f}s (mult {quotient_value})"
    )
