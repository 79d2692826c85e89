from __future__ import annotations

import itertools

import pytest

from rootmult import FormulaParams, Variant, closed_form_dim
from rootmult.formula import (
    binomial,
    count_dependent,
    count_vanishing,
    stars_and_bars,
    total_configs,
)


def params(a, n):
    return FormulaParams(a[0], a[1], n[0], n[1], n[2])


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(3, 0) == 1
    assert binomial(2, -1) == 0
    assert binomial(-1, 0) == 0
    assert binomial(2, 3) == 0


def test_stars_and_bars():
    assert stars_and_bars(2, 4) == 10
    assert stars_and_bars(0, 3) == 1
    assert stars_and_bars(3, 1) == 1
    with pytest.raises(ValueError):
        stars_and_bars(2, 0)
    with pytest.raises(ValueError):
        stars_and_bars(-1, 2)


def test_params_validation():
    with pytest.raises(ValueError, match="oracle"):
        FormulaParams(1, 2, 2, 1, 2)
    with pytest.raises(ValueError):
        FormulaParams(0, 2, 2, 2, 2)
    FormulaParams(3, 1, 2, 2, 2)  # a1 > a2 is allowed


def test_total_configs_examples():
    assert total_configs(params((1, 2), (2, 2, 2))) == 5
    assert total_configs(params((2, 2), (2, 3, 2))) == 27
    assert total_configs(params((1, 1), (2, 2, 2))) == 3


def test_count_dependent_examples():
    p = params((1, 2), (2, 2, 2))
    assert count_dependent(p, Variant.SECTION44) == 3
    assert count_dependent(p, Variant.LEMMA410) == 2
    assert count_dependent(p, Variant.GUARDED) == 1
    q = params((2, 2), (2, 3, 2))
    assert {count_dependent(q, v) for v in Variant} == {6}


def test_count_dependent_accepts_strings_and_rejects_unknown():
    p = params((1, 2), (2, 2, 2))
    assert count_dependent(p, "lemma410") == 2
    with pytest.raises(ValueError):
        count_dependent(p, "fancy")


def test_count_vanishing_examples():
    assert count_vanishing(params((1, 2), (2, 2, 2))) == (1, 0)
    assert count_vanishing(params((2, 2), (2, 3, 2))) == (1, 1)
    assert count_vanishing(params((3, 3), (2, 2, 2))) == (0, 0)


def test_closed_form_dim_showcase():
    b = closed_form_dim(params((1, 2), (2, 2, 2)), Variant.GUARDED)
    assert (b.total, b.dependent, b.vanishing_first, b.vanishing_second) == (5, 1, 1, 0)
    assert (b.first_applied, b.second_applied) == (True, False)
    assert b.dim == 3
    assert closed_form_dim(params((1, 2), (2, 2, 2)), Variant.SECTION44).dim == 1
    assert closed_form_dim(params((1, 2), (2, 2, 2)), Variant.LEMMA410).dim == 2

    for v in Variant:
        b = closed_form_dim(params((2, 2), (2, 3, 2)), v)
        assert (b.total, b.dependent) == (27, 6)
        assert (b.vanishing_first, b.vanishing_second) == (1, 1)
        assert (b.first_applied, b.second_applied) == (True, True)
        assert b.dim == 19


def test_branches_follow_the_label_thresholds():
    # a1 = 1, a2 = 3: thresholds n2 >= 2 and n2 >= 4
    for n2, applied in ((2, (True, False)), (3, (True, False)), (4, (True, True))):
        b = closed_form_dim(FormulaParams(1, 3, 2, n2, 2))
        assert (b.first_applied, b.second_applied) == applied
    # a1 = a2 = 3: single threshold at n2 >= 4
    for n2, applied in ((3, (False, False)), (4, (True, True))):
        b = closed_form_dim(FormulaParams(3, 3, 2, n2, 2))
        assert (b.first_applied, b.second_applied) == applied


def test_swapped_labels_mirror_for_symmetric_variants():
    # exchanging (a1, a2) and (n1, n3) relabels the two ball colors
    for a1, a2, n1, n2, n3 in itertools.product((1, 2, 3), (1, 2, 3), (2, 3), (2, 3), (2, 3)):
        p = FormulaParams(a1, a2, n1, n2, n3)
        q = FormulaParams(a2, a1, n3, n2, n1)
        for v in (Variant.GUARDED, Variant.LEMMA410):
            bp, bq = closed_form_dim(p, v), closed_form_dim(q, v)
            assert bp.dim == bq.dim
            assert bp.total == bq.total
            assert (bp.vanishing_first, bp.vanishing_second) == (
                bq.vanishing_second,
                bq.vanishing_first,
            )


def test_middle_branch_subtracts_the_smaller_label_count():
    # a1 > a2: for a2 + 1 <= n2 < a1 + 1 only the second count applies
    b = closed_form_dim(FormulaParams(3, 1, 2, 2, 2))
    assert (b.first_applied, b.second_applied) == (False, True)
    assert b.dim == b.total - b.dependent - b.vanishing_second


def test_hyperbolic_specialization():
    # (a1, a2) = (1, 2) is the hyperbolic chain; GUARDED is the default variant
    assert closed_form_dim(FormulaParams(1, 2, 2, 2, 2)).dim == 3
    for n in itertools.product((2, 3, 4), repeat=3):
        assert closed_form_dim(FormulaParams(1, 2, *n)) == closed_form_dim(
            FormulaParams(1, 2, *n), Variant.GUARDED
        )


def test_breakdowns_are_deterministic():
    p = params((2, 3), (3, 4, 2))
    assert closed_form_dim(p) == closed_form_dim(p)
