from __future__ import annotations

import ast
import itertools
import re
import sys
import time
from pathlib import Path

import pytest

import rootmult.formula
from rootmult import closed_form_dim
from rootmult.cli import count_canonical
from rootmult.formula import VARIANTS, interval_counts

from conftest import Params, binomial, enumerate_configs, params, stars_and_bars


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


SMALL_COEFFICIENT = (
    "closed form requires n1, n2, n3 >= 2; "
    "use the recurrence or quotient oracle for smaller coefficients"
)


@pytest.mark.parametrize(
    "fn",
    [interval_counts, closed_form_dim, count_canonical],
    ids=["interval_counts", "closed_form_dim", "count_canonical"],
)
@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 2, 2, 1, 2), SMALL_COEFFICIENT),
        ((0, 2, 2, 2, 2), "chain labels must be >= 1, got (0, 2)"),
        # operator.index refuses a float or a string rather than truncating it
        ((1.5, 2, 2, 3, 2), "closed-form parameters must be integers, got (1.5, 2, 2, 3, 2)"),
        (("1", 2, 2, 3, 2), "closed-form parameters must be integers, got ('1', 2, 2, 3, 2)"),
        # the checks run in this order: integers, then labels, then coefficients
        ((0, 2, 1.5, 3, 2), "closed-form parameters must be integers, got (0, 2, 1.5, 3, 2)"),
        ((0, 2, 2, 1, 2), "chain labels must be >= 1, got (0, 2)"),
    ],
    ids=["small", "label", "float", "string", "float-first", "label-first"],
)
def test_params_validation(fn, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*args)


def test_total_configs_examples():
    assert interval_counts(1, 2, 2, 2, 2).raw == 5
    assert interval_counts(2, 2, 2, 3, 2).raw == 27
    assert interval_counts(1, 1, 2, 2, 2).raw == 3


def list_sum_total(p):
    """The rectangle double sum as a product of two explicit sums less the (0, 0) corner."""
    ones = [binomial(p.n1 + p.n2 - i - 2, p.n2 - 2) for i in range(min(p.a1, p.n1) + 1)]
    threes = [binomial(p.n2 + p.n3 - j - 2, p.n2 - 2) for j in range(min(p.a2, p.n3) + 1)]
    return sum(ones) * sum(threes) - ones[0] * threes[0]


def test_total_configs_closes_the_rectangle_sum():
    # the hockey-stick form against the explicit sums, labels past every n_i included
    labels = (1, 2, 3, 4, 5, 10**12)
    for a1, a2, *n in itertools.product(labels, labels, *[range(2, 12)] * 3):
        p = params((a1, a2), n)
        assert interval_counts(*p).raw == list_sum_total(p), (a1, a2, n)
    # and the double sum over first intervals (i, j), term by term, on a smaller box
    for a1, a2, *n in itertools.product(labels, labels, *[range(2, 7)] * 3):
        p = params((a1, a2), n)
        rectangle = sum(
            binomial(p.n1 + p.n2 - i - 2, p.n2 - 2) * binomial(p.n2 + p.n3 - j - 2, p.n2 - 2)
            for i in range(min(a1, p.n1) + 1)
            for j in range(min(a2, p.n3) + 1)
            if (i, j) != (0, 0)
        )
        assert interval_counts(*p).raw == rectangle, (a1, a2, n)
    # and the enumerated configurations
    for a1, a2, *n in itertools.product(labels, labels, *[range(2, 4)] * 3):
        p = params((a1, a2), n)
        assert interval_counts(*p).raw == len(enumerate_configs(p)), (a1, a2, n)


def test_huge_labels_cost_no_more_than_the_weight():
    # first-interval contents past n1 or n3 are zero binomials, so a label far
    # above the weight neither changes a count nor lengthens the loop
    for n in ((2, 2, 2), (3, 4, 2), (5, 3, 4)):
        start = time.monotonic()
        huge = params((10**12, 2), n), params((2, 10**12), n), params((10**12, 10**12), n)
        values = [interval_counts(*p) for p in huge]
        assert time.monotonic() - start < 1.0
        small = params((10**3, 2), n), params((2, 10**3), n), params((10**3, 10**3), n)
        assert values == [interval_counts(*p) for p in small]


def test_count_dependent_examples():
    p = interval_counts(1, 2, 2, 2, 2)
    assert p.dependent("section44") == p.dependent_section44 == 3
    assert p.dependent("lemma410") == p.dependent_lemma410 == 2
    assert p.dependent("guarded") == p.dependent_guarded == 1
    q = interval_counts(2, 2, 2, 3, 2)
    assert {q.dependent(v) for v in VARIANTS} == {6}


def test_count_dependent_accepts_strings_and_rejects_unknown():
    counts = interval_counts(1, 2, 2, 2, 2)
    assert counts.dependent("lemma410") == 2
    # an unknown variant is refused, naming the three
    message = "unknown variant 'best' (choose from section44, lemma410, guarded)"
    for call in (
        lambda: counts.dependent("best"),
        lambda: counts.dim("best"),
        lambda: closed_form_dim(1, 2, 2, 2, 2, variant="best"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def vanishing(p):
    counts = interval_counts(*p)
    return counts.vanishing_first, counts.vanishing_second


def test_count_vanishing_examples():
    assert vanishing(params((1, 2), (2, 2, 2))) == (1, 0)
    assert vanishing(params((2, 2), (2, 3, 2))) == (1, 1)
    assert vanishing(params((3, 3), (2, 2, 2))) == (0, 0)


def test_closed_form_dim_showcase():
    c = interval_counts(1, 2, 2, 2, 2)
    assert (c.raw, c.dependent_guarded, c.vanishing_first, c.vanishing_second) == (5, 1, 1, 0)
    assert closed_form_dim(1, 2, 2, 2, 2, "guarded") == c.dim() == 3
    assert closed_form_dim(1, 2, 2, 2, 2, "section44") == 1
    assert closed_form_dim(1, 2, 2, 2, 2, "lemma410") == 2

    c = interval_counts(2, 2, 2, 3, 2)
    assert (c.raw, c.vanishing_first, c.vanishing_second) == (27, 1, 1)
    for v in VARIANTS:
        assert c.dependent(v) == 6
        assert closed_form_dim(2, 2, 2, 3, 2, v) == c.dim(v) == 19


def applied(p):
    """Which vanishing counts the closed form subtracts: a count that applies is a binomial >= 1."""
    counts = interval_counts(*p)
    return counts.vanishing_first > 0, counts.vanishing_second > 0


def test_branches_follow_the_label_thresholds():
    # a1 = 1, a2 = 3: thresholds n2 >= 2 and n2 >= 4
    for n2, expected in ((2, (True, False)), (3, (True, False)), (4, (True, True))):
        assert applied(Params(1, 3, 2, n2, 2)) == expected
    # a1 = a2 = 3: single threshold at n2 >= 4
    for n2, expected in ((3, (False, False)), (4, (True, True))):
        assert applied(Params(3, 3, 2, n2, 2)) == expected


def test_chain_reversal_mirrors_the_interval_model():
    # reversing the chain, (a1, a2, n1, n2, n3) -> (a2, a1, n3, n2, n1), exchanges
    # the two ball colours: every count the model defines by colour is unchanged
    # and the two vanishing counts swap; section44's dependent shape is not
    # symmetric in the colours, so it changes
    section44_differs = 0
    for a1, a2, n1, n2, n3 in itertools.product(range(1, 6), range(1, 6), *[range(2, 8)] * 3):
        p = interval_counts(a1, a2, n1, n2, n3)
        q = interval_counts(a2, a1, n3, n2, n1)
        for field in ("raw", "dependent_lemma410", "dependent_guarded", "trivial"):
            assert getattr(p, field) == getattr(q, field), (field, a1, a2, n1, n2, n3)
        assert p.canonical == q.canonical, (a1, a2, n1, n2, n3)
        assert (p.vanishing_first, p.vanishing_second) == (q.vanishing_second, q.vanishing_first)
        section44_differs += p.dependent_section44 != q.dependent_section44
    assert section44_differs > 0


def test_middle_branch_subtracts_the_smaller_label_count():
    # a1 > a2: for a2 + 1 <= n2 < a1 + 1 only the second count applies
    p = Params(3, 1, 2, 2, 2)  # a1 > a2 is allowed
    assert applied(p) == (False, True)
    c = interval_counts(*p)
    assert closed_form_dim(*p) == c.raw - c.dependent_guarded - c.vanishing_second


def test_hyperbolic_specialization():
    # (a1, a2) = (1, 2) is the hyperbolic chain; "guarded" is the default variant
    assert closed_form_dim(1, 2, 2, 2, 2) == 3
    for n in itertools.product((2, 3, 4), repeat=3):
        assert closed_form_dim(1, 2, *n) == closed_form_dim(1, 2, *n, "guarded")
        counts = interval_counts(1, 2, *n)
        assert (counts.dependent(), counts.dim()) == (
            counts.dependent_guarded,
            counts.dim("guarded"),
        )


def test_breakdowns_are_deterministic():
    p = params((2, 3), (3, 4, 2))
    assert interval_counts(*p) == interval_counts(*p)
    assert closed_form_dim(*p) == closed_form_dim(*p)


def test_formula_imports_only_the_standard_library():
    # the closed form stays independent of both oracles: nothing of rootmult
    # or outside the standard library is imported by the module
    tree = ast.parse(Path(rootmult.formula.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    outside = [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside
