from __future__ import annotations

import itertools

import pytest

from rootmult import MultiplicityTable, OracleScaleError, SerreQuotient
from rootmult.formula import interval_counts

from conftest import (
    IntervalConfig,
    canonical_configs,
    compositions,
    config_to_tuple,
    enumerate_configs,
    independent_rank_check,
    is_dependent_pattern,
    is_trivial_pattern,
    params,
)

GRID_LABELS = tuple(itertools.product((1, 2, 3), repeat=2))
GRID_WEIGHTS = tuple(itertools.product((2, 3, 4), repeat=3))


def config(a, n, intervals):
    return IntervalConfig(tuple(intervals), params(a, n))


def test_compositions():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions(3, 1)) == [(3,)]
    assert list(compositions(1, 0)) == []


def test_enumerate_showcase():
    cfgs = enumerate_configs(params((1, 2), (2, 2, 2)))
    assert len(cfgs) == 5
    assert [c.first for c in cfgs] == [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    # remainder forced into the single second interval
    assert all(sum(i for i, _ in c.intervals) == 2 for c in cfgs)
    assert len(enumerate_configs(params((1, 1), (2, 2, 2)))) == 3


def test_enumeration_is_deterministic():
    p = params((2, 2), (3, 3, 3))
    assert [c.intervals for c in enumerate_configs(p)] == [
        c.intervals for c in enumerate_configs(p)
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        config((1, 2), (2, 2, 2), [(0, 0), (2, 2)])  # empty first interval
    with pytest.raises(ValueError):
        config((1, 2), (2, 2, 2), [(2, 0), (0, 2)])  # first interval over a1
    with pytest.raises(ValueError):
        config((1, 2), (2, 2, 2), [(1, 1), (0, 1)])  # ball totals off


def test_trivial_pattern_examples():
    assert is_trivial_pattern(config((1, 2), (2, 2, 2), [(1, 0), (1, 2)]))
    assert not is_trivial_pattern(config((1, 2), (2, 2, 2), [(0, 2), (2, 0)]))
    assert is_trivial_pattern(config((2, 2), (2, 3, 2), [(1, 0), (0, 0), (1, 2)]))
    # run of empty intervals missing
    assert not is_trivial_pattern(config((2, 2), (2, 3, 2), [(1, 0), (1, 0), (0, 2)]))
    # n2 too small for the required run
    assert not is_trivial_pattern(config((1, 2), (2, 2, 2), [(0, 1), (2, 1)]))


def test_dependent_pattern_examples():
    assert is_dependent_pattern(config((1, 2), (2, 2, 2), [(0, 2), (2, 0)]))
    assert not is_dependent_pattern(config((1, 2), (2, 2, 2), [(1, 1), (1, 1)]))
    assert is_dependent_pattern(config((2, 2), (2, 3, 2), [(2, 0), (0, 0), (0, 2)]))


def test_count_canonical_showcase():
    c = interval_counts(1, 2, 2, 2, 2)
    assert (c.raw, c.trivial, c.dependent_guarded, c.canonical) == (5, 1, 1, 3)
    c = interval_counts(2, 2, 2, 3, 2)
    assert (c.raw, c.trivial, c.dependent_guarded, c.canonical) == (27, 2, 6, 19)


def test_config_to_tuple_layout():
    assert config_to_tuple(config((1, 2), (2, 2, 2), [(1, 0), (1, 2)])) == (3, 3, 1, 2, 1, 2)
    assert config_to_tuple(config((1, 2), (2, 2, 2), [(0, 1), (2, 1)])) == (3, 1, 1, 2, 3, 2)
    tuples = [config_to_tuple(c) for c in enumerate_configs(params((1, 2), (2, 2, 2)))]
    assert all(t[-1] == 2 and len(t) == 6 for t in tuples)


def test_trivial_count_vs_closed_form_characterized():
    """The closed-form vanishing count pools the two ball colors into one
    stars-and-bars, so it matches the enumerated pattern count exactly when
    each applied side leaves a single interval for the remainder (n2 = a_i + 1);
    with more intervals it strictly undercounts.  This is the adjudicated
    discrepancy surfaced by the acceptance report.
    """
    for a, n in itertools.product(GRID_LABELS, GRID_WEIGHTS):
        p = params(a, n)
        enumerated = sum(is_trivial_pattern(c) for c in enumerate_configs(p))
        counts = interval_counts(*p)
        v1, v2 = counts.vanishing_first, counts.vanishing_second
        closed = (v1 if p.n2 >= 1 + p.a1 else 0) + (v2 if p.n2 >= 1 + p.a2 else 0)
        # each applied side matches only when one interval absorbs the remainder
        if p.n2 <= min(p.a1, p.a2) + 1:
            assert enumerated == closed, (a, n)
        else:
            assert enumerated > closed, (a, n)


def test_rank_check_showcase(chain12, engine12, chain22):
    check = independent_rank_check(chain12, params((1, 2), (2, 2, 2)), engine12)
    assert check.canonical_count == 3
    assert check.rank_in_quotient <= check.oracle_mult
    assert check.oracle_mult == 1
    check = independent_rank_check(chain22, params((2, 2), (2, 3, 2)), SerreQuotient(chain22))
    assert check.rank_in_quotient == check.oracle_mult == 10


def test_rank_check_finite_type(chain11):
    engine = SerreQuotient(chain11)
    check = independent_rank_check(chain11, params((1, 1), (2, 2, 2)), engine)
    assert check.oracle_mult == 0
    assert check.rank_in_quotient == 0


def test_rank_check_takes_the_multiplicity_from_the_recurrence(chain12, monkeypatch):
    # rank = mult is only a check when the two numbers come from different oracles
    engine = SerreQuotient(chain12)
    monkeypatch.setattr(engine, "multiplicity", lambda lam: pytest.fail("quotient mult asked"))
    check = independent_rank_check(chain12, params((1, 2), (2, 3, 2)), engine)
    assert check.oracle_mult == MultiplicityTable(chain12).multiplicity((2, 3, 2))
    assert check.rank_in_quotient == check.oracle_mult


def test_rank_check_respects_cap(chain12):
    engine = SerreQuotient(chain12, height_cap=5)
    with pytest.raises(OracleScaleError):
        independent_rank_check(chain12, params((1, 2), (2, 2, 2)), engine)


def test_rank_sandwich_small_grid(chain12, engine12):
    for n in itertools.product((2, 3), repeat=3):
        check = independent_rank_check(chain12, params((1, 2), n), engine12)
        assert check.rank_in_quotient <= check.oracle_mult, n


@pytest.mark.slow
def test_canonical_configs_match_counts():
    """The closed-form counts equal the enumerated classification, term by term.

    The enumeration is the reference for the raw count, the guarded dependent
    count and the canonical count; no configuration is both trivial and
    dependent, so the two subtractions never remove one twice.
    """
    for a, n in itertools.product(GRID_LABELS, itertools.product((2, 3, 4, 5), repeat=3)):
        p = params(a, n)
        configs = enumerate_configs(p)
        trivial = [is_trivial_pattern(c) for c in configs]
        dependent = [is_dependent_pattern(c) for c in configs]
        assert not any(t and d for t, d in zip(trivial, dependent)), (a, n)
        canonical = sum(not t and not d for t, d in zip(trivial, dependent))
        c = interval_counts(*p)
        expected = (len(configs), sum(trivial), sum(dependent), canonical)
        assert (c.raw, c.trivial, c.dependent_guarded, c.canonical) == expected, (a, n)
    p = params((2, 2), (2, 3, 2))
    assert len(canonical_configs(p)) == interval_counts(*p).canonical
