from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmult import MultiplicityTable, SerreQuotient, rank3_chain
from rootmult.gcm import GeneralizedCartanMatrix

from conftest import REVERSIBLE_CHAINS, weights_up_to

# the chains the Weyl-invariance test samples; (2, 2) is its own reversal
WEYL_CHAINS = REVERSIBLE_CHAINS + ((2, 2),)

A3_POSITIVE_ROOTS = {
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (0, 1, 1),
    (1, 1, 1),
}


def weights_of_height(limit: int):
    for n1 in range(limit + 1):
        for n2 in range(limit + 1):
            for n3 in range(limit + 1):
                if 1 <= n1 + n2 + n3 <= limit:
                    yield (n1, n2, n3)


def test_base_cases(chain11, chain12, chain22):
    for A in (chain11, chain12, chain22):
        table = MultiplicityTable(A)
        for simple in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert table.multiplicity(simple) == 1


def test_example_values(chain11, chain12):
    assert MultiplicityTable(chain11).multiplicity((1, 1, 0)) == 1
    table = MultiplicityTable(chain12)
    assert table.multiplicity((2, 1, 0)) == 0
    assert table.multiplicity((1, 1, 1)) == 1


def test_zero_left_factor_weights_are_not_roots(chain12):
    # (lam, lam) = 2 ht(lam) at these weights; multiplicity must be 0
    table = MultiplicityTable(chain12)
    for lam in ((1, 0, 1), (2, 1, 0), (2, 2, 0)):
        assert table.multiplicity(lam) == 0
    # the c-value still carries the divisor contribution
    assert table.c_value((2, 2, 0)) == Fraction(1, 2)


def test_finite_type_root_system(chain11):
    table = MultiplicityTable(chain11)
    for lam in weights_of_height(6):
        expected = 1 if lam in A3_POSITIVE_ROOTS else 0
        assert table.multiplicity(lam) == expected, lam


def test_agrees_with_quotient_small(chain11, chain12, chain22):
    for A in (chain11, chain12, chain22):
        table = MultiplicityTable(A)
        engine = SerreQuotient(A)
        for lam in weights_of_height(5):
            assert table.multiplicity(lam) == engine.multiplicity(lam), (A.chain, lam)


def test_fresh_tables_are_deterministic(chain12):
    first = MultiplicityTable(chain12)
    second = MultiplicityTable(chain12)
    values = {lam: first.multiplicity(lam) for lam in weights_of_height(6)}
    # second table queried in a different order
    for lam in reversed(list(weights_of_height(6))):
        assert second.multiplicity(lam) == values[lam]
    assert first.c_value((3, 3, 3)) == second.c_value((3, 3, 3))


def test_tables_are_bound_to_one_algebra(chain12, chain22):
    lam = (2, 3, 2)
    v12 = MultiplicityTable(chain12).multiplicity(lam)
    v22 = MultiplicityTable(chain22).multiplicity(lam)
    assert v12 != v22  # distinct algebras, distinct caches


def test_validation(chain12):
    table = MultiplicityTable(chain12)
    with pytest.raises(ValueError):
        table.multiplicity((0, 0, 0))
    with pytest.raises(ValueError):
        table.multiplicity((1, 1))
    with pytest.raises(ValueError):
        MultiplicityTable(GeneralizedCartanMatrix(((2, -1), (-2, 2))))


def test_other_ranks(chain12):
    a2 = GeneralizedCartanMatrix(((2, -1), (-1, 2)))
    table = MultiplicityTable(a2)
    expected = {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 0, (2, 2): 0, (3, 2): 0}
    for lam, mult in expected.items():
        assert table.multiplicity(lam) == mult, lam
    a4 = GeneralizedCartanMatrix(
        (
            (2, -1, 0, 0),
            (-1, 2, -1, 0),
            (0, -1, 2, -1),
            (0, 0, -1, 2),
        )
    )
    table4 = MultiplicityTable(a4)
    assert table4.multiplicity((1, 1, 1, 1)) == 1
    assert table4.multiplicity((1, 0, 1, 0)) == 0
    assert table4.multiplicity((1, 2, 1, 0)) == 0


def test_inconsistent_cache_fails_loudly(chain12):
    from rootmult import RecurrenceError

    table = MultiplicityTable(chain12)
    table.multiplicity((1, 1, 0))
    # double one cached c-value that only the weight (2, 1, 0) consumes; its
    # left factor vanishes there, so a nonzero right-hand side must raise,
    # never report a silent 0
    table._cnum[(1, 1, 0)] *= 2
    with pytest.raises(RecurrenceError, match="singular"):
        table.multiplicity((2, 1, 0))


def test_c_value_of_primitive_weight_is_the_multiplicity(chain12):
    table = MultiplicityTable(chain12)
    # gcd 1: no divisor corrections
    assert table.c_value((1, 2, 1)) == table.multiplicity((1, 2, 1))
    assert table.c_value((2, 3, 2)) == table.multiplicity((2, 3, 2))


def test_denominator_growth_keeps_values(chain12):
    table = MultiplicityTable(chain12)
    small = table.multiplicity((1, 1, 1))
    assert table.c_value((2, 2, 2)) == Fraction(
        table.multiplicity((2, 2, 2)) * 2 + small, 2
    )
    # a taller query rescales the internal denominator; cached values survive
    table.multiplicity((4, 5, 4))
    assert table.multiplicity((1, 1, 1)) == small
    assert table.c_value((2, 2, 2)) == Fraction(
        table.multiplicity((2, 2, 2)) * 2 + small, 2
    )


def test_short_query_after_tall_query(chain12):
    # heights out of order must not disturb the shared denominator
    table = MultiplicityTable(chain12)
    tall = table.multiplicity((3, 3, 3))
    assert table.multiplicity((5, 0, 0)) == 0
    assert table.multiplicity((1, 2, 1)) == MultiplicityTable(chain12).multiplicity((1, 2, 1))
    assert table.multiplicity((3, 3, 3)) == tall


@pytest.fixture(scope="module")
def chain_tables():
    return {
        pair: MultiplicityTable(rank3_chain(*pair))
        for a1, a2 in WEYL_CHAINS
        for pair in ((a1, a2), (a2, a1))
    }


@settings(max_examples=200, deadline=None)
@given(chain=st.sampled_from(REVERSIBLE_CHAINS), weight=weights_up_to(14))
def test_chain_reversal(chain_tables, chain, weight):
    # reversing the chain relabels the simple roots 1 <-> 3
    a1, a2 = chain
    n1, n2, n3 = weight
    assert chain_tables[(a1, a2)].multiplicity(weight) == chain_tables[(a2, a1)].multiplicity(
        (n3, n2, n1)
    )


@settings(max_examples=200, deadline=None)
@given(
    chain=st.sampled_from(WEYL_CHAINS),
    weight=weights_up_to(14).filter(lambda w: sum(w) >= 2),
    i=st.integers(0, 2),
)
def test_weyl_invariance(chain_tables, chain, weight, i):
    # s_i lam = lam - (lam, alpha_i) alpha_i keeps the multiplicity (Kac, Prop. 5.1);
    # below height 2 the only roots are the simple ones, which s_i sends negative
    table = chain_tables[chain]
    reflected = list(weight)
    reflected[i] -= table.algebra.form(weight, [int(j == i) for j in range(3)])
    expected = 0 if min(reflected) < 0 else table.multiplicity(tuple(reflected))
    assert table.multiplicity(weight) == expected


@pytest.mark.parametrize("chain", [(1, 2), (2, 2), (1, 3), (2, 3)])
def test_reflected_cells_keep_the_peterson_identity(chain):
    # a cell with a nonzero left factor and some (lam, alpha_i) > 0 takes its
    # multiplicity from s_i lam and skips the convolution; its c-value must
    # still solve ((lam, lam) - 2 ht(lam)) c_lam = sum (mu, nu) c_mu c_nu
    A = rank3_chain(*chain)
    table = MultiplicityTable(A)
    for lam in weights_of_height(12):
        if sum(lam) == 12:
            table.multiplicity(lam)
    simples = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    reflected = convolved = 0
    for lam, cnum in table._cnum.items():
        if sum(lam) < 2:
            continue
        lead = A.form(lam, lam) - 2 * sum(lam)
        if lead and any(A.form(lam, s) > 0 for s in simples):
            reflected += 1
            assert table._convolution(lam) == table._denom * lead * cnum, lam
        else:
            convolved += 1
    assert reflected > convolved
