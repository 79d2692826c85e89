from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmult import MultiplicityTable, SerreQuotient, rank3_chain
from rootmult.gcm import GeneralizedCartanMatrix

from conftest import REVERSIBLE_CHAINS, OffByOneTable, form, weights_up_to

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
            assert table.multiplicity(lam) == engine.multiplicity(lam), (A.entries, lam)


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


def test_non_integral_multiplicity_fails_loudly(chain12):
    from rootmult import RecurrenceError

    message = "internal consistency failure: multiplicity at (1, 2, 2) is 121/60"
    with pytest.raises(RecurrenceError) as raised:
        OffByOneTable(chain12).multiplicity((1, 2, 2))
    assert str(raised.value) == message
    assert MultiplicityTable(chain12).multiplicity((1, 2, 2)) == 2


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
    reflected[i] -= form(table.algebra, weight, [int(j == i) for j in range(3)])
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
        lead = form(A, lam, lam) - 2 * sum(lam)
        if lead and any(form(A, lam, s) > 0 for s in simples):
            reflected += 1
            assert table._convolution(lam) == table._denom * lead * cnum, lam
        else:
            convolved += 1
    assert reflected > convolved


# sha1 of repr of (sorted multiplicities, sorted c-numerators, denominator)
# after filling the box; computed before the cells paired through A lam over
# half the box, so the tables are the same bit for bit
PINNED_TABLES = {
    ((1, 2), (9, 10, 9)): "aede452108b04c0431feed4851f168aeed313e08",
    ((2, 2), (8, 8, 8)): "6ae3888fb0bf06e2c2e7ba96ce335bb3d24fba45",
    ((1, 3), (8, 8, 8)): "00539cedf57e99c6f733eb6b96434204890fa62d",
    ((2, 3), (8, 8, 8)): "363d80f1bc2be711786a355cbdc92322060510bd",
}


@pytest.mark.parametrize("chain, box", list(PINNED_TABLES))
def test_filled_tables_are_pinned(chain, box):
    table = MultiplicityTable(rank3_chain(*chain))
    table.multiplicity(box)
    state = (sorted(table._mult.items()), sorted(table._cnum.items()), table._denom)
    assert hashlib.sha1(repr(state).encode()).hexdigest() == PINNED_TABLES[chain, box]


# the chains the theorem-level checks fill to the box (10, 10, 10)
THEOREM_CHAINS = ((1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 3))


@pytest.fixture(scope="module")
def filled_boxes():
    """Every multiplicity of the box (10, 10, 10), with its (lam, lam), per chain."""
    boxes = {}
    for chain in THEOREM_CHAINS:
        table = MultiplicityTable(rank3_chain(*chain))
        table.multiplicity((10, 10, 10))
        A = table.algebra
        boxes[chain] = [(w, m, form(A, w, w)) for w, m in table.computed().items()]
    return boxes


@pytest.mark.parametrize("chain", THEOREM_CHAINS)
def test_norm_above_two_is_not_a_root(filled_boxes, chain):
    # positive roots have (lam, lam) <= 2: real roots 2, imaginary ones <= 0
    long = [(lam, m) for lam, m, norm in filled_boxes[chain] if norm >= 4]
    assert long and all(m == 0 for _, m in long)


@pytest.mark.parametrize("chain", THEOREM_CHAINS)
def test_real_roots_have_multiplicity_one(filled_boxes, chain):
    # a root with (lam, lam) = 2 is real: a Weyl image of a simple root
    real = [(lam, m) for lam, m, norm in filled_boxes[chain] if norm == 2 and m]
    assert len(real) > 3 and all(m == 1 for _, m in real)


@pytest.mark.parametrize("chain", THEOREM_CHAINS)
def test_chamber_weights_with_connected_support_are_roots(filled_boxes, chain):
    # Kac, Thm 5.4: a nonzero lam with (lam, alpha_i) <= 0 for every i and
    # connected support is an imaginary root; on the chain 1-2-3 the only
    # disconnected support is {1, 3}
    A = rank3_chain(*chain)
    simples = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    chamber = [
        (lam, m)
        for lam, m, _ in filled_boxes[chain]
        if all(form(A, lam, s) <= 0 for s in simples) and (lam[1] or not (lam[0] and lam[2]))
    ]
    assert len(chamber) >= 50 and all(m >= 1 for _, m in chamber)


# with a2 = 2, nodes {2, 3} form the affine A1^(1), whose imaginary roots are
# the multiples of delta = alpha2 + alpha3; likewise nodes {1, 2} when a1 = 2
AFFINE_DELTAS = [
    (chain, delta)
    for chain in THEOREM_CHAINS
    for delta, a in (((0, 1, 1), chain[1]), ((1, 1, 0), chain[0]))
    if a == 2
]


@pytest.mark.parametrize("chain, delta", AFFINE_DELTAS)
def test_affine_subdiagram_imaginary_roots_have_multiplicity_one(filled_boxes, chain, delta):
    mults = {lam: m for lam, m, _ in filled_boxes[chain]}
    assert [mults[tuple(k * c for c in delta)] for k in range(1, 11)] == [1] * 10


def partitions(limit: int) -> list[int]:
    """p(0), ..., p(limit), the partition numbers, by adding one part size at a time."""
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for k in range(part, limit + 1):
            p[k] += p[k - part]
    return p


def test_level_one_multiplicities_are_partition_numbers():
    # chain (1,2) is Feingold-Frenkel's hyperbolic algebra: its level-1
    # weights (n1 = 1) have mult p(1 - (lam, lam)/2), with p(k) = 0 for k < 0;
    # on (2,1) the same weights read backwards, by chain reversal
    A = rank3_chain(1, 2)
    table = MultiplicityTable(A)
    reversed_table = MultiplicityTable(rank3_chain(2, 1))
    table.multiplicity((1, 40, 40))
    reversed_table.multiplicity((40, 40, 1))
    p = partitions(40)  # k is largest, 40, at (1, 40, 40)
    roots = 0
    for n2 in range(41):
        for n3 in range(41):
            lam = (1, n2, n3)
            k = 1 - form(A, lam, lam) // 2
            expected = p[k] if k >= 0 else 0
            assert table.multiplicity(lam) == expected, lam
            assert reversed_table.multiplicity((n3, n2, 1)) == expected, lam
            roots += expected > 0
    assert roots == 331
