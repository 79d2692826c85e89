from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmult import MultiplicityTable, SerreQuotient, rank3_chain
from rootmult.gcm import cartan_matrix, reduce_to_chamber

from conftest import WEYL_CHAINS, OffByOneTable, form, weights_of_height, weights_up_to

def test_base_cases(chain11, chain12, chain22):
    for A in (chain11, chain12, chain22):
        table = MultiplicityTable(A)
        for simple in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert table.multiplicity(simple) == 1


def test_example_values(chain12):
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
        MultiplicityTable(cartan_matrix(((2, -1), (-2, 2))))


def test_other_ranks(chain12):
    a2 = cartan_matrix(((2, -1), (-1, 2)))
    table = MultiplicityTable(a2)
    expected = {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 0, (2, 2): 0, (3, 2): 0}
    for lam, mult in expected.items():
        assert table.multiplicity(lam) == mult, lam
    a4 = cartan_matrix(
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
@given(chain=st.sampled_from(WEYL_CHAINS), weight=weights_up_to(14))
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
            a_lam = [form(A, lam, s) for s in simples]
            assert table._convolution(lam, a_lam) == table._denom * lead * cnum, lam
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
# the root test also runs on the finite-type chain, which has no imaginary root
ROOT_TEST_CHAINS = THEOREM_CHAINS + ((1, 1),)


@pytest.fixture(scope="module")
def filled_boxes():
    """Every multiplicity of the box (10, 10, 10), with its (lam, lam), per chain."""
    boxes = {}
    for chain in ROOT_TEST_CHAINS:
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


def connected(lam) -> bool:
    """Whether the support of ``lam`` is connected on the chain 1-2-3: only {1, 3} is not."""
    return bool(lam[1] or not (lam[0] and lam[2]))


def is_root(A, lam) -> bool:
    """Kac's root test (Prop. 5.1, Thm 5.4), from the Weyl group alone.

    ``reduce_to_chamber`` reflects lam down while some (A lam)_i is positive;
    a positive root stays positive unless it is alpha_i, so None answers "not
    a root".  Otherwise lam is a root exactly when the walk ends at a simple
    root or at a weight of the chamber with connected support, and a simple
    root's support, one node, is connected.  The zero weight is not a root.
    """
    low = reduce_to_chamber(A, lam)
    return low is not None and any(low) and connected(low)


@pytest.mark.parametrize("chain", ROOT_TEST_CHAINS)
def test_chamber_weights_with_connected_support_are_roots(filled_boxes, chain):
    # Kac, Thm 5.4: a nonzero lam with (lam, alpha_i) <= 0 for every i and
    # connected support is an imaginary root; every other root is a Weyl
    # image of a simple root, so mult > 0 exactly where the walk says "root"
    A = rank3_chain(*chain)
    simples = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    chamber = [
        (lam, m)
        for lam, m, _ in filled_boxes[chain]
        if all(form(A, lam, s) <= 0 for s in simples) and connected(lam)
    ]
    assert all(m >= 1 for _, m in chamber)
    # the finite-type chain (1, 1) has no imaginary root, so its chamber is empty
    assert len(chamber) >= 50 if max(chain) >= 2 else not chamber
    cells = filled_boxes[chain]
    assert len(cells) == 11**3 - 1
    assert [lam for lam, m, _ in cells if (m > 0) != is_root(A, lam)] == []


@pytest.mark.parametrize("chain", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_quotient_is_nonzero_exactly_at_roots(chain):
    # the same root test against the quotient, which knows nothing of the Weyl group
    A = rank3_chain(*chain)
    engine = SerreQuotient(A)
    weights = [lam for lam in weights_of_height(9) if max(lam) <= 4]
    assert len(weights) == 114
    mults = {lam: engine.multiplicity(lam) for lam in weights}
    assert [lam for lam in weights if (mults[lam] > 0) != is_root(A, lam)] == []
    # every stored matrix is in lowest terms: the images by construction, as
    # rows of content 1 scaled by the lcm of the pivots, the maps by a gcd pass
    spaces = engine._spaces.values()
    matrices = [(s.images, s.image_den) for s in spaces]
    matrices += [m for s in spaces for m in s.raising.values()]
    # the finite-type chain (1, 1) has integer maps only
    assert any(den > 1 for _, den in matrices) == (max(chain) >= 2)
    assert [
        (cols, den) for cols, den in matrices
        if math.gcd(den, *(v for col in cols for v in col.values())) != 1
    ] == []
    # Weyl invariance (Kac, Prop. 5.1): mult(lam) = mult(s_i lam) for
    # p = (A lam)_i > 0, or 0 when s_i lam = lam - p alpha_i leaves the
    # positive cone; s_i lam is lower, so it is one of the weights
    reflections = [
        (lam, lam[:i] + (lam[i] - p,) + lam[i + 1 :])
        for lam in weights
        if sum(lam) >= 2
        for i, p in enumerate(form(A, lam, s) for s in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        if p > 0
    ]
    assert len(reflections) >= 100
    assert [
        lam for lam, low in reflections if mults[lam] != (mults[low] if min(low) >= 0 else 0)
    ] == []
    # Frenkel's bound (see test_multiplicities_meet_frenkels_bound) on the
    # quotient's own table; the finite chain (1, 1) has no Lorentzian lattice
    if max(chain) >= 2:
        roots = [(lam, m, 1 - form(A, lam, lam) // 2) for lam, m in mults.items() if m]
        p = partitions(max(k for _, _, k in roots))
        assert [(lam, m) for lam, m, k in roots if m > p[k]] == []


@pytest.mark.parametrize("chain", ROOT_TEST_CHAINS)
def test_reduction_to_the_chamber_keeps_the_multiplicity(filled_boxes, chain):
    # the reduced weight is lower, so it lies in the same box; None is no root
    A = rank3_chain(*chain)
    mults = {lam: m for lam, m, _ in filled_boxes[chain]}
    reduced = {lam: reduce_to_chamber(A, lam) for lam in mults}
    assert [lam for lam, low in reduced.items() if mults[lam] != (mults[low] if low else 0)] == []
    # the walk stops only where it cannot go on
    assert all(reduce_to_chamber(A, low) == low for low in reduced.values() if low)


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


@pytest.mark.parametrize("chain", THEOREM_CHAINS)
def test_multiplicities_meet_frenkels_bound(filled_boxes, chain):
    # Frenkel's bound (I. B. Frenkel, "Representations of Kac-Moody algebras
    # and dual resonance models", Lect. Appl. Math. 21, AMS 1985), from the
    # no-ghost theorem: if the root lattice of a Kac-Moody algebra, with
    # (alpha_i, alpha_j) = A_ij, is an even Lorentzian lattice of rank d, then
    # mult(alpha) <= p_{d-2}(1 - (alpha, alpha)/2) for every root alpha, where
    # p_k counts the partitions into parts of k colours.  The chain matrix has
    # determinant 8 - 2*a1^2 - 2*a2^2 < 0 off (1, 1), so d = 3 and p_1 = p.
    roots = [(lam, m, 1 - norm // 2) for lam, m, norm in filled_boxes[chain] if m > 0]
    p = partitions(max(k for _, _, k in roots))
    assert [(lam, m) for lam, m, k in roots if m > p[k]] == []
    assert any(m == p[k] for _, m, k in roots)


def level_mismatches(mult, level, weights):
    """The weights of ``weights``, all of level n1 = ``level``, where the free-Lie identity fails.

    If the positive levels up to ``level`` form the free Lie algebra on g_1,
    then sum_{k | gcd lam} (L/k) mult(lam/k) = [e^lam] (ch g_1)^L at every lam
    of level L, with ch g_1 = sum_{n1(mu) = 1} mult(mu) e^mu: the log of
    prod_alpha (1 - e^alpha)^(mult alpha) = 1 - ch g_1, read at e^lam.
    ``mult`` is asked only about weights below one of ``weights``.
    """
    top2 = max(n2 for _, n2, _ in weights)
    top3 = max(n3 for _, _, n3 in weights)
    top = max(n2 + n3 for _, n2, n3 in weights)
    below = [
        (m2, m3) for m2 in range(top2 + 1) for m3 in range(top3 + 1) if m2 + m3 <= top
    ]
    level_one = {m: mult((1, *m)) for m in below}
    power = {(0, 0): 1}
    for _ in range(level):
        step: dict[tuple[int, int], int] = {}
        for (p2, p3), c in power.items():
            for (m2, m3), d in level_one.items():
                key = (p2 + m2, p3 + m3)
                if d and key[0] <= top2 and key[1] <= top3 and sum(key) <= top:
                    step[key] = step.get(key, 0) + c * d
        power = step
    bad = []
    for lam in weights:
        g = math.gcd(*lam)
        lhs = sum(
            level // k * mult(tuple(c // k for c in lam)) for k in range(1, g + 1) if g % k == 0
        )
        if lhs != power.get(lam[1:], 0):
            bad.append(lam)
    return bad


@pytest.mark.parametrize("chain", THEOREM_CHAINS)
def test_levels_up_to_a1_are_free_on_level_one(filled_boxes, chain):
    # the first relation with two e1's is (ad e1)^(1+a1) e2, at level 1 + a1:
    # below it the positive levels are free on g_1, and at it they are not,
    # so a chain with a1 = 1 has only the level that must fail
    mults = {lam: m for lam, m, _ in filled_boxes[chain]}
    a1, a2 = chain
    for level in range(2, a1 + 2):
        weights = [lam for lam in mults if lam[0] == level]
        assert len(weights) == 11**2
        bad = level_mismatches(mults.__getitem__, level, weights)
        assert bool(bad) == (level > a1), (level, bad[:3])
    # the same for the grading by n3, whose first relation (ad e3)^(1+a2) e2
    # is at level 1 + a2: read backwards, the weights are those of the
    # reversed chain (a2, a1), graded by n1
    for level in range(2, a2 + 2):
        weights = [lam[::-1] for lam in mults if lam[2] == level]
        assert len(weights) == 11**2
        bad = level_mismatches(lambda lam: mults[lam[::-1]], level, weights)
        assert bool(bad) == (level > a2), (level, bad[:3])


@pytest.mark.parametrize("chain", [(2, 2), (2, 3)])
def test_quotient_level_two_is_free_on_level_one(chain):
    # the quotient's own table, with neither the recurrence nor the Weyl group
    engine = SerreQuotient(rank3_chain(*chain))
    weights = [(2, n2, n3) for n2 in range(9) for n3 in range(9 - n2)]
    assert len(weights) == 45
    assert level_mismatches(engine.multiplicity, 2, weights) == []
