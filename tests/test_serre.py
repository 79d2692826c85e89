from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmult import OracleScaleError, SerreQuotient, free_lie_dim, rank3_chain
from rootmult.freelie import standard_tuples_of_weight
from rootmult.gcm import GeneralizedCartanMatrix
from rootmult.linalg import matrix_rank

from conftest import (
    REVERSIBLE_CHAINS,
    expand_tuple,
    in_relation_ideal,
    relation_ideal_rows,
    serre_relations,
    tuple_weight,
    weights_up_to,
)


def weights_of_height(limit: int):
    for n1 in range(limit + 1):
        for n2 in range(limit + 1):
            for n3 in range(limit + 1):
                if 1 <= n1 + n2 + n3 <= limit:
                    yield (n1, n2, n3)


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def test_relation_weights_for_chain_12(chain12):
    weights = [tuple_weight(s, 3) for s in serre_relations(chain12)]
    assert sorted(weights) == sorted(
        [(2, 1, 0), (1, 2, 0), (0, 3, 1), (0, 1, 3), (1, 0, 1)]
    )


def test_relation_weights_for_chain_11(chain11):
    weights = [tuple_weight(s, 3) for s in serre_relations(chain11)]
    assert sorted(weights) == sorted(
        [(2, 1, 0), (1, 2, 0), (0, 2, 1), (0, 1, 2), (1, 0, 1)]
    )


def test_zero_entry_pair_is_deduplicated(chain12):
    relations = serre_relations(chain12)
    assert (1, 3) in relations and (3, 1) not in relations


def test_relation_shape_is_left_normed(chain22):
    for s in serre_relations(chain22):
        i, j = s[0], s[-1]
        assert s == (i,) * (1 - chain22[i - 1, j - 1]) + (j,)


def test_general_matrix_rank_2():
    A = GeneralizedCartanMatrix(((2, -1), (-1, 2)))
    weights = {tuple_weight(s, 2) for s in serre_relations(A)}
    assert weights == {(2, 1), (1, 2)}


def test_quotient_handles_other_ranks():
    # A2: positive roots are (1,0), (0,1), (1,1)
    a2 = GeneralizedCartanMatrix(((2, -1), (-1, 2)))
    engine = SerreQuotient(a2)
    expected = {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 0, (1, 2): 0, (2, 2): 0, (3, 1): 0}
    for lam, mult in expected.items():
        assert engine.multiplicity(lam) == mult, lam
    # A4 chain: adjacent-interval sums of simple roots are the positive roots
    a4 = GeneralizedCartanMatrix(
        (
            (2, -1, 0, 0),
            (-1, 2, -1, 0),
            (0, -1, 2, -1),
            (0, 0, -1, 2),
        )
    )
    engine4 = SerreQuotient(a4)
    assert engine4.multiplicity((1, 1, 0, 0)) == 1
    assert engine4.multiplicity((1, 1, 1, 1)) == 1
    assert engine4.multiplicity((1, 0, 1, 0)) == 0
    assert engine4.multiplicity((1, 2, 1, 0)) == 0


def test_quotient_requires_a_symmetric_matrix():
    b2 = GeneralizedCartanMatrix(((2, -1), (-2, 2)))
    with pytest.raises(ValueError, match="symmetric Cartan matrix.*Gabber-Kac"):
        SerreQuotient(b2)


# ---------------------------------------------------------------------------
# ideal slices and quotient multiplicities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chain", [(1, 2), (2, 2), (1, 3), "A2"], ids=str)
def test_ideal_dim_matches_the_presentation(chain):
    # the relations generate the ideal the f-image construction quotients by
    if chain == "A2":
        A = GeneralizedCartanMatrix(((2, -1), (-1, 2)))
        weights = [(n1, n2) for n1 in range(7) for n2 in range(7) if 1 <= n1 + n2 <= 6]
    else:
        A = rank3_chain(*chain)
        weights = list(weights_of_height(6))
    engine = SerreQuotient(A)
    for lam in weights:
        ideal_dim = free_lie_dim(lam) - engine.multiplicity(lam)
        assert ideal_dim == matrix_rank(relation_ideal_rows(A, lam)), (chain, lam)


def test_quotient_multiplicity_examples(chain12, chain11, engine12):
    assert engine12.multiplicity((1, 1, 1)) == 1
    assert engine12.multiplicity((2, 1, 0)) == 0
    assert SerreQuotient(chain11).multiplicity((1, 1, 1)) == 1
    for A in (chain11, chain12):
        engine = SerreQuotient(A)
        for simple in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert engine.multiplicity(simple) == 1


def test_cap_is_loud(chain12):
    engine = SerreQuotient(chain12, height_cap=4)
    with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
        engine.multiplicity((2, 2, 1))
    with pytest.raises(ValueError):
        engine.multiplicity((0, 0, 0))


ENTRY_POINTS = {
    "multiplicity": lambda engine, lam: engine.multiplicity(lam),
    "standard_form_rank": lambda engine, lam: engine.standard_form_rank(lam, []),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_wrong_length_weight(chain12, entry):
    engine = SerreQuotient(chain12)
    for lam in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="does not match rank 3"):
            ENTRY_POINTS[entry](engine, lam)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_respect_the_height_cap(chain12, entry):
    engine = SerreQuotient(chain12, height_cap=4)
    with pytest.raises(OracleScaleError, match="has height 5, cap is 4"):
        ENTRY_POINTS[entry](engine, (2, 2, 1))


def test_standard_form_rank_examples(chain12, engine12):
    lam = (1, 1, 1)
    family = list(standard_tuples_of_weight(lam))
    assert engine12.standard_form_rank(lam, family) == engine12.multiplicity(lam)
    assert engine12.standard_form_rank(lam, []) == 0
    assert SerreQuotient(chain12).standard_form_rank((2, 1, 0), [(1, 1, 2)]) == 0
    with pytest.raises(ValueError):
        engine12.standard_form_rank((1, 1, 1), [(1, 2)])
    # a letter past the rank is named before the multidegree is compared
    for lam, t, bad in (((1, 1, 0), (1, 2, 4), 4), ((0, 1, 1), (0, 2, 3), 0)):
        with pytest.raises(ValueError, match=rf"generator index {bad} outside 1\.\.3"):
            engine12.standard_form_rank(lam, [t])


def test_standard_form_rank_reads_any_iterable_once(engine12):
    lam = (2, 3, 2)
    family = list(standard_tuples_of_weight(lam))
    assert engine12.multiplicity(lam) == 2
    for given in (family, standard_tuples_of_weight(lam), iter(family)):
        assert engine12.standard_form_rank(lam, given) == 2


def test_relations_vanish_in_quotient(chain12, chain22):
    for A in (chain12, chain22):
        engine = SerreQuotient(A)
        for s in serre_relations(A):
            assert engine.standard_form_rank(tuple_weight(s, 3), [s]) == 0


def test_spanning_matches_quotient_dimension(chain11, chain12, chain22):
    # the standard tuples of a weight span the whole root space
    for A in (chain11, chain12, chain22):
        engine = SerreQuotient(A)
        for lam in weights_of_height(7):
            family = list(standard_tuples_of_weight(lam))
            assert engine.standard_form_rank(lam, family) == engine.multiplicity(lam), (
                A.chain,
                lam,
            )


def test_rank_is_monotone_in_the_family(engine12):
    rng = random.Random(2024)
    lam = (1, 2, 1)
    family = list(standard_tuples_of_weight(lam))
    for _ in range(10):
        k = rng.randint(0, len(family))
        subset = rng.sample(family, k)
        extended = subset + rng.sample(family, rng.randint(0, len(family)))
        assert engine12.standard_form_rank(lam, subset) <= engine12.standard_form_rank(
            lam, extended
        )


def test_quotient_mult_never_negative(engine12):
    for lam in weights_of_height(6):
        assert engine12.multiplicity(lam) >= 0


@pytest.fixture(scope="module")
def chain_engines():
    return {
        pair: SerreQuotient(rank3_chain(*pair))
        for a1, a2 in REVERSIBLE_CHAINS
        for pair in ((a1, a2), (a2, a1))
    }


@settings(max_examples=200, deadline=None)
@given(chain=st.sampled_from(REVERSIBLE_CHAINS), weight=weights_up_to(7))
def test_chain_reversal(chain_engines, chain, weight):
    # reversing the chain relabels the simple roots 1 <-> 3
    a1, a2 = chain
    n1, n2, n3 = weight
    assert chain_engines[(a1, a2)].multiplicity(weight) == chain_engines[(a2, a1)].multiplicity(
        (n3, n2, n1)
    )


# ---------------------------------------------------------------------------
# swap behavior of adjacent entries
# ---------------------------------------------------------------------------

def swap_at(t: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = list(t)
    out[k], out[k + 1] = out[k + 1], out[k]
    return tuple(out)


def test_adjacent_one_three_swap_changes_nothing(chain12, engine12):
    """Swapping adjacent 1,3 leaves the image unchanged: the difference of the
    two expansions is an ideal element, because it factors through [e1, e3].
    The empirical sign is +: the difference, not the sum, lies in the ideal.
    """
    samples = [
        ((1, 3, 2, 2), 0),
        ((2, 3, 1, 2, 2), 1),
        ((1, 1, 3, 2, 3, 2), 1),
        ((2, 1, 3, 2, 1, 2), 1),
    ]
    for t, k in samples:
        assert {t[k], t[k + 1]} == {1, 3}
        swapped = swap_at(t, k)
        lam = tuple(t.count(i) for i in (1, 2, 3))
        diff = expand_tuple(t) - expand_tuple(swapped)
        total = expand_tuple(t) + expand_tuple(swapped)
        assert in_relation_ideal(chain12, lam, diff), t
        # rank form of the same statement
        assert engine12.standard_form_rank(lam, [t, swapped]) == engine12.standard_form_rank(
            lam, [t]
        )
        if engine12.standard_form_rank(lam, [t]) == 1:
            assert not in_relation_ideal(chain12, lam, total), t


def count_right_delimiters(t: tuple[int, ...], k: int) -> int:
    return sum(1 for v in t[k + 1 :] if v == 2)


def test_delimiter_swap_independence_report(engine12, capsys):
    """Swapping a 1 or 3 with the 2 to its right is expected to produce a
    linearly independent element.  Checked under the strong hypothesis
    (at least three 2s to the right) and the weak one (at least two); the
    outcome is reported, not asserted, because the hypotheses come from the
    counting model under adjudication.  A pair can only be independent when
    the root space has dimension >= 2 and both images are nonzero, so
    violations are split into forced ones (the space is too small) and
    genuine dependences.
    """
    genuine = {"strong": [], "weak": []}
    forced = {"strong": 0, "weak": 0}
    checked = {"strong": 0, "weak": 0}
    for lam in ((1, 3, 1), (2, 3, 1), (1, 3, 2), (1, 4, 1)):
        mult = engine12.multiplicity(lam)
        for t in standard_tuples_of_weight(lam):
            if t[-1] != 2:
                continue
            for k in range(len(t) - 1):
                if t[k] in (1, 3) and t[k + 1] == 2:
                    swapped = swap_at(t, k)
                    rank = engine12.standard_form_rank(lam, [t, swapped])
                    both_alive = (
                        engine12.standard_form_rank(lam, [t]) == 1
                        and engine12.standard_form_rank(lam, [swapped]) == 1
                    )
                    twos = count_right_delimiters(t, k)
                    for name, bound in (("strong", 3), ("weak", 2)):
                        if twos >= bound:
                            checked[name] += 1
                            if rank < 2:
                                if mult >= 2 and both_alive:
                                    genuine[name].append((t, k, rank))
                                else:
                                    forced[name] += 1
    for name in ("strong", "weak"):
        print(
            f"delimiter swap independence [{name} hypothesis]: "
            f"{len(genuine[name])} genuine dependences and {forced[name]} forced "
            f"(small space or dead element) out of {checked[name]} pairs"
        )
        for v in genuine[name][:10]:
            print("  dependent pair:", v)
    assert checked["strong"] > 0 and checked["weak"] > 0
