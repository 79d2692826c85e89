from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmult import OracleScaleError, SerreQuotient, rank3_chain
from rootmult.freelie import (
    Leaf,
    NcPolynomial,
    Node,
    expand_standard_tuple,
    standard_tuples_of_weight,
)
from rootmult.gcm import GeneralizedCartanMatrix
from rootmult.linalg import matrix_rank
from rootmult.serre import serre_elements

from conftest import REVERSIBLE_CHAINS, weights_up_to


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
    weights = [e.weight.coeffs for e in serre_elements(chain12)]
    assert sorted(weights) == sorted(
        [(2, 1, 0), (1, 2, 0), (0, 3, 1), (0, 1, 3), (1, 0, 1)]
    )


def test_relation_weights_for_chain_11(chain11):
    weights = [e.weight.coeffs for e in serre_elements(chain11)]
    assert sorted(weights) == sorted(
        [(2, 1, 0), (1, 2, 0), (0, 2, 1), (0, 1, 2), (1, 0, 1)]
    )


def test_zero_entry_pair_is_deduplicated(chain12):
    pairs = [e.source for e in serre_elements(chain12)]
    assert (1, 3) in pairs and (3, 1) not in pairs
    el = next(e for e in serre_elements(chain12) if e.source == (1, 3))
    assert el.tuple_form == (1, 3)
    assert el.expression == Node(Leaf(1), Leaf(3))


def test_relation_shape_is_left_normed(chain22):
    for el in serre_elements(chain22):
        i, j = el.source
        power = len(el.tuple_form) - 1
        assert el.tuple_form == (i,) * power + (j,)


def test_general_matrix_rank_2():
    A = GeneralizedCartanMatrix(((2, -1), (-1, 2)))
    weights = {e.weight.coeffs for e in serre_elements(A)}
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

def brute_force_ideal_dim(A: GeneralizedCartanMatrix, lam: tuple[int, ...]) -> int:
    """Rank of the tensor expansions of [e_i1, [..., [e_ik, s]]] over every relation s."""
    rows = []
    for el in serre_elements(A):
        rest = tuple(c - w for c, w in zip(lam, el.weight.coeffs))
        if min(rest) < 0:
            continue
        for prefix in standard_tuples_of_weight(rest):
            rows.append(expand_standard_tuple(prefix + el.tuple_form).coeffs)
    return matrix_rank(rows)


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
        assert engine.ideal_dim(lam) == brute_force_ideal_dim(A, lam), (chain, lam)


def test_ideal_dim_examples(chain12, engine12):
    assert engine12.ideal_dim((1, 0, 1)) == 1
    assert engine12.ideal_dim((1, 1, 1)) == 1
    assert engine12.ideal_dim((2, 1, 0)) == 1
    # no relation fits under a simple root
    assert engine12.ideal_dim((1, 0, 0)) == 0
    assert SerreQuotient(chain12).ideal_dim((1, 1, 1)) == 1


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
    "ideal_dim": lambda engine, lam: engine.ideal_dim(lam),
    "multiplicity": lambda engine, lam: engine.multiplicity(lam),
    "standard_form_rank": lambda engine, lam: engine.standard_form_rank(lam, []),
    "in_ideal": lambda engine, lam: engine.in_ideal(lam, NcPolynomial()),
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


def test_in_ideal_rejects_another_multidegree(engine12):
    relation = expand_standard_tuple((1, 3))  # [e1, e3] is a defining relation
    assert engine12.in_ideal((1, 0, 1), relation)
    with pytest.raises(ValueError, match="multidegree"):
        engine12.in_ideal((2, 1, 0), relation)


def test_in_ideal_needs_a_lie_element(engine12):
    # e1 e3 + e3 e1 is not a Lie polynomial, though its left-normed brackets cancel
    assert not engine12.in_ideal((1, 0, 1), NcPolynomial({b"\x01\x03": 1, b"\x03\x01": 1}))
    assert engine12.in_ideal((1, 0, 1), NcPolynomial({b"\x01\x03": 1, b"\x03\x01": -1}))


def test_in_ideal_rejects_generator_above_rank(engine12):
    # e1 e2 e4 has two letters in range, matching the weight (1, 1, 0) by count
    with pytest.raises(ValueError, match="outside 1..3"):
        engine12.in_ideal((1, 1, 0), NcPolynomial({b"\x01\x02\x04": 1}))


def test_standard_form_rank_examples(chain12, engine12):
    lam = (1, 1, 1)
    family = list(standard_tuples_of_weight(lam))
    assert engine12.standard_form_rank(lam, family) == engine12.multiplicity(lam)
    assert engine12.standard_form_rank(lam, []) == 0
    assert SerreQuotient(chain12).standard_form_rank((2, 1, 0), [(1, 1, 2)]) == 0
    with pytest.raises(ValueError):
        engine12.standard_form_rank((1, 1, 1), [(1, 2)])


def test_relations_vanish_in_quotient(chain12, chain22):
    for A in (chain12, chain22):
        engine = SerreQuotient(A)
        for el in serre_elements(A):
            assert engine.standard_form_rank(el.weight, [el.tuple_form]) == 0


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


def test_adjacent_one_three_swap_changes_nothing(engine12):
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
        diff = expand_standard_tuple(t) - expand_standard_tuple(swapped)
        total = expand_standard_tuple(t) + expand_standard_tuple(swapped)
        assert engine12.in_ideal(lam, diff), t
        # rank form of the same statement
        assert engine12.standard_form_rank(lam, [t, swapped]) == engine12.standard_form_rank(
            lam, [t]
        )
        if engine12.standard_form_rank(lam, [t]) == 1:
            assert not engine12.in_ideal(lam, total), t


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
