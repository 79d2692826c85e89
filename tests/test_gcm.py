from __future__ import annotations

import copy
import pickle
import random
import re

import pytest

from rootmult import MultiplicityTable, SerreQuotient, free_lie_dim, rank3_chain
from rootmult.gcm import cartan_matrix, query_weight, reduce_to_chamber

from conftest import form, standard_tuples_of_weight


def test_chain_entries():
    assert rank3_chain(1, 2) == ((2, -1, 0), (-1, 2, -2), (0, -2, 2))
    assert rank3_chain(1, 1) == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert rank3_chain(2, 2) == ((2, -2, 0), (-2, 2, -2), (0, -2, 2))
    # a matrix is an immutable value: equal entries, equal matrices and hashes
    A = rank3_chain(1, 2)
    B = cartan_matrix(((2, -1, 0), (-1, 2, -2), (0, -2, 2)))
    assert A == B and hash(A) == hash(B) and A is not B
    assert A != rank3_chain(2, 1)
    assert copy.deepcopy(A) == A and pickle.loads(pickle.dumps(A)) == A


def test_chain_rejects_nonpositive_labels():
    with pytest.raises(ValueError):
        rank3_chain(0, 2)
    with pytest.raises(ValueError):
        rank3_chain(1, -1)


def test_chain_labels_must_be_integers():
    for a1, a2 in (("1", 2), (1, None), (2.0, 2)):
        with pytest.raises(ValueError, match=re.escape(f"got ({a1!r}, {a2!r})")):
            rank3_chain(a1, a2)


def test_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        cartan_matrix(((1, 0), (0, 2)))  # diagonal
    with pytest.raises(ValueError):
        cartan_matrix(((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(ValueError):
        cartan_matrix(((2, -1), (0, 2)))  # asymmetric zero pattern
    with pytest.raises(ValueError):
        cartan_matrix(((2, -1, 0), (-1, 2, -2)))  # not square


def test_empty_cartan_matrix():
    with pytest.raises(ValueError, match="^empty Cartan matrix$"):
        cartan_matrix(())


# the malformed matrices of test_matrix_invariants_enforced, and a short last row
MALFORMED = (
    ((1, 0), (0, 2)),
    ((2, 1), (1, 2)),
    ((2, -1), (0, 2)),
    ((2, -1, 0), (-1, 2, -2)),
    ((2, 0), ()),
)


def test_cartan_matrix_of_lists_is_a_tuple_of_ints():
    A = cartan_matrix([[2, -1, 0], [-1, 2, -2], [0, -2, 2]])
    assert A == rank3_chain(1, 2) and hash(A) == hash(rank3_chain(1, 2))
    assert type(A) is tuple and all(type(row) is tuple for row in A)
    assert all(type(v) is int for row in A for v in row)


class I:  # an integer only through __index__, as operator.index reads it: I(2) != 2
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[2, I(-1)], [I(-1), 2]], ((2, -1), (-1, 2))),
        ([[I(2), -1], [-1, 2]], ((2, -1), (-1, 2))),  # the diagonal check reads the int
        ([[2, I(0)], [0, 2]], ((2, 0), (0, 2))),  # so does the zero-pattern check
    ],
)
def test_every_check_reads_the_entries_as_ints(rows, expected):
    A = cartan_matrix(rows)
    assert A == expected and all(type(v) is int for row in A for v in row)
    for engine in (MultiplicityTable(rows), SerreQuotient(rows)):
        assert engine.algebra == expected


def test_engines_accept_integer_rows():
    a2 = [[2, -1], [-1, 2]]
    expected = {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 0, (1, 2): 0, (2, 2): 0}
    for engine in (MultiplicityTable(a2), SerreQuotient(a2)):
        assert engine.algebra == ((2, -1), (-1, 2))
        assert {lam: engine.multiplicity(lam) for lam in expected} == expected


@pytest.mark.parametrize("rows", MALFORMED, ids=str)
def test_engines_check_the_matrix_as_cartan_matrix_does(rows):
    with pytest.raises(ValueError) as want:
        cartan_matrix(rows)
    for engine in (MultiplicityTable, SerreQuotient):
        with pytest.raises(ValueError) as got:
            engine(rows)
        assert str(got.value) == str(want.value), engine


def test_engines_keep_their_own_symmetry_message():
    b2 = [[2, -1], [-2, 2]]
    assert cartan_matrix(b2) == ((2, -1), (-2, 2))  # a generalized Cartan matrix, not symmetric
    with pytest.raises(ValueError, match="^recurrence requires a symmetric Cartan matrix$"):
        MultiplicityTable(b2)
    with pytest.raises(ValueError, match="^the quotient oracle requires a symmetric Cartan matrix"):
        SerreQuotient(b2)


def test_query_weight_returns_a_plain_tuple():
    w = query_weight(rank3_chain(1, 2), [2, 0, 3])
    assert type(w) is tuple and w == (2, 0, 3)
    assert query_weight(None, [1, 1]) == (1, 1)  # no algebra: any length


def test_query_weight_messages():
    A = rank3_chain(1, 2)
    for lam, message in (
        ((1, -1, 0), "negative coefficient in weight (1, -1, 0)"),
        ((1, 1), "weight length 2 does not match rank 3"),
        ((0, 0, 0), "weight must have height >= 1"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            query_weight(A, lam)


def test_engines_without_an_algebra_share_the_weight_check():
    with pytest.raises(ValueError, match=re.escape("negative coefficient in weight (1, -1, 0)")):
        free_lie_dim((1, -1, 0))
    with pytest.raises(ValueError, match=re.escape("negative coefficient in weight (1, -1, 0)")):
        list(standard_tuples_of_weight((1, -1, 0)))
    with pytest.raises(ValueError, match=re.escape("weight must have height >= 1")):
        list(standard_tuples_of_weight((0, 0, 0)))  # no bracket has no leaves


def test_non_integer_input_is_refused_not_truncated():
    A = rank3_chain(1, 2)
    for lam in ((2.9, 3, 2), ("2", 3, 2)):
        for engine in (MultiplicityTable(A), SerreQuotient(A)):
            with pytest.raises(ValueError, match=re.escape(repr(lam[0]))):
                engine.multiplicity(lam)
    with pytest.raises(ValueError, match="2.7"):
        free_lie_dim((2.7, 2))
    with pytest.raises(ValueError, match="2.7"):
        list(standard_tuples_of_weight((2.7, 2)))
    with pytest.raises(ValueError, match="1.5"):
        rank3_chain(1.5, 2)
    with pytest.raises(ValueError, match="0.5"):
        cartan_matrix(((2, -0.5), (-1, 2)))
    with pytest.raises(ValueError, match=re.escape("entry [0][0] must be an integer, got 2.5")):
        cartan_matrix(((2.5, -1), (-1, 2)))


def test_symmetric_form_examples():
    A = rank3_chain(1, 2)
    assert form(A, (1, 0, 0), (1, 0, 0)) == 2
    assert form(A, (1, 0, 0), (0, 0, 1)) == 0
    # hand matrix arithmetic: (2,2,2) A (2,2,2)^T = 24 - 2*(4 + 8) = 0
    assert form(A, (2, 2, 2), (2, 2, 2)) == 0


def test_symmetric_form_is_symmetric_and_bilinear():
    rng = random.Random(7)
    A = rank3_chain(2, 3)
    for _ in range(50):
        x = tuple(rng.randint(0, 6) for _ in range(3))
        y = tuple(rng.randint(0, 6) for _ in range(3))
        z = tuple(rng.randint(0, 6) for _ in range(3))
        assert form(A, x, y) == form(A, y, x)
        xz = tuple(a + b for a, b in zip(x, z))
        assert form(A, xz, y) == form(A, x, y) + form(A, z, y)


def test_reduce_to_chamber_reflects_down_to_the_chamber():
    A = rank3_chain(1, 2)
    # (A lam) = (32, -31, -2): s_1 gives (1, 34, 33), then s_2 gives (1, 33, 33)
    assert reduce_to_chamber(A, (33, 34, 33)) == (1, 33, 33)
    assert reduce_to_chamber(A, (1, 33, 33)) == (1, 33, 33)
    assert reduce_to_chamber(A, (0, 1, 0)) == (0, 1, 0)
    assert reduce_to_chamber(A, (2, 0, 0)) is None
    assert reduce_to_chamber(A, (1, 0, 1)) is None
