from __future__ import annotations

import copy
import pickle
import random
import re

import pytest

from rootmult import MultiplicityTable, SerreQuotient, free_lie_dim, rank3_chain
from rootmult.freelie import standard_tuples_of_weight
from rootmult.gcm import GeneralizedCartanMatrix, query_weight

from conftest import form


def test_chain_entries():
    assert rank3_chain(1, 2).entries == ((2, -1, 0), (-1, 2, -2), (0, -2, 2))
    assert rank3_chain(1, 1).entries == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert rank3_chain(2, 2).entries == ((2, -2, 0), (-2, 2, -2), (0, -2, 2))
    # a matrix is an immutable value: equal entries, equal matrices and hashes
    A = rank3_chain(1, 2)
    B = GeneralizedCartanMatrix(((2, -1, 0), (-1, 2, -2), (0, -2, 2)))
    assert A == B and hash(A) == hash(B) and A is not B
    assert A != rank3_chain(2, 1) and A != A.entries
    assert copy.deepcopy(A) == A and pickle.loads(pickle.dumps(A)) == A
    assert repr(A) == "GeneralizedCartanMatrix(entries=((2, -1, 0), (-1, 2, -2), (0, -2, 2)))"
    with pytest.raises(AttributeError):
        A.entries = ((2,),)
    with pytest.raises(AttributeError):
        del A.entries
    assert A.entries == B.entries


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
        GeneralizedCartanMatrix(((1, 0), (0, 2)))  # diagonal
    with pytest.raises(ValueError):
        GeneralizedCartanMatrix(((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(ValueError):
        GeneralizedCartanMatrix(((2, -1), (0, 2)))  # asymmetric zero pattern
    with pytest.raises(ValueError):
        GeneralizedCartanMatrix(((2, -1, 0), (-1, 2, -2)))  # not square


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
        GeneralizedCartanMatrix(((2, -0.5), (-1, 2)))


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
