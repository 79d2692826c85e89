from __future__ import annotations

import random

import pytest

from rootmult import rank3_chain
from rootmult.gcm import GeneralizedCartanMatrix, WeightVector


def test_chain_entries():
    assert rank3_chain(1, 2).entries == ((2, -1, 0), (-1, 2, -2), (0, -2, 2))
    assert rank3_chain(1, 1).entries == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert rank3_chain(2, 2).entries == ((2, -2, 0), (-2, 2, -2), (0, -2, 2))


def test_chain_rejects_nonpositive_labels():
    with pytest.raises(ValueError):
        rank3_chain(0, 2)
    with pytest.raises(ValueError):
        rank3_chain(1, -1)


def test_finite_type_flag():
    assert rank3_chain(1, 1).finite_type
    assert not rank3_chain(1, 2).finite_type
    assert not rank3_chain(2, 2).finite_type
    direct = GeneralizedCartanMatrix(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))
    assert not direct.finite_type  # no chain metadata, no claim


def test_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        GeneralizedCartanMatrix(((1, 0), (0, 2)))  # diagonal
    with pytest.raises(ValueError):
        GeneralizedCartanMatrix(((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(ValueError):
        GeneralizedCartanMatrix(((2, -1), (0, 2)))  # asymmetric zero pattern
    with pytest.raises(ValueError):
        GeneralizedCartanMatrix(((2, -1, 0), (-1, 2, -2)))  # not square


def test_weight_vector_basics():
    w = WeightVector((2, 0, 3))
    assert w.height == 5
    assert w.rank == 3
    assert list(w) == [2, 0, 3]
    with pytest.raises(ValueError):
        WeightVector((1, -1, 0))


def test_symmetric_form_examples():
    A = rank3_chain(1, 2)
    assert A.form((1, 0, 0), (1, 0, 0)) == 2
    assert A.form((1, 0, 0), (0, 0, 1)) == 0
    # hand matrix arithmetic: (2,2,2) A (2,2,2)^T = 24 - 2*(4 + 8) = 0
    assert A.form((2, 2, 2), (2, 2, 2)) == 0


def test_symmetric_form_is_symmetric_and_bilinear():
    rng = random.Random(7)
    A = rank3_chain(2, 3)
    for _ in range(50):
        x = tuple(rng.randint(0, 6) for _ in range(3))
        y = tuple(rng.randint(0, 6) for _ in range(3))
        z = tuple(rng.randint(0, 6) for _ in range(3))
        assert A.form(x, y) == A.form(y, x)
        xz = tuple(a + b for a, b in zip(x, z))
        assert A.form(xz, y) == A.form(x, y) + A.form(z, y)
