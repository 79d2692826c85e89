from __future__ import annotations

import math
import random
from fractions import Fraction

from rootmult.linalg import EchelonBasis, matrix_rank


def row(*pairs):
    return {bytes([k]): v for k, v in pairs}


def fraction_rank(rows: list[list[int]]) -> int:
    """Independent oracle: classical elimination over Fraction."""
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_simple_ranks():
    assert matrix_rank([]) == 0
    assert matrix_rank([row((1, 2))]) == 1
    assert matrix_rank([row((1, 2)), row((1, -4))]) == 1
    assert matrix_rank([row((1, 1), (2, 1)), row((1, 1), (2, -1))]) == 2
    assert matrix_rank([row((1, 1), (2, 2)), row((3, 1)), row((1, 1), (2, 2), (3, 3))]) == 2
    assert matrix_rank([row((1, 1), (2, 2)), row((3, 1)), row((1, 1), (2, 3), (3, 4))]) == 3


def test_zero_row_ignored():
    basis = EchelonBasis()
    assert not basis.insert({})
    assert not basis.insert({bytes([1]): 0})
    assert basis.rank == 0


def test_matches_fraction_elimination_on_random_matrices():
    rng = random.Random(20240511)
    for _ in range(60):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        dense = [
            [rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        # plant a dependent row now and then
        if nrows >= 2 and rng.random() < 0.5:
            k = rng.randint(0, nrows - 2)
            dense[-1] = [3 * v for v in dense[k]]
        rank = fraction_rank(dense)
        # tensor words key the rows of the tests, ints those of the quotient oracle
        for key in (lambda j: bytes([j]), lambda j: j):
            sparse = [{key(j): v for j, v in enumerate(r) if v} for r in dense]
            assert matrix_rank(sparse) == rank
            basis = EchelonBasis()
            for r in sparse:
                before = basis.rank
                assert basis.insert(r) == (basis.rank > before)
                # the quotient reads coordinates at the pivots, so the basis stays reduced
                for p, b in basis.pivots.items():
                    assert b[p] > 0
                    assert all(q not in b for q in basis.pivots if q != p)
                    assert math.gcd(*b.values()) == 1
            assert basis.rank == rank
            kept = [[b.get(key(j), 0) for j in range(ncols)] for b in basis.pivots.values()]
            assert fraction_rank(dense + kept) == rank


def test_coefficients_stay_reduced():
    basis = EchelonBasis()
    basis.insert(row((1, 6), (2, 10)))
    stored = basis.pivots[bytes([1])]
    assert stored == row((1, 3), (2, 5))
    basis.insert(row((1, -4)))
    # second pivot normalized with positive leading coefficient
    lead2 = sorted(basis.pivots)[1]
    assert basis.pivots[lead2][lead2] > 0
