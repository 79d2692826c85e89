from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from rootmult import SerreQuotient, rank3_chain
from rootmult.freelie import (
    Leaf,
    NcPolynomial,
    Node,
    expand_combination,
    standard_tuples_of_weight,
)
from rootmult.gcm import GeneralizedCartanMatrix
from rootmult.linalg import matrix_rank


@pytest.fixture(scope="session")
def chain12():
    return rank3_chain(1, 2)


@pytest.fixture(scope="session")
def chain11():
    return rank3_chain(1, 1)


@pytest.fixture(scope="session")
def chain22():
    return rank3_chain(2, 2)


@pytest.fixture(scope="session")
def engine12(chain12):
    return SerreQuotient(chain12)


def random_expr(rng: random.Random, length: int, rank: int = 3):
    """Uniform-ish random bracket expression with the given leaf count."""
    if length == 1:
        return Leaf(rng.randint(1, rank))
    split = rng.randint(1, length - 1)
    return Node(random_expr(rng, split, rank), random_expr(rng, length - split, rank))


# chains whose reversal (a2, a1) is a different algebra
REVERSIBLE_CHAINS = ((1, 2), (1, 3), (2, 3))


def weights_up_to(height: int):
    """Rank-3 weights of height 1..``height``, as a hypothesis strategy."""
    coefficient = st.integers(0, height)
    return st.tuples(coefficient, coefficient, coefficient).filter(
        lambda w: 1 <= sum(w) <= height
    )


def expand_tuple(t: tuple[int, ...]) -> NcPolynomial:
    """Tensor expansion of the left-normed bracket encoded by ``t``."""
    return expand_combination({t: 1})


# ---------------------------------------------------------------------------
# the presentation: Serre relations and the ideal they generate
# ---------------------------------------------------------------------------

def serre_relations(A: GeneralizedCartanMatrix) -> list[tuple[int, ...]]:
    """The defining relations ad(e_i)^(1-A_ij)(e_j) as left-normed tuples.

    One per ordered pair i != j; when A_ij = 0, [e_i, e_j] and [e_j, e_i]
    differ only by sign, and only the pair with i < j is kept.
    """
    r = A.rank
    return [
        (i,) * (1 - A[i - 1, j - 1]) + (j,)
        for i in range(1, r + 1)
        for j in range(1, r + 1)
        if i != j and not (A[i - 1, j - 1] == 0 and i > j)
    ]


def tuple_weight(t: tuple[int, ...], rank: int) -> tuple[int, ...]:
    return tuple(t.count(i) for i in range(1, rank + 1))


def relation_ideal_rows(A: GeneralizedCartanMatrix, lam: tuple[int, ...]) -> list[dict]:
    """Tensor expansions of [e_i1, [..., [e_ik, s]]] over every relation s, at ``lam``.

    Their span is the ideal slice at ``lam``: the ideal generated by the
    relations is spanned by the left-normed brackets prefix + s.
    """
    rows = []
    for s in serre_relations(A):
        rest = tuple(c - w for c, w in zip(lam, tuple_weight(s, A.rank)))
        if min(rest) < 0:
            continue
        for prefix in standard_tuples_of_weight(rest):
            rows.append(expand_tuple(prefix + s).coeffs)
    return rows


def in_relation_ideal(A: GeneralizedCartanMatrix, lam: tuple[int, ...], poly: NcPolynomial) -> bool:
    """Whether a tensor polynomial of multidegree ``lam`` lies in the relation ideal."""
    rows = relation_ideal_rows(A, lam)
    return matrix_rank(rows + [poly.coeffs]) == matrix_rank(rows)
