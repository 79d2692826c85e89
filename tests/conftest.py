from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from rootmult import SerreQuotient, rank3_chain
from rootmult.freelie import Leaf, Node


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
