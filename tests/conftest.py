from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

import pytest
from hypothesis import strategies as st

from rootmult import FormulaParams, MultiplicityTable, SerreQuotient, rank3_chain
from rootmult.freelie import (
    NcPolynomial,
    StandardTuple,
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
        return rng.randint(1, rank)
    split = rng.randint(1, length - 1)
    return (random_expr(rng, split, rank), random_expr(rng, length - split, rank))


def leaf_count(x) -> int:
    """Number of leaves of a bracket expression: ints, and pairs of expressions."""
    return 1 if isinstance(x, int) else sum(map(leaf_count, x))


def corrupted(rng: random.Random, combo: dict, degree: tuple[int, ...]) -> tuple[dict, tuple]:
    """``combo`` with one coefficient moved by 1, one tuple dropped, or one added.

    An added tuple is a random arrangement of the letters of ``degree``.
    Returns the new combination, without zero coefficients, and the tuple
    that changed.
    """
    bad = dict(combo)
    change = rng.choice(("coefficient", "drop", "add") if bad else ("add",))
    if change == "add":
        letters = [i + 1 for i, c in enumerate(degree) for _ in range(c)]
        rng.shuffle(letters)
        t = tuple(letters)
        bad[t] = bad.get(t, 0) + rng.choice((-1, 1))
    else:
        t = rng.choice(sorted(bad))
        bad[t] = 0 if change == "drop" else bad[t] + rng.choice((-1, 1))
    return {u: k for u, k in bad.items() if k}, t


# chains whose reversal (a2, a1) is a different algebra
REVERSIBLE_CHAINS = ((1, 2), (1, 3), (2, 3))


def weights_up_to(height: int):
    """Rank-3 weights of height 1..``height``, as a hypothesis strategy."""
    coefficient = st.integers(0, height)
    return st.tuples(coefficient, coefficient, coefficient).filter(
        lambda w: 1 <= sum(w) <= height
    )


class OffByOneTable(MultiplicityTable):
    """A recurrence whose convolution at weight (1, 2, 2) is off by denom * lead.

    On the (1, 2) chain that cell solves the recurrence (no (lam, alpha_i) is
    positive), so its c-value comes out exact but one too large, and the
    multiplicity 2 + 1/60 is not an integer.
    """

    def _convolution(self, lam: tuple[int, ...]) -> int:
        rhs = super()._convolution(lam)
        if lam != (1, 2, 2):
            return rhs
        return rhs + self._denom * (self._norm[lam] - 2 * sum(lam))


def expand_tuple(t: tuple[int, ...]) -> NcPolynomial:
    """Tensor expansion of the left-normed bracket encoded by ``t``."""
    return expand_combination({t: 1})


def poly_sum(terms: Iterable[tuple[int, NcPolynomial]]) -> NcPolynomial:
    """The sum of k * p over the pairs (k, p), with zero coefficients dropped."""
    out: dict[bytes, int] = {}
    for k, p in terms:
        for w, c in p.coeffs.items():
            out[w] = out.get(w, 0) + k * c
    return NcPolynomial({w: c for w, c in out.items() if c})


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
        # at the relation's own weight the one prefix is the empty one
        for prefix in standard_tuples_of_weight(rest) if any(rest) else [()]:
            rows.append(expand_tuple(prefix + s).coeffs)
    return rows


def in_relation_ideal(A: GeneralizedCartanMatrix, lam: tuple[int, ...], poly: NcPolynomial) -> bool:
    """Whether a tensor polynomial of multidegree ``lam`` lies in the relation ideal."""
    rows = relation_ideal_rows(A, lam)
    return matrix_rank(rows + [poly.coeffs]) == matrix_rank(rows)


# ---------------------------------------------------------------------------
# the interval model, enumerated: the reference for rootmult.formula's counts
# ---------------------------------------------------------------------------

def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the out-of-range convention C(n, k) = 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def stars_and_bars(n: int, l: int) -> int:
    """Number of ways to put n indistinguishable balls into l boxes: C(n+l-1, l-1)."""
    if l <= 0:
        raise ValueError(f"need at least one box, got {l}")
    if n < 0:
        raise ValueError(f"negative ball count {n}")
    return binomial(n + l - 1, l - 1)


@dataclass(frozen=True)
class IntervalConfig:
    """Ball counts (ones, threes) per interval, first (rightmost) interval first."""

    intervals: tuple[tuple[int, int], ...]
    params: FormulaParams

    def __post_init__(self) -> None:
        p = self.params
        if len(self.intervals) != p.n2:
            raise ValueError(f"expected {p.n2} intervals, got {len(self.intervals)}")
        ones = sum(i for i, _ in self.intervals)
        threes = sum(j for _, j in self.intervals)
        if ones != p.n1 or threes != p.n3:
            raise ValueError(
                f"ball totals ({ones}, {threes}) do not match weight ({p.n1}, {p.n3})"
            )
        i1, j1 = self.intervals[0]
        if (i1, j1) == (0, 0) or i1 > p.a1 or j1 > p.a2:
            raise ValueError(f"inadmissible first interval ({i1}, {j1})")

    @property
    def first(self) -> tuple[int, int]:
        return self.intervals[0]


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered splits of ``total`` into ``parts`` nonnegative summands."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_configs(p: FormulaParams) -> list[IntervalConfig]:
    """All admissible configurations, in a fixed deterministic order.

    First-interval contents ascend lexicographically, then the remaining 1s,
    then the remaining 3s.  The list length is ``interval_counts(p).total``.
    """
    out: list[IntervalConfig] = []
    for i in range(min(p.a1, p.n1) + 1):
        for j in range(min(p.a2, p.n3) + 1):
            if (i, j) == (0, 0):
                continue
            for ones in compositions(p.n1 - i, p.n2 - 1):
                for threes in compositions(p.n3 - j, p.n2 - 1):
                    intervals = ((i, j),) + tuple(zip(ones, threes))
                    out.append(IntervalConfig(intervals, p))
    return out


def is_trivial_pattern(c: IntervalConfig) -> bool:
    """Single ball in the first interval followed by the forced run of empty intervals.

    Such a configuration encodes an element killed by a defining relation:
    the tuple tail reads (2, ..., 2, ball, 2) with a_i twos, and applying
    a_i twos to a single ball is exactly the vanishing power of the adjoint.
    """
    p = c.params
    if c.first == (1, 0):
        return p.n2 >= p.a1 + 1 and all(c.intervals[k] == (0, 0) for k in range(1, p.a1))
    if c.first == (0, 1):
        return p.n2 >= p.a2 + 1 and all(c.intervals[k] == (0, 0) for k in range(1, p.a2))
    return False


def is_dependent_pattern(c: IntervalConfig) -> bool:
    """Exactly two identical balls in the first interval.

    The pair (ball, ball, 2) commutes with the delimiter, so the
    configuration duplicates one with the pair split across the first two
    intervals.  A first interval (2, 0) already presupposes a1 >= 2 and
    (0, 2) presupposes a2 >= 2; the enumeration never produces them
    otherwise.
    """
    return c.first in ((2, 0), (0, 2))


def canonical_configs(p: FormulaParams) -> list[IntervalConfig]:
    """Configurations surviving both pattern subtractions, enumeration order."""
    return [
        c
        for c in enumerate_configs(p)
        if not is_trivial_pattern(c) and not is_dependent_pattern(c)
    ]


def config_to_tuple(c: IntervalConfig) -> StandardTuple:
    """Canonical standard tuple of a configuration.

    Reading the tuple right to left: a "2", the first interval's balls,
    the next "2", the second interval's balls, and so on.  Written left to
    right, each interval therefore emits its 3s, then its 1s, then the "2"
    to its right.  The within-interval order is an arbitrary canonical
    choice; it does not matter in the quotient.
    """
    parts: list[int] = []
    for ones, threes in reversed(c.intervals):
        parts.extend([3] * threes)
        parts.extend([1] * ones)
        parts.append(2)
    return tuple(parts)


@dataclass(frozen=True)
class RankCheck:
    canonical_count: int
    rank_in_quotient: int
    oracle_mult: int


def independent_rank_check(
    A: GeneralizedCartanMatrix, p: FormulaParams, engine: SerreQuotient
) -> RankCheck:
    """Measure the canonical family inside the quotient.

    Converts the canonical configurations to tuples and computes the rank
    of their span in the root space built by the quotient oracle ``engine``
    on the chain ``A``.  The multiplicity comes from the Peterson
    recurrence, so comparing the two compares independent oracles.  The
    three numbers are returned for reporting; the rank can never exceed the
    multiplicity.
    """
    lam = (p.n1, p.n2, p.n3)
    family = [config_to_tuple(c) for c in canonical_configs(p)]
    rank = engine.standard_form_rank(lam, family)
    mult = MultiplicityTable(A).multiplicity(lam)
    return RankCheck(canonical_count=len(family), rank_in_quotient=rank, oracle_mult=mult)
