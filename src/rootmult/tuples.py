"""Interval model for the rank-3 chain algebras.

A standard tuple of weight (n1, n2, n3) whose rightmost entry is 2 is
abstracted to a sequence of n2 intervals, one per "2", each holding a count
of 1s and of 3s; each "2" owns the interval to its left, and the order of
balls inside an interval is immaterial in the quotient (adjacent 1/3 swaps
change nothing there).  The model is counted in closed form; enumerating
and classifying it into vanishing and duplicate patterns checks the counts,
and its canonical tuples feed rank checks against the quotient oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .formula import FormulaParams, interval_counts
from .freelie import StandardTuple
from .gcm import GeneralizedCartanMatrix, WeightVector, rank3_chain
from .peterson import MultiplicityTable
from .serre import SerreQuotient


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
    then the remaining 3s.  The list length equals
    :func:`rootmult.formula.total_configs`.
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


@dataclass(frozen=True)
class CanonicalCount:
    raw: int
    trivial: int
    dependent: int
    canonical: int


def count_canonical(p: FormulaParams) -> CanonicalCount:
    """Closed-form count of the model: canonical = raw - trivial - dependent.

    All four come from :func:`rootmult.formula.interval_counts`: raw is the
    total and dependent the guarded dependent count.  trivial is counted
    per colour: a first interval (1, 0) and a1 - 1 empty ones leave n1 - 1
    ones and n3 threes for the other n2 - a1 intervals; (0, 1) likewise
    with a2.
    """
    counts = interval_counts(p)
    return CanonicalCount(counts.total, counts.trivial, counts.dependent_guarded, counts.canonical)


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
    A: GeneralizedCartanMatrix,
    p: FormulaParams,
    engine: SerreQuotient | None = None,
) -> RankCheck:
    """Measure the canonical family inside the quotient.

    Converts the canonical configurations to tuples and computes the rank
    of their span in the root space built by the quotient oracle.  The
    multiplicity comes from the Peterson recurrence, so comparing the two
    compares independent oracles.  The three numbers are returned for
    reporting; the rank can never exceed the multiplicity.  ``A`` and
    ``engine.algebra`` must both have the entries of the chain (p.a1, p.a2);
    otherwise ``ValueError`` is raised.
    """
    if A.entries != rank3_chain(p.a1, p.a2).entries:
        raise ValueError(f"matrix {A.entries} is not the chain ({p.a1}, {p.a2})")
    if engine is None:
        engine = SerreQuotient(A)
    elif engine.algebra.entries != A.entries:
        raise ValueError(f"engine is built on {engine.algebra.entries}, not on {A.entries}")
    lam = WeightVector((p.n1, p.n2, p.n3))
    if lam.height > engine.height_cap:
        raise engine.scale_error(lam)
    family = [config_to_tuple(c) for c in canonical_configs(p)]
    rank = engine.standard_form_rank(lam, family)
    mult = MultiplicityTable(A).multiplicity(lam)
    return RankCheck(canonical_count=len(family), rank_in_quotient=rank, oracle_mult=mult)
