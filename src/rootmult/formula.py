"""Closed-form root-space dimension counts for the rank-3 chain matrices.

The counts live on the interval model of :mod:`rootmult.tuples`: a weight
(n1, n2, n3) is realized by tuples whose n2 entries "2" delimit intervals
holding the 1s and 3s.  :func:`interval_counts` evaluates every count of the
model at one weight, once: the admissible configurations (``total``), the
ones duplicating another configuration (``dependent``, one shape per
:class:`Variant`), the ones whose element is zero (``vanishing``, the
paper's pooled count) and the per-colour trivial count of
:func:`rootmult.tuples.count_canonical`.  ``total_configs``,
``count_dependent``, ``count_vanishing`` and the piecewise combination
``closed_form_dim`` read their values from that one evaluation, so a
``compare`` row evaluates the model once for all of its closed-form columns.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb
from typing import NamedTuple


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
class FormulaParams:
    """Chain labels (a1, a2) and weight coefficients (n1, n2, n3), all n_i >= 2."""

    a1: int
    a2: int
    n1: int
    n2: int
    n3: int

    def __post_init__(self) -> None:
        if self.a1 < 1 or self.a2 < 1:
            raise ValueError(f"chain labels must be >= 1, got ({self.a1}, {self.a2})")
        if min(self.n1, self.n2, self.n3) < 2:
            raise ValueError(
                "closed form requires n1, n2, n3 >= 2; "
                "use the recurrence or quotient oracle for smaller coefficients"
            )


class Variant(str, enum.Enum):
    """Published shapes of the dependent-configuration count.

    The two fixed shapes differ in one lower binomial index; ``GUARDED``
    keeps each term only when the matching chain label allows the pattern
    it counts (a_i >= 2), which is the shape the interval model supports.
    """

    SECTION44 = "section44"
    LEMMA410 = "lemma410"
    GUARDED = "guarded"


class IntervalCounts(NamedTuple):
    """Every count of the interval model at one weight; see :func:`interval_counts`."""

    total: int
    dependent_section44: int
    dependent_lemma410: int
    dependent_guarded: int
    vanishing_first: int
    vanishing_second: int
    trivial: int

    def dependent(self, variant: Variant | str = Variant.GUARDED) -> int:
        variant = Variant(variant)
        if variant is Variant.SECTION44:
            return self.dependent_section44
        if variant is Variant.LEMMA410:
            return self.dependent_lemma410
        return self.dependent_guarded

    def dim(self, variant: Variant | str = Variant.GUARDED) -> int:
        """The closed form: total minus dependent minus the applied vanishing counts."""
        return self.total - self.dependent(variant) - self.vanishing_first - self.vanishing_second

    @property
    def canonical(self) -> int:
        """The interval model's count: total minus per-colour trivial minus guarded dependent."""
        return self.total - self.trivial - self.dependent_guarded


def interval_counts(p: FormulaParams) -> IntervalCounts:
    """Evaluate the interval model's counts at one weight.

    With k = n2 - 2, a first interval holding i 1s leaves C(n1 - i + k, k)
    ways to spread the other 1s over the other n2 - 1 intervals, and
    likewise for the 3s.

    * ``total`` sums the product over first intervals (i, j) with
      0 <= i <= min(a1, n1), 0 <= j <= min(a2, n3), (i, j) != (0, 0).  The
      1s and 3s spread independently, so the sum over the rectangle is a
      product of two sums less the (0, 0) corner, and each sum is closed by
      the hockey-stick identity (see :func:`total_configs`).
    * The dependent products count a first interval (2, 0) (``ones_term``)
      and (0, 2) (``threes_term``).  LEMMA410 adds both; GUARDED keeps each
      only when its label is at least 2; SECTION44 takes the second lower
      index of the ones product as n2 - 1.
    * With m_i = n2 - a_i - 1, a single ball in the first interval followed
      by a_i - 1 empty intervals leaves the other balls for m_i + 1
      intervals.  The paper pools both colours into one stars-and-bars,
      C(n1 + n3 - 1 + m_i, m_i) (``vanishing_*``); the per-colour count
      multiplies the two colours' spreads (``trivial``).  Both are zero
      when n2 < a_i + 1, where the pattern cannot occur.
    """
    a1, a2, n1, n2, n3 = p.a1, p.a2, p.n1, p.n2, p.n3
    k = n2 - 2
    ones_first = comb(n1 + k, k)
    threes_first = comb(n3 + k, k)
    ones_sum = comb(n1 + k + 1, k + 1) - comb(n1 + k - min(a1, n1), k + 1)
    threes_sum = comb(n3 + k + 1, k + 1) - comb(n3 + k - min(a2, n3), k + 1)
    total = ones_sum * threes_sum - ones_first * threes_first

    ones_pair = comb(n1 - 2 + k, k)
    ones_term = ones_pair * threes_first
    threes_term = comb(n3 - 2 + k, k) * ones_first
    section44 = threes_term + ones_pair * comb(n3 + k, k + 1)
    guarded = (ones_term if a1 >= 2 else 0) + (threes_term if a2 >= 2 else 0)

    vanishing_first = vanishing_second = trivial = 0
    m1, m2 = n2 - a1 - 1, n2 - a2 - 1
    if m1 >= 0:
        vanishing_first = comb(n1 + n3 - 1 + m1, m1)
        trivial += comb(n1 - 1 + m1, m1) * comb(n3 + m1, m1)
    if m2 >= 0:
        vanishing_second = comb(n1 + n3 - 1 + m2, m2)
        trivial += comb(n1 + m2, m2) * comb(n3 - 1 + m2, m2)
    return IntervalCounts(
        total,
        section44,
        ones_term + threes_term,
        guarded,
        vanishing_first,
        vanishing_second,
        trivial,
    )


@dataclass(frozen=True)
class DimBreakdown:
    """Full accounting of one closed-form evaluation."""

    total: int
    dependent: int
    vanishing_first: int
    vanishing_second: int
    first_applied: bool
    second_applied: bool
    dim: int


def total_configs(p: FormulaParams) -> int:
    """Count all admissible interval configurations.

    Sums, over first-interval contents (i, j) with 0 <= i <= min(a1, n1),
    0 <= j <= min(a2, n3), (i, j) != (0, 0), the ways to spread the remaining
    balls over the other n2 - 1 intervals.  Contents past n1 or n3 would
    leave a negative ball count, a zero binomial, so the sums stop there.
    The 1s and the 3s spread independently, so the sum over the rectangle
    is a product of two sums, less the (0, 0) corner.  Each sum is closed
    by the hockey-stick identity, with m = min(a1, n1) for the 1s:

        sum_{i=0}^{m} C(n1+n2-2-i, n2-2) = C(n1+n2-1, n2-1) - C(n1+n2-2-m, n2-1)

    and likewise with m = min(a2, n3) for the 3s.
    """
    return interval_counts(p).total


def count_dependent(p: FormulaParams, variant: Variant | str = Variant.GUARDED) -> int:
    """Count configurations whose first interval holds two identical balls.

    Those duplicate a configuration already counted with the pair split
    across the first two intervals, so they are subtracted.
    """
    return interval_counts(p).dependent(variant)


def count_vanishing(p: FormulaParams) -> tuple[int, int]:
    """Counts of single-ball first intervals followed by the forced run of 2s.

    Those configurations encode elements annihilated by the defining
    relations.  Each count is zero whenever n2 < a_i + 1 and the pattern
    cannot occur.
    """
    counts = interval_counts(p)
    return counts.vanishing_first, counts.vanishing_second


def closed_form_dim(p: FormulaParams, variant: Variant | str = Variant.GUARDED) -> DimBreakdown:
    """Piecewise closed-form dimension: total minus dependent minus vanishing.

    The vanishing count for label a_i is subtracted exactly when
    n2 >= 1 + a_i; ``first_applied`` and ``second_applied`` record the two
    tests.  Both, one or neither may hold: for a1 <= a2 only the first
    count applies when 1 + a1 <= n2 < 1 + a2, and for a1 > a2 only the
    second when 1 + a2 <= n2 < 1 + a1.  A count that does not apply is
    zero, so subtracting both counts is the piecewise formula.
    """
    counts = interval_counts(p)
    dependent = counts.dependent(variant)
    return DimBreakdown(
        total=counts.total,
        dependent=dependent,
        vanishing_first=counts.vanishing_first,
        vanishing_second=counts.vanishing_second,
        first_applied=p.n2 >= 1 + p.a1,
        second_applied=p.n2 >= 1 + p.a2,
        dim=counts.dim(variant),
    )
