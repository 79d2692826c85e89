"""Closed-form root-space dimension counts for the rank-3 chain matrices.

The counts live on the interval model of :mod:`rootmult.tuples`: a weight
(n1, n2, n3) is realized by tuples whose n2 entries "2" delimit intervals
holding the 1s and 3s.  ``total_configs`` counts the admissible
configurations, ``count_vanishing`` the ones whose element is zero, and
``count_dependent`` the ones duplicating another configuration.  The
piecewise combination of the three is ``closed_form_dim``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb


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
    is a product of two sums, less the (0, 0) corner.
    """
    ones = [binomial(p.n1 + p.n2 - i - 2, p.n2 - 2) for i in range(min(p.a1, p.n1) + 1)]
    threes = [binomial(p.n2 + p.n3 - j - 2, p.n2 - 2) for j in range(min(p.a2, p.n3) + 1)]
    return sum(ones) * sum(threes) - ones[0] * threes[0]


def count_dependent(p: FormulaParams, variant: Variant | str = Variant.GUARDED) -> int:
    """Count configurations whose first interval holds two identical balls.

    Those duplicate a configuration already counted with the pair split
    across the first two intervals, so they are subtracted.
    """
    variant = Variant(variant)
    ones_term = binomial(p.n1 + p.n2 - 4, p.n2 - 2) * binomial(p.n2 + p.n3 - 2, p.n2 - 2)
    threes_term = binomial(p.n2 + p.n3 - 4, p.n2 - 2) * binomial(p.n1 + p.n2 - 2, p.n2 - 2)
    if variant is Variant.LEMMA410:
        return ones_term + threes_term
    if variant is Variant.SECTION44:
        # second lower index n2 - 1 instead of n2 - 2
        return threes_term + binomial(p.n1 + p.n2 - 4, p.n2 - 2) * binomial(
            p.n2 + p.n3 - 2, p.n2 - 1
        )
    if variant is Variant.GUARDED:
        # a first interval (2, 0) requires a1 >= 2, and (0, 2) requires a2 >= 2
        return (ones_term if p.a1 >= 2 else 0) + (threes_term if p.a2 >= 2 else 0)
    raise ValueError(f"unknown variant {variant!r}")


def count_vanishing(p: FormulaParams) -> tuple[int, int]:
    """Counts of single-ball first intervals followed by the forced run of 2s.

    Those configurations encode elements annihilated by the defining
    relations.  Out-of-range binomials are zero, so each count vanishes
    whenever n2 < a_i + 1 and the pattern cannot occur.
    """
    n = p.n1 + p.n2 + p.n3
    first = binomial(n - p.a1 - 2, p.n2 - p.a1 - 1)
    second = binomial(n - p.a2 - 2, p.n2 - p.a2 - 1)
    return first, second


def closed_form_dim(p: FormulaParams, variant: Variant | str = Variant.GUARDED) -> DimBreakdown:
    """Piecewise closed-form dimension: total minus dependent minus vanishing.

    The vanishing count for label a_i is subtracted exactly when
    n2 >= 1 + a_i; ``first_applied`` and ``second_applied`` record the two
    tests.  Both, one or neither may hold: for a1 <= a2 only the first
    count applies when 1 + a1 <= n2 < 1 + a2, and for a1 > a2 only the
    second when 1 + a2 <= n2 < 1 + a1.
    """
    total = total_configs(p)
    dependent = count_dependent(p, variant)
    v1, v2 = count_vanishing(p)
    first_applied = p.n2 >= 1 + p.a1
    second_applied = p.n2 >= 1 + p.a2
    dim = total - dependent
    if first_applied:
        dim -= v1
    if second_applied:
        dim -= v2
    return DimBreakdown(
        total=total,
        dependent=dependent,
        vanishing_first=v1,
        vanishing_second=v2,
        first_applied=first_applied,
        second_applied=second_applied,
        dim=dim,
    )
