"""Closed-form root-space dimension counts for the rank-3 chain matrices.

The counts live on an interval model.  A standard tuple of weight
(n1, n2, n3) whose rightmost entry is 2 is abstracted to a sequence of n2
intervals, one per "2", each holding a count of 1s and of 3s: each "2" owns
the interval to its left, and the order of the balls inside an interval is
immaterial in the quotient (adjacent 1/3 swaps change nothing there).  The
first (rightmost) interval is not empty and holds at most a1 ones and a2
threes.

:func:`interval_counts` evaluates every count of the model at one weight,
once, into an :class:`IntervalCounts`: the admissible configurations
(``raw``), the ones duplicating another configuration (``dependent``, one
shape per name in :data:`VARIANTS`), the ones whose element is zero
(``vanishing``, the paper's pooled count) and the per-colour trivial count.
A ``compare`` row reads all of its closed-form columns from that one
evaluation.  Each function takes the five integers a1, a2, n1, n2, n3 as
plain arguments, and :func:`interval_counts` checks them.

The paper's dimension is raw minus dependent minus vanishing, piecewise in
n2: the vanishing count for label a_i is subtracted exactly when
n2 >= 1 + a_i.  Both, one or neither may hold: for a1 <= a2 only the first
count applies when 1 + a1 <= n2 < 1 + a2, and for a1 > a2 only the second
when 1 + a2 <= n2 < 1 + a1.  A count that does not apply is zero, so
:meth:`IntervalCounts.dim`, which subtracts both, is the piecewise formula.

The module imports only the standard library, so the closed form is
independent of both oracles.  The enumeration of the model, which checks
these counts configuration by configuration, is a test reference.
"""
from __future__ import annotations

from math import comb
from operator import index
from typing import NamedTuple

# the published shapes of the dependent-configuration count: the two fixed
# shapes differ in one lower binomial index; "guarded" keeps each term only
# when the matching chain label allows the pattern it counts (a_i >= 2),
# which is the shape the interval model supports
VARIANTS = ("section44", "lemma410", "guarded")


class IntervalCounts(NamedTuple):
    """Every count of the interval model at one weight; see :func:`interval_counts`."""

    raw: int
    dependent_section44: int
    dependent_lemma410: int
    dependent_guarded: int
    vanishing_first: int
    vanishing_second: int
    trivial: int

    def dependent(self, variant: str = "guarded") -> int:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r} (choose from {', '.join(VARIANTS)})")
        return getattr(self, "dependent_" + variant)

    def dim(self, variant: str = "guarded") -> int:
        """The closed form: raw minus dependent minus the applied vanishing counts."""
        return self.raw - self.dependent(variant) - self.vanishing_first - self.vanishing_second

    @property
    def canonical(self) -> int:
        """The interval model's count: raw minus per-colour trivial minus guarded dependent."""
        return self.raw - self.trivial - self.dependent_guarded


def interval_counts(a1: int, a2: int, n1: int, n2: int, n3: int) -> IntervalCounts:
    """Evaluate the interval model's counts at the weight (n1, n2, n3) of chain (a1, a2).

    The five arguments must be integers (``operator.index``, so 2.5 and '2'
    are refused, not truncated), the labels at least 1 and the coefficients
    at least 2; anything else raises ``ValueError``.

    With k = n2 - 2, a first interval holding i 1s leaves C(n1 - i + k, k)
    ways to spread the other 1s over the other n2 - 1 intervals, and
    likewise for the 3s.

    * ``raw`` sums the product over first intervals (i, j) with
      0 <= i <= min(a1, n1), 0 <= j <= min(a2, n3), (i, j) != (0, 0).
      Contents past n1 or n3 would leave a negative ball count, a zero
      binomial, so the sums stop there.  The 1s and the 3s spread
      independently, so the sum over the rectangle is a product of two sums
      less the (0, 0) corner.  Each sum is closed by the hockey-stick
      identity, with m = min(a1, n1) for the 1s:

          sum_{i=0}^{m} C(n1+k-i, k) = C(n1+k+1, k+1) - C(n1+k-m, k+1)

      and likewise with m = min(a2, n3) for the 3s.
    * A first interval of exactly two identical balls is dependent: the
      pair (ball, ball, 2) commutes with the delimiter, so the
      configuration duplicates one with the pair split across the first
      two intervals.  The products count a first interval (2, 0)
      (``ones_term``) and (0, 2) (``threes_term``).  "lemma410" adds both;
      "guarded" keeps each only when its label is at least 2, the only labels
      that admit the pattern; "section44" takes the second lower index of the
      ones product as n2 - 1.
    * A single ball in the first interval followed by a_i - 1 empty
      intervals is vanishing: the tuple tail reads (2, ..., 2, ball, 2) with
      a_i twos, and applying a_i twos to a single ball is the power of the
      adjoint that a defining relation kills.  With m_i = n2 - a_i - 1 the
      other balls go to the remaining m_i + 1 intervals.  The paper pools
      both colours into one stars-and-bars, C(n1 + n3 - 1 + m_i, m_i)
      (``vanishing_*``); the per-colour count multiplies the two colours'
      spreads (``trivial``).  Both are zero when n2 < a_i + 1, where the
      pattern cannot occur.
    """
    try:
        a1, a2, n1, n2, n3 = index(a1), index(a2), index(n1), index(n2), index(n3)
    except TypeError:
        raise ValueError(
            f"closed-form parameters must be integers, got {(a1, a2, n1, n2, n3)!r}"
        ) from None
    if a1 < 1 or a2 < 1:
        raise ValueError(f"chain labels must be >= 1, got ({a1}, {a2})")
    if min(n1, n2, n3) < 2:
        raise ValueError(
            "closed form requires n1, n2, n3 >= 2; "
            "use the recurrence or quotient oracle for smaller coefficients"
        )
    k = n2 - 2
    ones_first = comb(n1 + k, k)
    threes_first = comb(n3 + k, k)
    ones_sum = comb(n1 + k + 1, k + 1) - comb(n1 + k - min(a1, n1), k + 1)
    threes_sum = comb(n3 + k + 1, k + 1) - comb(n3 + k - min(a2, n3), k + 1)
    raw = ones_sum * threes_sum - ones_first * threes_first

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
        raw,
        section44,
        ones_term + threes_term,
        guarded,
        vanishing_first,
        vanishing_second,
        trivial,
    )


def closed_form_dim(
    a1: int, a2: int, n1: int, n2: int, n3: int, variant: str = "guarded"
) -> int:
    """The paper's piecewise dimension at one weight, with the given dependent shape."""
    return interval_counts(a1, a2, n1, n2, n3).dim(variant)
