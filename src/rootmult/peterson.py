"""Root multiplicities by the Peterson recurrence, in exact arithmetic.

For a symmetric generalized Cartan matrix A with diagonal 2, the invariant
form (x, y) = x . A y on coefficient tuples, (alpha_i, alpha_j) = A_ij, and
the normalization (rho, alpha_i) = 1 give, for every weight lam of height >= 2,

    ((lam, lam) - 2 (rho, lam)) * c_lam
        = sum over mu + nu = lam, mu, nu > 0 of (mu, nu) * c_mu * c_nu,

where c_lam = sum over k >= 1 dividing lam of mult(lam / k) / k (Kac,
*Infinite-dimensional Lie algebras*, Ch. 11).  Solving for c_lam weight by
weight and peeling off the divisor terms recovers the multiplicities.  This
scales to far greater heights than the tensor algebra, at the price of
being a recurrence rather than a construction.

Each cell computes A lam once.  Its entries are the (lam, alpha_i), its dot
product with lam is (lam, lam), stored for the cell, and every pair of the
convolution reads (mu, nu) = mu . A lam - (mu, mu).  The pairs (mu, nu) and
(nu, mu) give the same term, so the convolution visits only mu <= nu in
lexicographic order, which bounds mu_1 by lam_1 // 2, and counts the
off-diagonal pairs twice.

The left factor (lam, lam) - 2 ht(lam) vanishes for some weights (for
instance weight (1, 0, 1) of any chain matrix).  Such a weight is never a
root: imaginary roots have (lam, lam) <= 0 and positive height, and
non-simple real roots have (lam, lam) = 2 and height >= 2, so the factor
is strictly negative for every non-simple root.  The recurrence therefore
reports multiplicity 0 there, after checking that the right-hand side
vanishes as consistency demands; a nonzero right-hand side would mean the
implementation is broken and raises rather than guessing.

Most cells skip the convolution.  Multiplicities are Weyl-invariant (Kac,
*Infinite-dimensional Lie algebras*, Prop. 5.1), and for a weight lam with
p = (lam, alpha_i) > 0 the reflection s_i lam = lam - p alpha_i is a lower
weight, already filled.  So mult(lam) = mult(s_i lam), or 0 when s_i lam
has a negative coefficient, and c_lam follows from it and the divisor
terms.  Only cells with (lam, alpha_i) <= 0 for every i, and the cells with
a vanishing left factor, run the convolution.  The singular cells keep it
even when a reflection is available: their zero right-hand side is the
recurrence's one in-program consistency check.
"""
from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import mul, sub
from typing import TYPE_CHECKING, Sequence

from .gcm import RecurrenceError, cartan_matrix, query_weight

if TYPE_CHECKING:
    from fractions import Fraction


class MultiplicityTable:
    """Memoized multiplicities and c-values for one algebra.

    Internally c-values are stored as integer numerators over one shared
    denominator (the lcm of 1..H for the largest height H seen), so the
    convolution runs on plain integers; every division is checked exact.
    A cell of height >= 2 with a nonzero left factor and (lam, alpha_i) > 0
    for some i takes its multiplicity from s_i lam, for the first such i;
    every other cell solves the recurrence.  A table is bound to one
    algebra; fresh tables give identical values.
    """

    def __init__(self, A: Sequence[Sequence[int]]) -> None:
        A = cartan_matrix(A)
        if A != tuple(zip(*A)):
            raise ValueError("recurrence requires a symmetric Cartan matrix")
        self.algebra = A
        self._mult: dict[tuple[int, ...], int] = {}
        self._cnum: dict[tuple[int, ...], int] = {}
        self._norm: dict[tuple[int, ...], int] = {}  # (lam, lam) of every filled cell
        self._denom = 1

    def _grow_denominator(self, height: int) -> None:
        # never shrink: queries can arrive in any height order
        target = lcm(self._denom, *range(2, height + 1))
        if target == self._denom:
            return
        factor = target // self._denom
        self._cnum = {w: c * factor for w, c in self._cnum.items()}
        self._denom = target

    def _convolution(self, lam: tuple[int, ...], a_lam: list[int]) -> int:
        """Right-hand side, scaled by denom**2, over mu <= lam - mu; ``a_lam`` is A lam."""
        cnum = self._cnum
        norm = self._norm
        half = (range(lam[0] // 2 + 1),) + tuple(range(c + 1) for c in lam[1:])
        total = 0
        for mu in itertools.product(*half):
            a = cnum.get(mu)
            if not a:
                continue
            nu = tuple(map(sub, lam, mu))
            if mu > nu:
                continue
            b = cnum.get(nu)
            if not b:
                continue
            term = (sum(map(mul, mu, a_lam)) - norm[mu]) * a * b
            total += term if mu == nu else 2 * term
        return total

    def _cell(self, lam: tuple[int, ...]) -> None:
        # A lam gives both (lam, alpha_i) = (A lam)_i and (lam, lam) = lam . A lam
        a_lam = [sum(map(mul, row, lam)) for row in self.algebra]
        norm = self._norm[lam] = sum(map(mul, lam, a_lam))
        height = sum(lam)
        denom = self._denom
        if height == 1:
            self._mult[lam] = 1
            self._cnum[lam] = denom
            return
        g = gcd(*lam)
        divisor_part = 0  # sum of mult(lam/k)/k for k >= 2, scaled by denom
        for k in range(2, g + 1):
            if g % k:
                continue
            divisor_part += self._mult[tuple(c // k for c in lam)] * (denom // k)
        lead = norm - 2 * height
        if lead:
            # s_i lam = lam - (lam, alpha_i) alpha_i lowers coefficient i only
            for i, p in enumerate(a_lam):
                if p > 0:
                    low = lam[i] - p
                    mult = self._mult[lam[:i] + (low,) + lam[i + 1 :]] if low >= 0 else 0
                    self._mult[lam] = mult
                    self._cnum[lam] = divisor_part + mult * denom
                    return
        rhs = self._convolution(lam, a_lam)
        if lead == 0:
            if rhs != 0:
                raise RecurrenceError(
                    f"recurrence singular at weight {lam}: zero left factor "
                    f"with nonzero right-hand side"
                )
            self._mult[lam] = 0
            self._cnum[lam] = divisor_part
            return
        cnum, rem = divmod(rhs, denom * lead)
        if rem:
            raise RecurrenceError(f"internal consistency failure: c-value at {lam} not exact")
        mult, rem = divmod(cnum - divisor_part, denom)
        if rem or mult < 0:
            from fractions import Fraction

            raise RecurrenceError(
                f"internal consistency failure: multiplicity at {lam} "
                f"is {Fraction(cnum - divisor_part, denom)}"
            )
        self._mult[lam] = mult
        self._cnum[lam] = cnum

    def _ensure(self, lam: tuple[int, ...]) -> None:
        if lam in self._mult:
            return
        self._grow_denominator(sum(lam))
        # lexicographic fill of the box visits every componentwise-smaller
        # weight first, which is all a cell depends on
        for mu in itertools.product(*(range(c + 1) for c in lam)):
            if any(mu) and mu not in self._mult:
                self._cell(mu)

    def multiplicity(self, lam: Sequence[int]) -> int:
        """mult(lam); 0 for weights that are not roots."""
        lam = query_weight(self.algebra, lam)
        self._ensure(lam)
        return self._mult[lam]

    def c_value(self, lam: Sequence[int]) -> Fraction:
        """The auxiliary c_lam = sum over k dividing lam of mult(lam/k)/k."""
        from fractions import Fraction  # imported here to keep it out of the CLI's start-up

        lam = query_weight(self.algebra, lam)
        self._ensure(lam)
        return Fraction(self._cnum[lam], self._denom)

    def computed(self) -> dict[tuple[int, ...], int]:
        """Snapshot of every memoized multiplicity, keyed by weight tuple."""
        return dict(self._mult)
