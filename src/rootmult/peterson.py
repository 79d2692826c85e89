"""Root multiplicities by the Peterson recurrence, in exact arithmetic.

For a symmetric generalized Cartan matrix with diagonal 2, the form
(.,.) of :meth:`rootmult.gcm.GeneralizedCartanMatrix.form` and the normalization
(rho, alpha_i) = 1 give, for every weight lam of height >= 2,

    ((lam, lam) - 2 (rho, lam)) * c_lam
        = sum over mu + nu = lam, mu, nu > 0 of (mu, nu) * c_mu * c_nu,

where c_lam = sum over k >= 1 dividing lam of mult(lam / k) / k.  Solving
for c_lam weight by weight and peeling off the divisor terms recovers the
multiplicities.  This scales to far greater heights than the tensor
algebra, at the price of being a recurrence rather than a construction.

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
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .gcm import GeneralizedCartanMatrix, WeightVector, query_weight


class RecurrenceError(RuntimeError):
    """Recurrence produced an inconsistent or non-integral value: a bug, not data."""


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

    def __init__(self, A: GeneralizedCartanMatrix) -> None:
        if not A.is_symmetric:
            raise ValueError("recurrence requires a symmetric Cartan matrix")
        self.algebra = A
        self._mult: dict[tuple[int, ...], int] = {}
        self._cnum: dict[tuple[int, ...], int] = {}
        self._denom = 1
        self._pairing = A.form

    def _grow_denominator(self, height: int) -> None:
        # never shrink: queries can arrive in any height order
        target = lcm(self._denom, *range(2, height + 1)) if height > 1 else self._denom
        if target == self._denom:
            return
        factor = target // self._denom
        self._cnum = {w: c * factor for w, c in self._cnum.items()}
        self._denom = target

    def _convolution(self, lam: tuple[int, ...]) -> int:
        """Right-hand side, scaled by denom**2; pairs are halved by symmetry."""
        cnum = self._cnum
        total = 0
        for mu in itertools.product(*(range(c + 1) for c in lam)):
            a = cnum.get(mu)
            if not a:
                continue
            nu = tuple(l - m for l, m in zip(lam, mu))
            if mu > nu:
                continue
            if not any(nu):
                continue
            b = cnum.get(nu)
            if not b:
                continue
            term = self._pairing(mu, nu) * a * b
            total += term if mu == nu else 2 * term
        return total

    def _cell(self, lam: tuple[int, ...]) -> None:
        height = sum(lam)
        denom = self._denom
        if height == 1:
            self._mult[lam] = 1
            self._cnum[lam] = denom
            return
        g = 0
        for c in lam:
            g = gcd(g, c)
        divisor_part = 0  # sum of mult(lam/k)/k for k >= 2, scaled by denom
        for k in range(2, g + 1):
            if g % k:
                continue
            divisor_part += self._mult[tuple(c // k for c in lam)] * (denom // k)
        lead = self._pairing(lam, lam) - 2 * height
        if lead:
            # s_i lam = lam - (lam, alpha_i) alpha_i lowers coefficient i only
            for i, row in enumerate(self.algebra.entries):
                p = sum(a * c for a, c in zip(row, lam))
                if p > 0:
                    low = lam[i] - p
                    mult = self._mult[lam[:i] + (low,) + lam[i + 1 :]] if low >= 0 else 0
                    self._mult[lam] = mult
                    self._cnum[lam] = divisor_part + mult * denom
                    return
        rhs = self._convolution(lam)
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

    def multiplicity(self, lam: WeightVector | Sequence[int]) -> int:
        """mult(lam); 0 for weights that are not roots."""
        lam = query_weight(self.algebra, lam)
        self._ensure(lam.coeffs)
        return self._mult[lam.coeffs]

    def c_value(self, lam: WeightVector | Sequence[int]) -> Fraction:
        """The auxiliary c_lam = sum over k dividing lam of mult(lam/k)/k."""
        lam = query_weight(self.algebra, lam)
        self._ensure(lam.coeffs)
        return Fraction(self._cnum[lam.coeffs], self._denom)

    def computed(self) -> dict[WeightVector, int]:
        """Snapshot of every memoized multiplicity."""
        return {WeightVector(w): m for w, m in self._mult.items()}
