"""Defining relations and the brute-force quotient oracle.

The positive part of the algebra of a symmetric generalized Cartan matrix A
is the free Lie algebra on e_1..e_r modulo the ideal generated by the
elements ad(e_i)^(1-A_ij)(e_j).  In a free Lie algebra the ideal generated
by a set S is spanned by the iterated left brackets
[e_{i_1}, [..., [e_{i_k}, s] ...]] with s in S: brackets by arbitrary
elements reduce to chains of single-generator brackets via the Jacobi
identity, because the generators generate the whole algebra.  The graded
slice of that span is computed here by exact integer linear algebra, so

    dim g_lam = free_lie_dim(lam) - dim ideal_lam.
"""
from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Sequence

from .freelie import (
    BracketExpr,
    NcPolynomial,
    StandardTuple,
    ad_generator,
    expand_standard_tuple,
    free_lie_dim,
    tuple_to_expr,
)
from .gcm import GeneralizedCartanMatrix, WeightVector, query_weight
from .linalg import EchelonBasis

DEFAULT_HEIGHT_CAP = 10


class OracleScaleError(RuntimeError):
    """Raised instead of silently truncating when a weight exceeds the height cap."""


@dataclass(frozen=True)
class SerreElement:
    """One defining relation ad(e_i)^(1-A_ij)(e_j), stored left-normed."""

    source: tuple[int, int]
    tuple_form: StandardTuple
    weight: WeightVector

    @property
    def expression(self) -> BracketExpr:
        return tuple_to_expr(self.tuple_form)


def serre_elements(A: GeneralizedCartanMatrix) -> list[SerreElement]:
    """Defining relations of A, one per ordered pair (i, j) with i != j.

    When A_ij = 0 the two relations [e_i, e_j] and [e_j, e_i] differ only
    by sign; only the pair with i < j is kept.
    """
    out: list[SerreElement] = []
    r = A.rank
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i == j:
                continue
            a_ij = A[i - 1, j - 1]
            if a_ij == 0 and i > j:
                continue
            power = 1 - a_ij
            coeffs = [0] * r
            coeffs[i - 1] = power
            coeffs[j - 1] += 1
            out.append(
                SerreElement(
                    source=(i, j),
                    tuple_form=(i,) * power + (j,),
                    weight=WeightVector(tuple(coeffs)),
                )
            )
    return out


class SerreQuotient:
    """Graded quotient engine for one algebra, memoizing ideal bases by weight.

    The ideal slice at a weight lam is built bottom-up, filling the box
    below lam in lexicographic order: its spanning rows are the relations
    of weight lam plus [e_i, b] for every basis row b of the slice at
    lam - alpha_i.  Bracketing by a generator is linear, so propagating a
    basis (rather than every bracket chain) spans the same space while
    keeping the matrices small.  All elimination is fraction-free integer
    arithmetic; results are exact.

    Instances are safe to share across threads: a lock serializes basis
    construction, and cached values are immutable afterwards.
    """

    def __init__(
        self,
        A: GeneralizedCartanMatrix,
        height_cap: int = DEFAULT_HEIGHT_CAP,
    ) -> None:
        self.algebra = A
        self.height_cap = height_cap
        self.relations = serre_elements(A)
        self._rows_by_weight: dict[tuple[int, ...], list[NcPolynomial]] = {}
        for el in self.relations:
            rows = self._rows_by_weight.setdefault(el.weight.coeffs, [])
            rows.append(expand_standard_tuple(el.tuple_form))
        self._bases: dict[tuple[int, ...], EchelonBasis] = {}
        self._lock = threading.RLock()

    def scale_error(self, lam: WeightVector) -> OracleScaleError:
        return OracleScaleError(
            f"oracle scale exceeded: weight {lam.coeffs} has height {lam.height}, "
            f"cap is {self.height_cap}"
        )

    def _feasible(self, coeffs: tuple[int, ...]) -> bool:
        return any(
            all(ws <= c for ws, c in zip(w, coeffs)) for w in self._rows_by_weight
        )

    def _slice(self, coeffs: tuple[int, ...]) -> EchelonBasis:
        """Ideal slice at ``coeffs``; every slice below it must already be built."""
        basis = EchelonBasis()
        if self._feasible(coeffs):
            for poly in self._rows_by_weight.get(coeffs, ()):
                basis.insert(poly.coeffs)
            for i, c in enumerate(coeffs):
                if c == 0:
                    continue
                below = coeffs[:i] + (c - 1,) + coeffs[i + 1 :]
                for row in self._bases[below].pivots.values():
                    wrapped = NcPolynomial()
                    wrapped.coeffs = row
                    basis.insert(ad_generator(i + 1, wrapped).coeffs)
        return basis

    def _basis(self, coeffs: tuple[int, ...]) -> EchelonBasis:
        bases = self._bases
        if coeffs not in bases:
            # lexicographic fill of the box visits every componentwise-smaller
            # weight first, which is all a slice depends on
            for mu in itertools.product(*(range(c + 1) for c in coeffs)):
                if mu not in bases:
                    bases[mu] = self._slice(mu)
        return bases[coeffs]

    def ideal_dim(self, lam: WeightVector | Sequence[int]) -> int:
        """Dimension of the graded slice of the relation ideal at ``lam``."""
        lam = query_weight(self.algebra, lam)
        with self._lock:
            return self._basis(lam.coeffs).rank

    def multiplicity(self, lam: WeightVector | Sequence[int]) -> int:
        """dim g_lam = free dimension minus ideal slice dimension."""
        lam = query_weight(self.algebra, lam)
        if lam.height > self.height_cap:
            raise self.scale_error(lam)
        with self._lock:
            mult = free_lie_dim(lam) - self._basis(lam.coeffs).rank
        if mult < 0:
            raise ArithmeticError(f"ideal slice larger than free component at {lam.coeffs}")
        return mult

    def standard_form_rank(
        self,
        lam: WeightVector | Sequence[int],
        family: Sequence[StandardTuple],
    ) -> int:
        """Dimension of the span of the given standard tuples inside g_lam.

        Computed as rank(family rows + ideal basis) minus the ideal rank,
        by inserting the family into a copy of the ideal basis.
        """
        lam = query_weight(self.algebra, lam)
        rank = self.algebra.rank
        for t in family:
            degree = tuple(t.count(i + 1) for i in range(rank))
            if degree != lam.coeffs:
                raise ValueError(f"tuple {t} has multidegree {degree}, expected {lam.coeffs}")
        if not family:
            return 0
        with self._lock:
            scratch = self._basis(lam.coeffs).copy()
        return scratch.insert_all(expand_standard_tuple(t).coeffs for t in family)

    def in_ideal(self, lam: WeightVector | Sequence[int], poly: NcPolynomial) -> bool:
        """Exact membership of a tensor polynomial in the ideal slice at ``lam``.

        A nonzero ``poly`` must have multidegree ``lam``.
        """
        lam = query_weight(self.algebra, lam)
        if not poly:
            return True
        degree = poly.multidegree(self.algebra.rank)
        if degree != lam:
            raise ValueError(f"polynomial has multidegree {degree.coeffs}, expected {lam.coeffs}")
        with self._lock:
            return self._basis(lam.coeffs).contains(poly.coeffs)
