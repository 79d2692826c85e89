"""The quotient oracle: root spaces built by f-images.

The positive part of the Kac-Moody algebra of a symmetric generalized Cartan
matrix A is the free Lie algebra on e_1..e_r modulo the ideal generated by
the elements ad(e_i)^(1-A_ij)(e_j).  For symmetrizable A that ideal is the
largest graded ideal meeting the Cartan subalgebra trivially (Gabber-Kac;
Kac, *Infinite-dimensional Lie algebras*, Thm 9.11).  So an element x of
height >= 2 is zero exactly when every [f_j, x] is, and

    x -> ([f_j, x])_j

embeds g_lam into the direct sum of the g_{lam - alpha_j}.  The root space
g_lam is spanned by the brackets [e_i, y], y running over a basis of
g_{lam - alpha_i}, and their images follow from the spaces below:

    [f_j, [e_i, y]] = -delta_ij <lam - alpha_i, alpha_i^vee> y + [e_i, [f_j, y]].

The work grows with the multiplicities, not with the number of tensor words.
"""
from __future__ import annotations

import itertools
import math
from operator import index
from typing import Iterable, NamedTuple, Sequence

from .freelie import (
    StandardTuple,
    ad_generator,  # noqa: F401  unused; bench/spans.py traces serre.ad_generator by name
    free_lie_dim,
)
from .gcm import DEFAULT_HEIGHT_CAP, OracleScaleError, cartan_matrix, query_weight
from .linalg import EchelonBasis, Row, _axpy, _divide

# A matrix stored as (columns, denominator): column k, divided by the
# denominator, is the image of basis vector k.
Matrix = tuple[list[Row], int]


def _lowest_terms(rows: list[Row], den: int) -> Matrix:
    """``(rows, den)`` with the gcd of the denominator and every entry divided out."""
    g = math.gcd(den, *(v for row in rows for v in row.values()))
    return [_divide(row, g) for row in rows], den // g


class _Space(NamedTuple):
    """The root space g_mu in coordinates, with the maps [e_i, .] into it.

    ``images[m]``, divided by ``image_den``, is the image of basis vector m
    in the direct sum of the g_{mu - alpha_j}; its column c is coordinate
    ``blocks[c][1]`` of g_{mu - alpha_j}, j = ``blocks[c][0]``.
    ``raising[i]`` is the matrix of [e_i, .] from g_{mu - alpha_i} into g_mu.
    The zero weight stands for the Cartan subalgebra, with basis h_1..h_r
    and no images.
    """

    dim: int
    blocks: list[tuple[int, int]]
    images: list[Row]
    image_den: int
    raising: dict[int, Matrix]


class SerreQuotient:
    """Root spaces of one algebra, built from their f-images and memoized by weight.

    The spaces are filled bottom-up over the box below a weight lam, in
    lexicographic order, so every g_{mu - alpha_i} exists when g_mu is built.
    The candidates for g_mu are the images of [e_i, y_k], y_k a basis vector
    of g_{mu - alpha_i}.  They are inserted into a ``linalg.EchelonBasis``,
    whose pivot columns are the coordinates of g_mu; the basis is reduced, so
    every candidate read at the pivots gives one column of [e_i, .].  All
    arithmetic is in the integers, with explicit denominators; results are
    exact.  Every entry point refuses a weight above ``height_cap`` with
    ``OracleScaleError`` before it builds anything.
    """

    def __init__(
        self,
        A: Sequence[Sequence[int]],
        height_cap: int = DEFAULT_HEIGHT_CAP,
    ) -> None:
        A = cartan_matrix(A)
        if A != tuple(zip(*A)):
            raise ValueError(
                "the quotient oracle requires a symmetric Cartan matrix: the Serre "
                "relations generate the maximal ideal only for symmetrizable A (Gabber-Kac)"
            )
        try:
            self.height_cap = index(height_cap)
        except TypeError:
            raise ValueError(f"height cap must be an integer, got {height_cap!r}") from None
        self.algebra = A
        r = len(A)
        zero = (0,) * r
        # g_0 is the Cartan subalgebra; [f_i, e_i] = -h_i and [e_i, h_k] = -a_ki e_i
        self._spaces: dict[tuple[int, ...], _Space] = {zero: _Space(r, [], [], 1, {})}
        for i in range(r):
            raising = ([{0: -A[k][i]} if A[k][i] else {} for k in range(r)], 1)
            simple = zero[:i] + (1,) + zero[i + 1 :]
            blocks = [(i, k) for k in range(r)]
            self._spaces[simple] = _Space(1, blocks, [{i: -1}], 1, {i: raising})

    def _check_height(self, lam: tuple[int, ...]) -> None:
        if sum(lam) > self.height_cap:
            raise OracleScaleError(
                f"oracle scale exceeded: weight {lam} has height {sum(lam)}, "
                f"cap is {self.height_cap}"
            )

    def _build(self, lam: tuple[int, ...]) -> _Space:
        """g_lam for height >= 2; every space below it must already be built.

        A generator i whose space g_{lam - alpha_i} is zero adds no candidate,
        and its map [e_i, .] is stored empty.
        """
        A = self.algebra
        spaces = self._spaces
        low = {j: spaces[lam[:j] + (c - 1,) + lam[j + 1 :]] for j, c in enumerate(lam) if c}
        offsets: dict[int, int] = {}
        blocks: list[tuple[int, int]] = []
        for j, space in low.items():
            offsets[j] = len(blocks)
            blocks.extend((j, k) for k in range(space.dim))
        basis = EchelonBasis()
        candidates: dict[int, Matrix] = {}
        for i, src in low.items():
            if not src.dim:
                continue
            mu = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
            # [e_i, .] on block j runs from g_{lam - alpha_i - alpha_j} to g_{lam - alpha_j}
            maps = {j: low[j].raising[i] for j, c in enumerate(mu) if c}
            common = math.lcm(*(den for _, den in maps.values()))
            scale = src.image_den * common
            shift = scale * sum(a * m for a, m in zip(A[i], mu))
            rows: list[Row] = []
            for k, y in enumerate(src.images):
                row: Row = {}
                for c, v in y.items():
                    j, l = src.blocks[c]
                    cols, den = maps[j]
                    out = offsets[j]
                    f = v * (common // den)
                    for t, e in cols[l].items():
                        row[out + t] = row.get(out + t, 0) + f * e
                t = offsets[i] + k
                row[t] = row.get(t, 0) - shift
                rows.append({c: v for c, v in row.items() if v})
                basis.insert(rows[-1])
            candidates[i] = (rows, scale)
        pivots = basis.pivots
        raising: dict[int, Matrix] = {i: ([], 1) for i in low}
        for i, (rows, den) in candidates.items():
            cols = [{m: row[p] for m, p in enumerate(pivots) if p in row} for row in rows]
            raising[i] = _lowest_terms(cols, den)
        # rows of content 1, each scaled by lcm // its pivot entry: the gcd is already 1
        image_den = math.lcm(*(b[p] for p, b in pivots.items()))
        images = [{c: v * (image_den // b[p]) for c, v in b.items()} for p, b in pivots.items()]
        return _Space(basis.rank, blocks, images, image_den, raising)

    def _space(self, coeffs: tuple[int, ...]) -> _Space:
        spaces = self._spaces
        if coeffs not in spaces:
            # lexicographic fill of the box visits every componentwise-smaller
            # weight first, which is all a space depends on
            for mu in itertools.product(*(range(c + 1) for c in coeffs)):
                if mu not in spaces:
                    spaces[mu] = self._build(mu)
        return spaces[coeffs]

    def _evaluate(self, t: StandardTuple) -> Row:
        """Integer coordinates of the left-normed bracket ``t``, times a positive factor.

        The bracket is E_{t1} ... E_{t(n-1)} e_{tn}, applied right to left;
        every space on the way must already be built.  The maps' denominators
        are left out: their product is the factor, which no rank sees.
        """
        mu = [0] * len(self.algebra)
        mu[t[-1] - 1] = 1
        vec = {0: 1}
        for s in reversed(t[:-1]):
            mu[s - 1] += 1
            cols = self._spaces[tuple(mu)].raising[s - 1][0]
            out: Row = {}
            for c, v in vec.items():
                _axpy(out, v, cols[c])
            vec = out
        return vec

    def multiplicity(self, lam: Sequence[int]) -> int:
        """dim g_lam, checked against the free Lie dimension it is a quotient of."""
        lam = query_weight(self.algebra, lam)
        self._check_height(lam)
        mult = self._space(lam).dim
        if free_lie_dim(lam) - mult < 0:
            raise ArithmeticError(f"root space larger than the free Lie component at {lam}")
        return mult

    def standard_form_rank(
        self,
        lam: Sequence[int],
        family: Iterable[StandardTuple],
    ) -> int:
        """Dimension of the span of the given standard tuples inside g_lam.

        Each tuple t is evaluated as E_{t1} ... E_{t(n-1)} e_{tn} through the
        matrices of [e_i, .]; the result is the rank of those coordinates.
        The family may be any iterable; it is read once, and every tuple is
        checked before any is evaluated: each letter is read by
        ``operator.index`` and must lie in 1..rank, and the multidegree must
        be lam, else ``ValueError``.  The tuples are evaluated one at a time,
        and the rest are skipped once the rank reaches dim g_lam, which it
        cannot pass; an empty family has rank 0.
        """
        lam = query_weight(self.algebra, lam)
        self._check_height(lam)
        rank = len(self.algebra)
        words = []
        for t in family:
            try:
                t = tuple(map(index, t))
            except TypeError:
                raise ValueError(f"tuple {t!r}: generator indices must be integers") from None
            for i in t:
                if not 1 <= i <= rank:
                    raise ValueError(f"tuple {t}: generator index {i} outside 1..{rank}")
            degree = tuple(t.count(i + 1) for i in range(rank))
            if degree != lam:
                raise ValueError(f"tuple {t} has multidegree {degree}, expected {lam}")
            words.append(t)
        dim = self._space(lam).dim
        basis = EchelonBasis()
        for t in words:
            if basis.rank == dim:
                break
            basis.insert(self._evaluate(t))
        return basis.rank
