"""Exact rank by fraction-free elimination on sparse integer rows.

:class:`EchelonBasis` is the package's one elimination kernel: the quotient
oracle builds every root space with it.
"""
from __future__ import annotations

import math
from typing import Any, Mapping

# A sparse integer vector: coordinate -> nonzero entry.  Coordinates are any
# totally ordered keys (ints in the quotient oracle, tensor words in the tests).
Row = dict[Any, int]


def _divide(row: Row, g: int) -> Row:
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _axpy(out: Row, f: int, row: Row) -> None:
    """out += f * row, dropping the entries that cancel."""
    for c, v in row.items():
        v = out.get(c, 0) + f * v
        if v:
            out[c] = v
        else:
            del out[c]


class EchelonBasis:
    """Reduced row echelon basis of sparse integer rows, built one row at a time.

    ``pivots`` maps each pivot column to its kept row, in the order the rows
    were kept.  Every kept row is zero at the pivots of the others, has a
    positive entry at its own pivot and content 1.  So a new row x is reduced
    in one step, L*x - sum of (x[p]*L/b[p])*b over the kept rows b with
    x[p] != 0, where L is the lcm of their pivot entries, 1 when there are
    none.  What is left, if anything, is divided by its content, its
    smallest column becomes its pivot, that pivot is cleared from the rows
    kept before it, and it is kept.
    All arithmetic is in the integers, so the span is exact over the
    rationals.  Rows passed in are never mutated, and kept rows are replaced
    rather than changed, so a caller may hold on to either.
    """

    __slots__ = ("pivots",)

    def __init__(self) -> None:
        self.pivots: dict[Any, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, row: Mapping[Any, int]) -> bool:
        """Reduce ``row`` against the basis and keep what is left; True if anything was.

        The row is scaled by the lcm of the pivot entries it meets, 1 if none.
        """
        basis = self.pivots
        used = [p for p, v in row.items() if v and p in basis]
        common = math.lcm(*(basis[p][p] for p in used))
        x = {c: common * v for c, v in row.items() if v}
        for p in used:
            _axpy(x, -(row[p] * common // basis[p][p]), basis[p])
        if not x:
            return False
        q = min(x)
        g = math.gcd(*x.values())
        x = _divide(x, g if x[q] > 0 else -g)
        a = x[q]
        for p, b in basis.items():
            c = b.get(q)
            if c:
                b = {col: a * v for col, v in b.items()}
                _axpy(b, -c, x)
                basis[p] = _divide(b, math.gcd(*b.values()))
        basis[q] = x
        return True
