"""Generalized Cartan matrices, the weight check, and the engines' shared errors.

A generalized Cartan matrix is a plain tuple of rows of ints, and a weight a
plain tuple of nonnegative ints over the simple roots; :func:`cartan_matrix`
and :func:`query_weight` are the one checks that make them.  The error
classes and the quotient's default height cap live here, in the module every
engine imports, so the command line can name them without loading an engine;
:mod:`rootmult.serre` and :mod:`rootmult.peterson` re-export them.
"""
from __future__ import annotations

from operator import index
from typing import Sequence

# the quotient oracle's default height cap, and the CLI's --height-cap default
DEFAULT_HEIGHT_CAP = 10


class OracleScaleError(RuntimeError):
    """Raised instead of silently truncating when a weight exceeds the height cap."""


class RecurrenceError(RuntimeError):
    """Recurrence produced an inconsistent or non-integral value: a bug, not data."""


CartanMatrix = tuple[tuple[int, ...], ...]


def cartan_matrix(rows: Sequence[Sequence[int]]) -> CartanMatrix:
    """``rows`` as a generalized Cartan matrix: a tuple of rows of plain ints.

    The matrix must be square and nonempty, with integer entries (read by
    ``operator.index``), 2s on the diagonal, nonpositive entries off it, and
    a symmetric zero pattern; anything else raises ``ValueError``.
    """
    A = tuple(map(tuple, rows))
    n = len(A)
    if n == 0:
        raise ValueError("empty Cartan matrix")
    for i, row in enumerate(A):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
    for i, row in enumerate(A):
        if row[i] != 2:
            raise ValueError(f"diagonal entry [{i}][{i}] must be 2, got {row[i]}")
        for j, v in enumerate(row):
            try:
                v = index(v)
            except TypeError:
                raise ValueError(f"entry [{i}][{j}] must be an integer, got {v!r}") from None
            if i != j and v > 0:
                raise ValueError(f"off-diagonal entry [{i}][{j}] must be <= 0, got {v}")
            if (v == 0) != (A[j][i] == 0):
                raise ValueError(f"zero pattern not symmetric at [{i}][{j}]")
    return tuple(tuple(map(index, row)) for row in A)


def rank3_chain(a1: int, a2: int) -> CartanMatrix:
    """Build the 3x3 chain matrix [[2,-a1,0],[-a1,2,-a2],[0,-a2,2]].

    Requires integers a1, a2 >= 1.  The pair (1, 1), the finite A3, is
    permitted for sanity checks; the closed-form counts assume
    max(a1, a2) >= 2.
    """
    try:
        a1, a2 = index(a1), index(a2)
    except TypeError:
        raise ValueError(f"chain labels must be integers, got ({a1!r}, {a2!r})") from None
    if a1 <= 0 or a2 <= 0:
        raise ValueError(f"chain labels must be positive, got ({a1}, {a2})")
    return ((2, -a1, 0), (-a1, 2, -a2), (0, -a2, 2))


def query_weight(A: CartanMatrix | None, lam: Sequence[int]) -> tuple[int, ...]:
    """``lam`` as a plain tuple of ints that an engine can be asked about.

    Every coefficient must be an integer (``operator.index``, so 2.9 and '2'
    are refused, not truncated) and none negative, the length must equal the
    rank of A, and the height must be at least 1.  With A None, as for the
    free Lie algebra, any length is accepted.
    """
    try:
        w = tuple(map(index, lam))
    except TypeError:
        raise ValueError(f"weight coefficients must be integers, got {lam!r}") from None
    if w and min(w) < 0:
        raise ValueError(f"negative coefficient in weight {w}")
    if A is not None and len(w) != len(A):
        raise ValueError(f"weight length {len(w)} does not match rank {len(A)}")
    if sum(w) < 1:
        raise ValueError("weight must have height >= 1")
    return w
