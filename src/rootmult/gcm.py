"""Generalized Cartan matrices, the weight check, and the engines' shared errors.

A weight is a plain tuple of nonnegative ints, its coefficients over the
simple roots; :func:`query_weight` is the one check that makes one.  The
error classes and the quotient's default height cap live here, in the module
every engine imports, so the command line can name them without loading an
engine; :mod:`rootmult.serre` and :mod:`rootmult.peterson` re-export them.
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


class GeneralizedCartanMatrix:
    """Integer matrix with 2s on the diagonal, nonpositive off-diagonal entries,
    and a symmetric zero pattern.

    An immutable value: equal entries give equal, equally hashed matrices.
    """

    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        n = len(entries)
        if n == 0:
            raise ValueError("empty Cartan matrix")
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            if row[i] != 2:
                raise ValueError(f"diagonal entry [{i}][{i}] must be 2, got {row[i]}")
            for j, v in enumerate(row):
                try:
                    index(v)
                except TypeError:
                    raise ValueError(f"entry [{i}][{j}] must be an integer, got {v!r}") from None
                if i != j and v > 0:
                    raise ValueError(f"off-diagonal entry [{i}][{j}] must be <= 0, got {v}")
                if (v == 0) != (entries[j][i] == 0):
                    raise ValueError(f"zero pattern not symmetric at [{i}][{j}]")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(entries={self.entries!r})"

    def __reduce__(self) -> tuple[type, tuple[tuple[tuple[int, ...], ...]]]:
        # copy and pickle rebuild through __init__, which __setattr__ leaves as the only writer
        return type(self), (self.entries,)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def is_symmetric(self) -> bool:
        n = self.rank
        return all(self.entries[i][j] == self.entries[j][i] for i in range(n) for j in range(n))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]


def rank3_chain(a1: int, a2: int) -> GeneralizedCartanMatrix:
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
    return GeneralizedCartanMatrix(((2, -a1, 0), (-a1, 2, -a2), (0, -a2, 2)))


def query_weight(A: GeneralizedCartanMatrix | None, lam: Sequence[int]) -> tuple[int, ...]:
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
    if A is not None and len(w) != A.rank:
        raise ValueError(f"weight length {len(w)} does not match rank {A.rank}")
    if sum(w) < 1:
        raise ValueError("weight must have height >= 1")
    return w
