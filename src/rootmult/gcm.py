"""Generalized Cartan matrices, weight vectors, and the invariant bilinear form."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """Integer matrix with 2s on the diagonal, nonpositive off-diagonal entries,
    and a symmetric zero pattern.

    ``chain`` carries the (a1, a2) labels when the matrix was built by
    :func:`rank3_chain`; it is ``None`` for matrices constructed directly.
    """

    entries: tuple[tuple[int, ...], ...]
    chain: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise ValueError("empty Cartan matrix")
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            if row[i] != 2:
                raise ValueError(f"diagonal entry [{i}][{i}] must be 2, got {row[i]}")
            for j, v in enumerate(row):
                if i != j and v > 0:
                    raise ValueError(f"off-diagonal entry [{i}][{j}] must be <= 0, got {v}")
                if (v == 0) != (self.entries[j][i] == 0):
                    raise ValueError(f"zero pattern not symmetric at [{i}][{j}]")

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def is_symmetric(self) -> bool:
        n = self.rank
        return all(self.entries[i][j] == self.entries[j][i] for i in range(n) for j in range(n))

    @property
    def finite_type(self) -> bool:
        """True only for the (1, 1) chain, whose algebra is the finite A3.

        The closed-form dimension counts assume max(a1, a2) >= 2; a (1, 1) run
        is outside that hypothesis and is only useful for sanity checks.
        """
        return self.chain == (1, 1)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def form(self, x: Sequence[int], y: Sequence[int]) -> int:
        """x^T A y on plain coefficient tuples, without argument checks.

        For a symmetric matrix this is the invariant form (alpha_i, alpha_j) = A_ij.
        """
        return sum(
            xi * sum(aij * yj for aij, yj in zip(row, y))
            for xi, row in zip(x, self.entries)
            if xi
        )


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative integer coefficients over the simple roots."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.coeffs):
            raise ValueError(f"negative coefficient in weight {self.coeffs}")

    @classmethod
    def of(cls, w: "WeightVector | Sequence[int]") -> "WeightVector":
        if isinstance(w, WeightVector):
            return w
        return cls(tuple(int(c) for c in w))

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]


def rank3_chain(a1: int, a2: int) -> GeneralizedCartanMatrix:
    """Build the 3x3 chain matrix [[2,-a1,0],[-a1,2,-a2],[0,-a2,2]].

    Requires a1, a2 >= 1.  The pair (1, 1) is permitted for finite-type
    testing and is flagged via :attr:`GeneralizedCartanMatrix.finite_type`.
    """
    if a1 <= 0 or a2 <= 0:
        raise ValueError(f"chain labels must be positive, got ({a1}, {a2})")
    entries = ((2, -a1, 0), (-a1, 2, -a2), (0, -a2, 2))
    return GeneralizedCartanMatrix(entries, chain=(a1, a2))


def query_weight(A: GeneralizedCartanMatrix, lam: WeightVector | Sequence[int]) -> WeightVector:
    """``lam`` as a weight of A that an engine can be asked about.

    Its length must equal the rank of A and its height must be at least 1.
    """
    lam = WeightVector.of(lam)
    if lam.rank != A.rank:
        raise ValueError(f"weight length {lam.rank} does not match rank {A.rank}")
    if lam.height < 1:
        raise ValueError("weight must have height >= 1")
    return lam

