"""Exact rational sparse matrices and fraction-free rank computation.

This is the homology engine: every exactness statement in the package
reduces to ranks computed here.  No floating point anywhere.  Rank uses
Bareiss-style fraction-free elimination over the integers (rows are scaled
by their denominator lcm first, which does not change the rank); entries of
the resolution differentials are already in {0, +1, -1} and skip the
scaling entirely.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

Scalar = int | Fraction


def _normalize(value: Scalar) -> Scalar:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


@dataclass(frozen=True)
class RationalMatrix:
    n_rows: int
    n_cols: int
    entries: dict[tuple[int, int], Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[tuple[int, int], Scalar] = {}
        for (r, c), value in self.entries.items():
            if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
                raise ValueError(f"entry ({r},{c}) outside {self.n_rows}x{self.n_cols}")
            value = _normalize(value)
            if value:
                clean[(r, c)] = value
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_rows(cls, rows: list[list[Scalar]], n_cols: int | None = None) -> "RationalMatrix":
        if rows and n_cols is None:
            n_cols = len(rows[0])
        entries = {
            (r, c): value
            for r, row in enumerate(rows)
            for c, value in enumerate(row)
            if value
        }
        return cls(len(rows), n_cols or 0, entries)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def entry(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), 0)

    def to_dense(self) -> list[list[Scalar]]:
        rows = [[0] * self.n_cols for _ in range(self.n_rows)]
        for (r, c), value in self.entries.items():
            rows[r][c] = value
        return rows

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.n_cols, self.n_rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def is_zero(self) -> bool:
        return not self.entries

    def to_text(self) -> str:
        """Coordinate-format dump (matrix-market style) for debugging."""
        lines = [f"{self.n_rows} {self.n_cols} {len(self.entries)}"]
        for (r, c) in sorted(self.entries):
            lines.append(f"{r + 1} {c + 1} {self.entries[(r, c)]}")
        return "\n".join(lines)


def multiply(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.n_cols != b.n_rows:
        raise ValueError(f"shape mismatch: {a.n_rows}x{a.n_cols} times {b.n_rows}x{b.n_cols}")
    b_by_row: dict[int, list[tuple[int, Scalar]]] = {}
    for (r, c), value in b.entries.items():
        b_by_row.setdefault(r, []).append((c, value))
    acc: dict[tuple[int, int], Scalar] = {}
    for (i, k), x in a.entries.items():
        for j, y in b_by_row.get(k, ()):
            acc[(i, j)] = acc.get((i, j), 0) + x * y
    return RationalMatrix(a.n_rows, b.n_cols, acc)


def _integer_rows(m: RationalMatrix) -> list[list[int]]:
    dense = m.to_dense()
    out = []
    for row in dense:
        den = 1
        for value in row:
            if isinstance(value, Fraction):
                den = lcm(den, value.denominator)
        out.append([int(value * den) for value in row])
    return out


def _fraction_free_rank(rows: list[list[int]]) -> int:
    """Bareiss elimination; the divisions below are exact by the Sylvester
    determinant identity, with pivots chosen smallest-in-magnitude to limit
    coefficient growth."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, n_rows):
            value = rows[i][col]
            if value and (pivot_row is None or abs(value) < abs(rows[pivot_row][col])):
                pivot_row = i
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for i in range(rank + 1, n_rows):
            factor = rows[i][col]
            row_i, row_p = rows[i], rows[rank]
            for j in range(col, n_cols):
                num = pivot * row_i[j] - factor * row_p[j]
                quotient, remainder = divmod(num, prev)
                if remainder:
                    raise ArithmeticError("inexact division during elimination")
                row_i[j] = quotient
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank(m: RationalMatrix) -> int:
    if m.is_zero():
        return 0
    return _fraction_free_rank(_integer_rows(m))


def kernel_dim(m: RationalMatrix) -> int:
    return m.n_cols - rank(m)


def rref(rows: list[list[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rows, pivot cols)."""
    work = [[Fraction(value) for value in row] for row in rows]
    n_rows = len(work)
    n_cols = len(work[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][col]
        work[r] = [value * inv for value in work[r]]
        for i in range(n_rows):
            if i != r and work[i][col]:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return work, pivots


def kernel_basis(m: RationalMatrix) -> list[list[Fraction]]:
    """Basis of the right kernel, deterministic (one vector per free column)."""
    reduced, pivots = rref(m.to_dense())
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.n_cols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * m.n_cols
        vec[free] = Fraction(1)
        for row_idx, pivot_col in enumerate(pivots):
            vec[pivot_col] = -reduced[row_idx][free]
        basis.append(vec)
    return basis
