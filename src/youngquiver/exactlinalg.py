"""Exact sparse integer matrices and the exact elimination engines.

This is the homology engine: every exactness statement in the package
reduces to ranks computed here.  No floating point anywhere.

- ``IntMatrix`` holds integers only: the resolution differentials, with
  entries in {+1, -1}, and the integer numerator rows of the direct
  idempotent ranks.  A ``Fraction`` or ``float`` entry is a ``TypeError``.
- ``rank`` is Bareiss-style fraction-free elimination over the integers;
  a nonzero single row or column, the shape of most resolution maps, has
  rank 1 without elimination.
- ``rref`` is reduced row echelon form over the rationals, the quadratic
  dual's one engine: the annihilator of C's relations, the walk's quotients
  and projections, and the span tests are read from it.  It takes ``Scalar``
  rows, since a relation of the dual may have rational coefficients.
"""

from fractions import Fraction

from .records import Record

Scalar = int | Fraction


def normalize(value: Scalar) -> Scalar:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class IntMatrix(Record):
    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(
        self, n_rows: int, n_cols: int, entries: dict[tuple[int, int], int] | None = None
    ) -> None:
        clean: dict[tuple[int, int], int] = {}
        for (r, c), value in (entries or {}).items():
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"entry ({r},{c}) outside {n_rows}x{n_cols}")
            if type(value) is not int:
                raise TypeError(f"entry ({r},{c}) is {value!r}, not an int")
            if value:
                clean[(r, c)] = value
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_rows(cls, rows: list[list[int]], n_cols: int | None = None) -> "IntMatrix":
        if rows and n_cols is None:
            n_cols = len(rows[0])
        entries = {
            (r, c): value
            for r, row in enumerate(rows)
            for c, value in enumerate(row)
            if value
        }
        return cls(len(rows), n_cols or 0, entries)

    def to_dense(self) -> list[list[int]]:
        rows = [[0] * self.n_cols for _ in range(self.n_rows)]
        for (r, c), value in self.entries.items():
            rows[r][c] = value
        return rows

    def is_zero(self) -> bool:
        return not self.entries

    def to_text(self) -> str:
        """Coordinate-format dump (matrix-market style) for debugging."""
        lines = [f"{self.n_rows} {self.n_cols} {len(self.entries)}"]
        for (r, c) in sorted(self.entries):
            lines.append(f"{r + 1} {c + 1} {self.entries[(r, c)]}")
        return "\n".join(lines)


def multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.n_cols != b.n_rows:
        raise ValueError(f"shape mismatch: {a.n_rows}x{a.n_cols} times {b.n_rows}x{b.n_cols}")
    b_by_row: dict[int, list[tuple[int, int]]] = {}
    for (r, c), value in b.entries.items():
        b_by_row.setdefault(r, []).append((c, value))
    acc: dict[tuple[int, int], int] = {}
    for (i, k), x in a.entries.items():
        for j, y in b_by_row.get(k, ()):
            acc[(i, j)] = acc.get((i, j), 0) + x * y
    return IntMatrix(a.n_rows, b.n_cols, acc)


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


def rank(m: IntMatrix) -> int:
    if m.is_zero():
        return 0
    if m.n_rows == 1 or m.n_cols == 1:
        return 1
    return _fraction_free_rank(m.to_dense())


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

