"""Young diagrams and the combinatorics indexing everything else.

A partition is a weakly decreasing tuple of positive row lengths; the empty
tuple is the empty diagram.  All values are immutable and hashable, so they
can be used as dictionary keys.  The sweeps run on bare row tuples; a
``Partition`` wraps one with validation, containment and row access.

Text form: ASCII-digit row lengths joined by commas ("3,1,1"), with "0" for
the empty diagram ("" is also accepted on input).
"""

from collections.abc import Iterator
from functools import cache
from operator import index
from typing import NamedTuple

from .config import DEFAULT_BOUNDS, Bounds, check_bound
from .records import Record

Rows = tuple[int, ...]


class Partition(Record):
    __slots__ = ("rows", "size")

    def __init__(self, rows: Rows = ()) -> None:
        # index(), not int(): a float, a string or a Fraction row is a TypeError
        rows = tuple(index(r) for r in rows)
        for i, r in enumerate(rows):
            if r <= 0:
                raise ValueError(f"row lengths must be positive: {rows}")
            if i and rows[i - 1] < r:
                raise ValueError(f"row lengths must be weakly decreasing: {rows}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "size", sum(rows))

    def __hash__(self) -> int:
        return hash((self.rows,))

    def row(self, r: int) -> int:
        """Length of 1-based row ``r``; 0 beyond the last row."""
        return self.rows[r - 1] if 1 <= r <= len(self.rows) else 0

    def contains(self, other: "Partition") -> bool:
        return contains(self.rows, other.rows)

    def __str__(self) -> str:
        return format_partition(self.rows)


EMPTY = Partition(())


def contains(outer: Rows, inner: Rows) -> bool:
    """Whether the diagram with rows ``outer`` contains the one with rows
    ``inner``."""
    return len(inner) <= len(outer) and all(a >= b for a, b in zip(outer, inner))


def format_partition(rows: Rows) -> str:
    """The text form of a row tuple: "3,1,1", or "0" for the empty diagram."""
    return ",".join(map(str, rows)) if rows else "0"


def parse_partition(text: str) -> Partition:
    stripped = text.strip()
    if stripped in ("", "0"):
        return EMPTY
    parts = [part.strip() for part in stripped.split(",")]
    # ASCII digits only: int() would also take "1_0", "+3" and non-ASCII digits
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"cannot parse partition {text!r}")
    return Partition(tuple(map(int, parts)))


class SkewClass(NamedTuple):
    """Containment and strip structure of a skew pair.

    When ``contained`` is false the remaining fields are undefined (None).
    A column pair means some column holds two or more skew nodes; a row pair
    is the same for rows.
    """

    contained: bool
    has_column_pair: bool | None = None
    has_row_pair: bool | None = None


def transpose(rows: Rows) -> Rows:
    """The row tuple of the transposed diagram: its column lengths."""
    columns = rows[0] if rows else 0
    return tuple(sum(1 for length in rows if length > c) for c in range(columns))


def add_node(lam: Partition, r: int) -> Partition:
    """``lam`` with one node added in 0-based row ``r``."""
    if r not in addable_rows(lam.rows):
        raise ValueError(f"0-based row {r} of {lam} takes no node")
    return Partition(grow_row(lam.rows, r))


def addable_rows(rows: Rows) -> list[int]:
    """The 0-based rows of ``rows`` that take an addable node, top row first;
    ``len(rows)`` starts a new row."""
    padded = rows + (0,)
    return [r for r, length in enumerate(padded) if r == 0 or padded[r - 1] > length]


def grow_row(rows: Rows, r: int) -> Rows:
    """``rows`` with one node added in the addable 0-based row ``r``."""
    return rows[:r] + ((rows[r] if r < len(rows) else 0) + 1,) + rows[r + 1 :]


def grown_rows(rows: Rows) -> list[Rows]:
    """Row tuples of the one-node extensions of ``rows``, top row first."""
    return [grow_row(rows, r) for r in addable_rows(rows)]


def removable_rows(rows: Rows) -> list[int]:
    """The 0-based rows of ``rows`` that end in a removable corner, top row
    first."""
    padded = rows + (0,)
    return [r for r, length in enumerate(rows) if length > padded[r + 1]]


def shrink_row(rows: Rows, r: int) -> Rows:
    """``rows`` with the corner of the removable 0-based row ``r`` taken
    away."""
    return rows[:r] + (rows[r] - 1,) + rows[r + 1 :] if rows[r] > 1 else rows[:r]


def strip_tops(bottom: Rows, max_size: int, rook: bool = False) -> list[Rows]:
    """Row tuples of every lam containing ``bottom`` with |lam| <= max_size
    and lam/bottom a vertical strip (no two skew nodes in one row), or with
    ``rook`` a rook strip (nor two in one column).

    Within a run of equal rows of ``bottom`` the skew nodes sit in the top
    rows of the run: any number of them in a vertical strip, at most one in
    a rook strip.  Below the last row a vertical strip adds any number of
    rows of length 1, a rook strip at most one."""
    budget = max_size - sum(bottom)
    if budget < 0:
        return []
    tops = [(bottom, 0)]
    start = 0
    for end in range(1, len(bottom) + 1):
        if end < len(bottom) and bottom[end] == bottom[start]:
            continue
        most = 1 if rook else end - start
        longer = (bottom[start] + 1,)
        tops = [
            (rows[:start] + longer * k + rows[start + k :], added + k)
            for rows, added in tops
            for k in range(min(most, budget - added) + 1)
        ]
        start = end
    return [
        rows + (1,) * k
        for rows, added in tops
        for k in range(min(1 if rook else budget, budget - added) + 1)
    ]


def subdiagram_rows(lam: Rows) -> list[Rows]:
    """Row tuples of every diagram contained in ``lam``, in the order of
    ``partitions_up_to``: smaller sizes first, reverse lexicographic within
    a size."""

    @cache
    def below(r: int, cap: int) -> tuple[Rows, ...]:
        if r == len(lam):
            return ((),)
        out = [
            (first,) + rest
            for first in range(min(lam[r], cap), 0, -1)
            for rest in below(r + 1, first)
        ]
        return (*out, ())

    # generated in reverse lexicographic order; the sort by size is stable
    return sorted(below(0, lam[0] if lam else 0), key=sum)


def skew_classify(mu: Rows, lam: Rows) -> SkewClass:
    """Read off the row tuples: row r holds two skew nodes iff
    lam_r - mu_r >= 2, and rows r, r+1 share a skew column iff
    lam_{r+1} > mu_r (a column pair anywhere implies one in adjacent rows)."""
    if not contains(lam, mu):
        return SkewClass(contained=False)
    inner = mu + (0,) * (len(lam) - len(mu))
    return SkewClass(
        contained=True,
        has_column_pair=any(a > b for a, b in zip(lam[1:], inner)),
        has_row_pair=any(a - b >= 2 for a, b in zip(lam, inner)),
    )


def diamonds_up_to(
    max_size: int, bounds: Bounds = DEFAULT_BOUNDS
) -> Iterator[tuple[Rows, int, int]]:
    """Every diamond whose top has at most ``max_size`` nodes, as its
    bottom's row tuple and two 0-based addable rows r1 < r2: bottoms in the
    order of ``partition_rows_up_to``, then (r1, r2) lexicographically.

    Distinct addable nodes sit in distinct rows and columns, so the two mids
    (``diamond_vertices``) have the unique common top that adds both."""
    for bottom in partition_rows_up_to(max_size - 2, bounds):
        rows = addable_rows(bottom)
        for i, r1 in enumerate(rows):
            for r2 in rows[i + 1 :]:
                yield bottom, r1, r2


def diamond_vertices(bottom: Rows, r1: int, r2: int) -> tuple[Rows, ...]:
    """Row tuples of the diamond's (bottom, mid_left, mid_right, top): the
    left mid adds the node in row r2, the right mid the one in row r1, so
    the left mid is the smaller row tuple."""
    mid_left = grow_row(bottom, r2)
    return bottom, mid_left, grow_row(bottom, r1), grow_row(mid_left, r1)


@cache
def _partition_tuples(n: int, cap: int) -> tuple[Rows, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partition_rows(n: int, bounds: Bounds = DEFAULT_BOUNDS) -> tuple[Rows, ...]:
    """Row tuples of the partitions of ``n`` in reverse lexicographic order."""
    if n < 0:
        raise ValueError("partition size must be non-negative")
    check_bound(n, bounds.max_partition_size, "partition size")
    return _partition_tuples(n, n)


def partitions_of(n: int, bounds: Bounds = DEFAULT_BOUNDS) -> list[Partition]:
    """All partitions of ``n``, in the order of ``partition_rows``."""
    return [Partition(rows) for rows in partition_rows(n, bounds)]


def partition_rows_up_to(max_size: int, bounds: Bounds = DEFAULT_BOUNDS) -> list[Rows]:
    """Row tuples of the partitions of every size up to ``max_size``, smaller
    sizes first, each size in the order of ``partitions_of`` and under its
    bound."""
    out: list[Rows] = []
    for k in range(max_size + 1):
        check_bound(k, bounds.max_partition_size, "partition size")
        out.extend(_partition_tuples(k, k))
    return out


def partitions_up_to(max_size: int, bounds: Bounds = DEFAULT_BOUNDS) -> list[Partition]:
    """Partitions of every size up to ``max_size``, smaller sizes first."""
    return [Partition(rows) for rows in partition_rows_up_to(max_size, bounds)]
