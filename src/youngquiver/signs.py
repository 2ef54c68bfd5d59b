"""Signs on Young-lattice arrows making every diamond anticommute.

The closed form is the implementation: the sign of row r in a diagram is
(-1)^(number of nodes strictly above row r), and an arrow adding a node in
row r carries the sign of that row.  It is written once, on row tuples
(``added_node_sign``); ``arrow_sign``, the diamond sweep, the growth oracle,
the differentials of ``resolution`` and the arrow labels of
``quiver.render`` all read it.  The incremental growth procedure (all rows
of the empty diagram start at +1; adding a node in row r flips every row
strictly below r) is kept alongside as an independent oracle.  Its row signs
are compared with the closed form after every addition order (one per
standard tableau) of every diagram of at most ``GROWTH_MAX_SIZE`` = 8 nodes,
1,116 orders, which covers its arrow signs too; a larger size is refused,
since the number of orders grows like the involution numbers.
"""

import time

from .certificates import Certificate
from .config import DEFAULT_BOUNDS, Bounds, check_bound
from .partitions import (
    Partition,
    addable_rows,
    diamond_vertices,
    diamonds_up_to,
    format_partition,
    grow_row,
    partition_rows_up_to,
    removable_rows,
    shrink_row,
)

GROWTH_MAX_SIZE = 8


def added_node_sign(lower: tuple[int, ...], r: int) -> int:
    """The closed form on row tuples: the sign of the arrow that adds a node
    to 0-based row ``r`` of ``lower``, (-1)^(nodes of lower above row r)."""
    return -1 if sum(lower[:r]) % 2 else 1


def arrow_sign(lam: Partition, mu: Partition) -> int:
    """Sign of the arrow lam -> mu, where mu is lam plus one addable node."""
    if mu.size != lam.size + 1 or not mu.contains(lam):
        raise ValueError(f"{lam} -> {mu} is not an arrow")
    # containment and one node more: exactly one row of mu is longer
    r = next(r for r, length in enumerate(mu.rows) if length != lam.row(r + 1))
    return added_node_sign(lam.rows, r)


def path_signs(bottom: tuple[int, ...], r1: int, r2: int) -> tuple[int, int]:
    """The arrow-sign products along the two paths of the diamond above
    ``bottom`` that adds nodes in rows r1 < r2 (``diamond_vertices``): the
    left path adds row r2 first, the right path row r1 first.  Each arrow's
    sign is read from its own lower row tuple, so the anticommutation of the
    two products is checked, not assumed."""
    left = added_node_sign(bottom, r2) * added_node_sign(grow_row(bottom, r2), r1)
    right = added_node_sign(bottom, r1) * added_node_sign(grow_row(bottom, r1), r2)
    return left, right


def growth_signs(additions: list[int]) -> tuple[list[int], list[int]]:
    """Run the incremental procedure along a sequence of 0-based rows that
    each take a node, from the empty diagram.  Returns (row signs of rows
    0..k after all additions, arrow signs read off along the path).  This is
    the test oracle for the closed form; it validates the sequence as it
    goes."""
    n_rows = len(additions) + 1
    signs = [1] * n_rows
    shape: tuple[int, ...] = ()
    along_path = []
    for r in additions:
        if r not in addable_rows(shape):
            raise ValueError(f"0-based row {r} of {format_partition(shape)} takes no node")
        shape = grow_row(shape, r)
        along_path.append(signs[r])
        for below in range(r + 1, n_rows):
            signs[below] = -signs[below]
    return signs, along_path


def addition_orders(rows: tuple[int, ...]) -> list[list[int]]:
    """Every order, as 0-based rows, in which ``rows`` can be grown from the
    empty diagram one addable node at a time."""
    if not rows:
        return [[]]
    return [
        order + [r]
        for r in removable_rows(rows)
        for order in addition_orders(shrink_row(rows, r))
    ]


def verify_growth_agreement(
    max_size: int, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[dict[str, int], dict | None]:
    """Check that the growth procedure reproduces the closed-form signs.

    Every addition order of every diagram of at most ``max_size`` nodes is
    tried; a size above ``GROWTH_MAX_SIZE`` raises before any diagram is
    listed.  Returns the counts and the first failure, or None.  The
    failing order is listed as the 1-based (row, column) of each added node.
    Only row signs are compared: the arrow sign at step k is the row-r_k
    sign after ``order[:k]``, an order of a smaller diagram, which is checked
    first, so a wrong arrow sign has already failed there.
    """
    check_bound(max_size, min(GROWTH_MAX_SIZE, bounds.max_partition_size), "growth oracle size")
    counts = {"partitions_checked": 0, "orders_checked": 0}
    for rows in partition_rows_up_to(max_size, bounds):
        counts["partitions_checked"] += 1
        expected_rows = [added_node_sign(rows, r) for r in range(sum(rows) + 1)]
        for order in addition_orders(rows):
            counts["orders_checked"] += 1
            grown_rows, _ = growth_signs(order)
            if grown_rows != expected_rows:
                return counts, {
                    "partition": format_partition(rows),
                    "order": [[r + 1, order[: k + 1].count(r)] for k, r in enumerate(order)],
                    "grown_rows": grown_rows,
                    "closed_form_rows": expected_rows,
                }
    return counts, None


def _first_diamond_failure(max_size: int, bounds: Bounds) -> tuple[int, dict | None]:
    """The number of diamonds checked, in the order of ``diamonds_up_to``, up
    to the first whose two paths' sign products do not anticommute (all of
    them on a pass), and that diamond's failure, or None."""
    checked = 0
    for bottom, r1, r2 in diamonds_up_to(max_size, bounds):
        left, right = path_signs(bottom, r1, r2)
        checked += 1
        if left != -right:
            return checked, {
                "diamond": [format_partition(rows) for rows in diamond_vertices(bottom, r1, r2)],
                "products": [left, right],
            }
    return checked, None


def verify_signs_sweep(max_size: int, bounds: Bounds = DEFAULT_BOUNDS) -> Certificate:
    """The diamond sign identity on every diamond whose top has at most
    ``max_size`` nodes, plus growth agreement up to ``GROWTH_MAX_SIZE``, as one
    certificate.  Failure is a verdict, not an exception."""
    start = time.perf_counter()
    check_bound(max_size, bounds.max_partition_size, "sign verification size")
    diamonds_checked, diamond_failure = _first_diamond_failure(max_size, bounds)
    growth_counts, growth_failure = verify_growth_agreement(min(max_size, GROWTH_MAX_SIZE), bounds)
    return Certificate(
        start,
        command="verify signs",
        parameters={"max_size": max_size},
        counts={"diamonds_checked": diamonds_checked, **growth_counts},
        first_failure=diamond_failure or growth_failure,
    )
