"""The Young lattice as a quiver, with and without the column relations.

Hom spaces of the column-relation category are at most one-dimensional, so a
morphism space is represented by its dimension, 0 or 1; no path algebra is
ever materialized.
"""

from dataclasses import dataclass
from typing import Callable

from .config import DEFAULT_BOUNDS, Bounds, check_bound
from .partitions import (
    Partition,
    add_node,
    addable_nodes,
    partitions_up_to,
    skew_classify,
)


@dataclass(frozen=True)
class QuiverSlice:
    """All diagrams up to a size bound with the one-node-addition arrows."""

    max_size: int
    nodes: tuple[Partition, ...]
    arrows: tuple[tuple[Partition, Partition], ...]


def hom_dim_C(mu: Partition, lam: Partition) -> int:
    """1 iff lam contains mu and the skew shape is a horizontal strip
    (no two skew nodes in one column), else 0."""
    sk = skew_classify(mu, lam)
    return 1 if sk.contained and not sk.has_column_pair else 0


def hom_dim_Cprime_mod_J(mu: Partition, lam: Partition) -> int:
    """1 iff lam contains mu and the skew shape has neither a same-column
    pair nor a same-row pair (a rook strip), else 0."""
    sk = skew_classify(mu, lam)
    return 1 if sk.contained and not sk.has_column_pair and not sk.has_row_pair else 0


def quiver_slice(max_size: int, bounds: Bounds = DEFAULT_BOUNDS) -> QuiverSlice:
    check_bound(max_size, bounds.max_partition_size, "quiver slice size")
    nodes = partitions_up_to(max_size, bounds)
    arrows = [
        (node, add_node(node, cell))
        for node in nodes
        if node.size < max_size
        for cell in addable_nodes(node)
    ]
    return QuiverSlice(max_size, tuple(nodes), tuple(arrows))


def to_dot(slice_: QuiverSlice, sign_of: Callable[[Partition, Partition], int] | None = None) -> str:
    """DOT rendering; arrows get +1/-1 labels when a sign function is given."""
    lines = ["digraph young_lattice {"]
    for node in slice_.nodes:
        lines.append(f'  "{node}";')
    for source, target in slice_.arrows:
        if sign_of is None:
            lines.append(f'  "{source}" -> "{target}";')
        else:
            lines.append(f'  "{source}" -> "{target}" [label="{sign_of(source, target):+d}"];')
    lines.append("}")
    return "\n".join(lines)
