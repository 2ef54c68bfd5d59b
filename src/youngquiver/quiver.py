"""The Young lattice as a quiver, with and without the column relations.

Hom spaces of the column-relation category are at most one-dimensional, so a
morphism space is represented by its dimension, 0 or 1; no path algebra is
ever materialized.  Diagrams are row tuples throughout.
"""

from typing import NamedTuple

from .config import DEFAULT_BOUNDS, Bounds, check_bound
from .partitions import (
    Rows,
    addable_rows,
    format_partition,
    grow_row,
    partition_rows_up_to,
    skew_classify,
)
from .signs import added_node_sign


class QuiverSlice(NamedTuple):
    """All diagrams up to a size bound with the one-node-addition arrows.

    ``nodes`` holds row tuples in the order of ``partition_rows_up_to``.
    An arrow ``(source, target, r)`` adds a node in 0-based row r of
    ``nodes[source]``, giving ``nodes[target]``; arrows are listed by
    source, then top row first."""

    max_size: int
    nodes: tuple[Rows, ...]
    arrows: tuple[tuple[int, int, int], ...]


def hom_dim_C(mu: Rows, lam: Rows) -> int:
    """1 iff the row tuple lam contains mu and the skew shape is a
    horizontal strip (no two skew nodes in one column), else 0."""
    sk = skew_classify(mu, lam)
    return 1 if sk.contained and not sk.has_column_pair else 0


def hom_dim_Cprime_mod_J(mu: Rows, lam: Rows) -> int:
    """1 iff the row tuple lam contains mu and the skew shape has neither a
    same-column pair nor a same-row pair (a rook strip), else 0."""
    sk = skew_classify(mu, lam)
    return 1 if sk.contained and not sk.has_column_pair and not sk.has_row_pair else 0


def quiver_slice(max_size: int, bounds: Bounds = DEFAULT_BOUNDS) -> QuiverSlice:
    check_bound(max_size, bounds.max_partition_size, "quiver slice size")
    nodes = tuple(partition_rows_up_to(max_size, bounds))
    index = {rows: k for k, rows in enumerate(nodes)}
    arrows = tuple(
        (k, index[grow_row(rows, r)], r)
        for k, rows in enumerate(nodes)
        if sum(rows) < max_size
        for r in addable_rows(rows)
    )
    return QuiverSlice(max_size, nodes, arrows)


def render(slice_: QuiverSlice, fmt: str, signs: bool = False) -> str:
    """The slice as ``text``, ``json`` or ``dot``.  Each node's name is
    formatted once; with ``signs`` every arrow carries its sign,
    (-1)^(nodes above the added row)."""
    nodes = slice_.nodes
    names = [format_partition(rows) for rows in nodes]
    if fmt != "text":
        # digits and commas need no escaping in JSON or DOT
        names = [f'"{name}"' for name in names]
    # an arrow is head, source name, sep, target name, sign label, tail
    if fmt == "json":
        # the layout of json.dumps(payload, indent=2), written directly: with
        # an indent, json.dumps runs its pure-Python encoder
        head, sep, tail = "[\n      ", ",\n      ", "\n    ]"
        label = {1: ",\n      1", -1: ",\n      -1"}
    elif fmt == "dot":
        head, sep, tail = "  ", " -> ", ";"
        label = {1: ' [label="+1"]', -1: ' [label="-1"]'}
    else:
        head, sep, tail = "", " -> ", ""
        label = {1: " [+1]", -1: " [-1]"}
    if signs:
        lines = [
            f"{head}{names[source]}{sep}{names[target]}"
            f"{label[added_node_sign(nodes[source], r)]}{tail}"
            for source, target, r in slice_.arrows
        ]
    else:
        lines = [
            f"{head}{names[source]}{sep}{names[target]}{tail}"
            for source, target, _ in slice_.arrows
        ]
    if fmt == "json":
        return (
            f'{{\n  "max_size": {slice_.max_size},\n'
            f'  "nodes": {_json_list(names)},\n'
            f'  "arrows": {_json_list(lines)}\n}}'
        )
    if fmt == "dot":
        statements = [f"  {name};" for name in names]
        return "\n".join(["digraph young_lattice {", *statements, *lines, "}"])
    return "\n".join([f"nodes: {len(names)}", f"arrows: {len(lines)}", *lines])


def _json_list(items: list[str]) -> str:
    """JSON texts as the value of a top-level key, laid out as
    ``json.dumps(..., indent=2)`` lays out a list there."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
