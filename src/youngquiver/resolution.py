"""Linear resolutions of the simple modules over the column-relation
Young-lattice category, verified object by object.

For a fixed diagram xi, the stratum at homological position i <= 0 consists
of the diagrams obtained by adding -i nodes to xi with no two added nodes in
the same row (a vertical strip); all strata come from one vertical-strip
enumeration (``partitions.strip_tops``).  The position-i term of the complex
is the direct sum of the projectives generated at the stratum members,
shifted so the whole complex is linear.  A projective generated at lam
contributes a canonical basis vector at evaluation object mu exactly when
the hom space lam -> mu survives the column relations, that is when mu/lam
is a horizontal strip.  So the members present at mu are read off the
interlacing mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... row by row: lam_r is
xi_r or xi_r + 1 and lies in [mu_(r+1), mu_r], independently of the other
rows, so the members at one object are a product of one- or two-element
row choices, and their sizes fill one contiguous run of positions.  The
differential entry between two members is the arrow sign when they differ
by one node and both are present, else zero; the arrows between adjacent
strata are found once, by removing each corner of each member of the
larger stratum, and each sign is read from the parity of the nodes above
the corner's row.

The whole assembly, strata included, runs on row tuples and member
numbers: a diagram's text form is built only for a failure locator or a
dumped matrix's label.

Because exactness of a complex of modules over the category holds iff it
holds at every evaluation object, the whole verification reduces to exact
integer linear algebra on one small matrix chain per object.  The chain at
an object depends only on the members present there, so objects with the
same members share one chain, built once: over the bases of size at most 5
at depth 8, the 2,505 objects with a member hold 768 distinct chains, and
each verifier checks each of them once (``_per_chain``).  The complex
property is a product of consecutive matrices being zero, and exactness is
the rank identity rank(out) + rank(in) = dim at every position.  Each
product is formed in one pass over its terms, which yields both its
nonzero entries and its diamond cancellations, the zero cells with exactly
two terms.  Each object's chain lists its components at every position but
stores only the nonzero differentials, as ``IntMatrix``es with entries +1
and -1; an absent one is the zero map, so its products are zero and its
rank is 0 without any arithmetic.  Most maps are absent: in a sweep over
the bases of size at most 5 at depth 8, about 6% of the adjacent pairs
have two nonzero factors.
"""

import time
from collections.abc import Callable, Iterator
from itertools import product
from typing import NamedTuple

from .certificates import Certificate
from .config import DEFAULT_BOUNDS, Bounds, check_bound
from .exactlinalg import IntMatrix, rank
from .partitions import (
    Partition,
    Rows,
    format_partition,
    partition_rows,
    partition_rows_up_to,
    removable_rows,
    shrink_row,
    strip_tops,
)
from .signs import added_node_sign


def _strata_rows(base: Rows, depth: int, bounds: Bounds = DEFAULT_BOUNDS) -> list[list[Rows]]:
    """Row tuples of the strata at positions -depth .. 0: position i holds
    the tops of the vertical strips of -i nodes over ``base``, in reverse
    lexicographic order.  The one bound on a resolution, |base| + depth at
    most ``max_partition_size``, is checked before any strip is listed."""
    size = sum(base)
    check_bound(size + depth, bounds.max_partition_size, "resolution size")
    by_added: list[list[Rows]] = [[] for _ in range(depth + 1)]
    for rows in strip_tops(base, size + depth):
        by_added[sum(rows) - size].append(rows)
    return [sorted(by_added[added], reverse=True) for added in range(depth, -1, -1)]


class ObjectChain(NamedTuple):
    """The complex evaluated at one object: a chain of small matrices.

    ``components[offset]`` lists the numbers of the members of
    ``strata[offset]`` (position offset - depth) whose projective is present
    at the object.  ``maps[offset]`` is the differential out of that
    position (rows: ``components[offset + 1]``, columns:
    ``components[offset]``), with entries in {+1, -1}.  Only nonzero
    differentials are stored: an absent offset is the zero map between the
    listed components.
    """

    components: tuple[tuple[int, ...], ...]
    maps: dict[int, IntMatrix]


class GradedComplex(NamedTuple):
    """The complex for one base diagram, stored as one chain per object:
    ``chains[k]`` is the complex evaluated at the object with row tuple
    ``objects[k]``.  Objects with the same members hold the same chain
    object."""

    xi: Partition
    depth: int
    strata: tuple[tuple[Rows, ...], ...]  # positions -depth .. 0
    objects: tuple[Rows, ...]
    chains: tuple[ObjectChain, ...]


def build_resolution(xi: Partition, depth: int, bounds: Bounds = DEFAULT_BOUNDS) -> GradedComplex:
    """The complex over ``xi`` truncated at position -depth, with one chain
    per object up to size |xi| + depth.  The chain is keyed by the member
    tuple ``_members_at`` reads at the object: it is built at the first
    object with that key, and every later object with the same key holds
    that same ``ObjectChain``.  Objects with no member share the chain with
    no component."""
    strata = tuple(map(tuple, _strata_rows(xi.rows, depth, bounds)))
    objects = partition_rows_up_to(xi.size + depth, bounds)
    where = {
        lam: (offset, number)
        for offset, members in enumerate(strata)
        for number, lam in enumerate(members)
    }
    arrows = [_arrows_into(upper, lower) for upper, lower in zip(strata, strata[1:])]
    # one chain per distinct member set, shared by every object that has
    # it; the empty set maps to the chain with no component
    nothing = ObjectChain(tuple(() for _ in strata), {})
    by_members: dict[tuple[Rows, ...], ObjectChain] = {(): nothing}
    chains = []
    for mu in objects:
        members = tuple(_members_at(xi.rows, mu))
        chain = by_members.get(members)
        if chain is None:
            chain = by_members[members] = _chain_of(members, strata, where, arrows)
        chains.append(chain)
    return GradedComplex(xi, depth, strata, tuple(objects), tuple(chains))


def _chain_of(
    members: tuple[Rows, ...],
    strata: tuple[tuple[Rows, ...], ...],
    where: dict[Rows, tuple[int, int]],
    arrows: list[list[list[tuple[int, int]]]],
) -> ObjectChain:
    """The chain at an object where exactly ``members`` are present: their
    numbers at each offset, and the nonzero differentials between them."""
    cells: list[list[int]] = [[] for _ in strata]
    for lam in members:
        offset, number = where[lam]
        cells[offset].append(number)
    # the members' sizes, hence their offsets, form one contiguous run
    occupied = [offset for offset, cell in enumerate(cells) if cell]
    maps = {}
    for offset in range(occupied[0], occupied[-1]):
        cols, rows = cells[offset], cells[offset + 1]
        row_of = {number: r for r, number in enumerate(rows)}
        entries = {}
        for c, number in enumerate(cols):
            for lower, sign in arrows[offset][number]:
                r = row_of.get(lower)
                if r is not None:
                    entries[(r, c)] = sign
        if entries:
            maps[offset] = IntMatrix(len(rows), len(cols), entries)
    return ObjectChain(tuple(map(tuple, cells)), maps)


def _members_at(xi: Rows, mu: Rows) -> list[Rows]:
    """Row tuples of the stratum members present at mu, in reverse
    lexicographic order: the lam with lam/xi a vertical strip and mu/lam a
    horizontal strip.  Row by row, lam_r is xi_r or xi_r + 1 within
    [mu_(r+1), mu_r], independently of the other rows; only the last row of
    mu can choose 0, which is stripped."""
    if len(mu) < len(xi):
        return []
    options = []
    for base, high, low in zip(xi + (0,) * (len(mu) - len(xi)), mu, mu[1:] + (0,)):
        if base > high or low > base + 1:
            return []
        options.append((base,) if base == high else (base + 1, base) if low <= base else (low,))
    return [lam[:-1] if lam[-1:] == (0,) else lam for lam in product(*options)]


def _arrows_into(upper: list[Rows], lower: list[Rows]) -> list[list[tuple[int, int]]]:
    """Entry j lists the members lam of ``lower`` covered by the member nu
    numbered j of ``upper``, as (number of lam, sign of the arrow lam -> nu):
    remove each corner of nu and keep the results that lie in ``lower``.
    The arrow adds a node in 0-based row r, and lam and nu have the same
    rows above r, so its sign ``added_node_sign(lam, r)`` is read off nu."""
    by_rows = {lam: number for number, lam in enumerate(lower)}
    arrows = []
    for rows in upper:
        found = []
        for r in removable_rows(rows):
            number = by_rows.get(shrink_row(rows, r))
            if number is not None:
                found.append((number, added_node_sign(rows, r)))
        arrows.append(found)
    return arrows


def _per_chain(
    complex_: GradedComplex, check: Callable[[ObjectChain], tuple]
) -> Iterator[tuple[Rows, tuple]]:
    """Each object's row tuple with ``check`` of its chain, in object order.
    Objects with the same members share one chain (``build_resolution``), so
    ``check`` runs once per distinct chain, told apart by identity, and every
    later object with that chain reads the same result."""
    seen: dict[int, tuple] = {}
    for mu, chain in zip(complex_.objects, complex_.chains):
        result = seen.get(id(chain))
        if result is None:
            result = seen[id(chain)] = check(chain)
        yield mu, result


def verify_complex(complex_: GradedComplex) -> tuple[dict[str, int], dict | None]:
    """Check that consecutive differentials compose to zero at every object.

    Each zero entry of a product that received two nonzero summands is one
    diamond cancellation; the count of those is reported.

    Returns the counts, which cover every object even after a failure, and
    the first failure, or None.  Every object counts max(depth - 1, 0)
    products, one per adjacent pair of positions.
    """
    depth = complex_.depth
    cancellations = 0
    first_failure = None
    for mu, (two_term_zeros, nonzero) in _per_chain(complex_, _products_of):
        cancellations += two_term_zeros
        if nonzero is not None and first_failure is None:
            offset, entries = nonzero
            first_failure = {
                "object": format_partition(mu),
                "position": offset - depth,
                "nonzero_entries": sorted(
                    [list(key) + [str(val)] for key, val in entries.items()]
                ),
            }
    counts = {
        # every adjacent pair counts; one with an absent factor is zero
        "products_checked": len(complex_.objects) * max(depth - 1, 0),
        "diamond_cancellations": cancellations,
    }
    return counts, first_failure


def _products_of(chain: ObjectChain) -> tuple[int, tuple[int, dict] | None]:
    """The two-term zero cells of every product of adjacent stored maps in
    ``chain``, and its first nonzero product as (offset, entries), or
    None."""
    maps = chain.maps
    two_term_zeros = 0
    first_nonzero = None
    for offset, low in sorted(maps.items()):
        high = maps.get(offset + 1)
        if high is None:
            continue
        nonzero, zeros = _compose(high, low)
        two_term_zeros += zeros
        if nonzero and first_nonzero is None:
            first_nonzero = (offset, nonzero)
    return two_term_zeros, first_nonzero


def _compose(high: IntMatrix, low: IntMatrix) -> tuple[dict[tuple[int, int], int], int]:
    """The nonzero entries of high*low, and the number of its zero cells
    that receive exactly two nonzero terms, from one pass over the terms."""
    low_by_row: dict[int, list[tuple[int, int]]] = {}
    for (k, c), y in low.entries.items():
        low_by_row.setdefault(k, []).append((c, y))
    terms: dict[tuple[int, int], list[int]] = {}
    for (r, k), x in high.entries.items():
        for c, y in low_by_row.get(k, ()):
            terms.setdefault((r, c), []).append(x * y)
    nonzero = {}
    two_term_zeros = 0
    for cell, values in terms.items():
        total = sum(values)
        if total:
            nonzero[cell] = total
        elif len(values) == 2:
            two_term_zeros += 1
    return nonzero, two_term_zeros


def verify_exactness(complex_: GradedComplex) -> tuple[dict[str, int], dict | None]:
    """Exactness away from position 0 and one-dimensional cohomology at 0,
    concentrated at the base object.

    At each object the check is the rank identity
    rank(out) + rank(in) = dim(position) for positions below 0, and
    dim - rank(in) = [object == base] at position 0.  The truncation is
    exact per object: components of the first omitted position vanish at
    every object within the size window, so no boundary artifacts occur.
    All three numbers are recorded for the first failing object and position.

    An object other than the base whose chain is acyclic passes without a
    further look; at every other object the whole cohomology vector is
    compared with [0] * depth + [object == base].

    Returns the counts, which cover every object and position even after a
    failure, and the first failure, or None.  Every object counts depth + 1
    positions.
    """
    depth = complex_.depth
    objects = len(complex_.objects)
    counts = {"objects_checked": objects, "positions_checked": objects * (depth + 1)}
    for mu, (dims, ranks_out, cohomology, acyclic) in _per_chain(complex_, _homology_of):
        at_base = mu == complex_.xi.rows
        if acyclic and not at_base:
            continue
        expected = [0] * depth + [int(at_base)]
        if cohomology != expected:
            offset = next(k for k, value in enumerate(cohomology) if value != expected[k])
            return counts, {
                "object": format_partition(mu),
                "position": offset - depth,
                "dim": dims[offset],
                "rank_out": ranks_out[offset],
                "rank_in": ranks_out[offset - 1] if offset else 0,
                "cohomology": cohomology[offset],
                "expected": expected[offset],
            }
    return counts, None


class _Homology(NamedTuple):
    """One chain's dimensions, ranks out of each position and cohomology at
    each position; acyclic when the cohomology is all 0."""

    dims: list[int]
    ranks_out: list[int]
    cohomology: list[int]
    acyclic: bool


def _homology_of(chain: ObjectChain) -> _Homology:
    dims = [len(cell) for cell in chain.components]
    # rank of the map out of each position; an absent map and the map out
    # of position 0 have rank 0
    ranks_out = [0] * len(dims)
    for offset, matrix in chain.maps.items():
        ranks_out[offset] = rank(matrix)
    cohomology = [
        dim - ranks_out[offset] - (ranks_out[offset - 1] if offset else 0)
        for offset, dim in enumerate(dims)
    ]
    return _Homology(dims, ranks_out, cohomology, not any(cohomology))


def betti_table(
    xi: Partition, depth: int, bounds: Bounds = DEFAULT_BOUNDS
) -> dict[tuple[int, Rows], int]:
    """Indicator of a projective appearing at each position, keyed by the
    position and the row tuple of each diagram of the matching size; row
    sums over a fixed position equal the stratum size."""
    table: dict[tuple[int, Rows], int] = {}
    for offset, members in enumerate(_strata_rows(xi.rows, depth, bounds)):
        i = offset - depth
        present = set(members)
        for lam in partition_rows(xi.size - i, bounds):
            table[(i, lam)] = 1 if lam in present else 0
    return table


def verify_resolution(
    xi: Partition,
    depth: int,
    bounds: Bounds = DEFAULT_BOUNDS,
    dump_matrices: bool = False,
) -> Certificate:
    """Build the complex and run every check: complex property, exactness;
    linearity holds by construction of the strata.  One combined certificate,
    whose locator is the first failure in that order, tagged with its check."""
    start = time.perf_counter()
    complex_ = build_resolution(xi, depth, bounds)
    complex_counts, complex_failure = verify_complex(complex_)
    exact_counts, exact_failure = verify_exactness(complex_)
    first_failure = None
    if complex_failure:
        first_failure = {"check": "complex", **complex_failure}
    elif exact_failure:
        first_failure = {"check": "exactness", **exact_failure}
    details = None
    if dump_matrices:
        stored = sorted(
            (offset - depth, mu, matrix.to_text())
            for mu, chain in zip(complex_.objects, complex_.chains)
            for offset, matrix in chain.maps.items()
        )
        details = {"matrices": {f"{i}@{format_partition(mu)}": text for i, mu, text in stored}}
    return Certificate(
        start,
        command="verify resolution",
        parameters={"xi": str(xi), "depth": depth},
        counts={**exact_counts, **complex_counts},
        first_failure=first_failure,
        details=details,
    )
