"""Linear resolutions of the simple modules over the column-relation
Young-lattice category, verified object by object.

For a fixed diagram xi, the stratum at homological position i <= 0 consists
of the diagrams obtained by adding -i nodes to xi with no two added nodes in
the same row (a vertical strip).  The position-i term of the complex is the
direct sum of the projectives generated at the stratum members, shifted so
the whole complex is linear.  A projective generated at lam contributes a
canonical basis vector at evaluation object mu exactly when the hom space
lam -> mu survives the column relations; the differential entry between two
stratum members is the arrow sign when they differ by one node and both are
present, else zero.

Because exactness of a complex of modules over the category holds iff it
holds at every evaluation object, the whole verification reduces to exact
integer linear algebra on one small matrix chain per object: the complex
property is a product of consecutive matrices being zero, and exactness is
the rank identity rank(out) + rank(in) = dim at every position.
"""

import time
from dataclasses import dataclass

from .certificates import Certificate
from .config import DEFAULT_BOUNDS, Bounds, check_bound
from .exactlinalg import RationalMatrix, multiply, rank
from .partitions import Partition, partitions_of, partitions_up_to
from .quiver import hom_dim_C
from .signs import arrow_sign


@dataclass(frozen=True)
class Stratum:
    """Diagrams reached from the base by a vertical strip of -index nodes."""

    index: int  # non-positive homological position
    members: tuple[Partition, ...]


def stratum(xi: Partition, index: int, bounds: Bounds = DEFAULT_BOUNDS) -> Stratum:
    if index > 0:
        raise ValueError("stratum index must be non-positive")
    check_bound(-index, bounds.max_resolution_depth, "resolution depth")
    return Stratum(index, tuple(_vertical_strip_extensions(xi, -index)))


def _vertical_strip_extensions(xi: Partition, count: int) -> list[Partition]:
    """All diagrams containing xi whose skew shape has ``count`` nodes, at
    most one per row; reverse lexicographic order."""
    base = xi.rows
    results: list[Partition] = []

    def rec(r: int, remaining: int, prev_len: int, acc: list[int]) -> None:
        if r > len(base):
            if remaining == 0:
                results.append(Partition(tuple(acc)))
            elif prev_len >= 1:
                results.append(Partition(tuple(acc + [1] * remaining)))
            return
        current = base[r - 1]
        for inc in (1, 0) if remaining else (0,):
            new_len = current + inc
            if new_len <= prev_len:
                rec(r + 1, remaining - inc, new_len, acc + [new_len])

    rec(1, count, 10**9, [])
    return results


@dataclass(frozen=True)
class GradedComplex:
    """The complex for one base diagram, stored as matrix chains per object.

    ``components[(i, mu)]`` lists the stratum-i members whose projective is
    present at object mu; ``matrices[(i, mu)]`` is the differential out of
    position i evaluated at mu (rows: position i+1 components, columns:
    position i components), with entries in {0, +1, -1}.
    """

    xi: Partition
    depth: int
    strata: tuple[Stratum, ...]  # indices -depth .. 0
    objects: tuple[Partition, ...]
    components: dict[tuple[int, Partition], tuple[Partition, ...]]
    matrices: dict[tuple[int, Partition], RationalMatrix]
    linear: bool

    def stratum_at(self, index: int) -> Stratum:
        return self.strata[index + self.depth]


def build_resolution(xi: Partition, depth: int, bounds: Bounds = DEFAULT_BOUNDS) -> GradedComplex:
    if depth < 1:
        raise ValueError("depth must be positive")
    check_bound(depth, bounds.max_resolution_depth, "resolution depth")
    strata = tuple(stratum(xi, i, bounds) for i in range(-depth, 1))
    objects = tuple(partitions_up_to(xi.size + depth, bounds))

    components: dict[tuple[int, Partition], tuple[Partition, ...]] = {}
    for st in strata:
        for mu in objects:
            components[(st.index, mu)] = tuple(
                lam for lam in st.members if hom_dim_C(lam, mu) == 1
            )

    matrices: dict[tuple[int, Partition], RationalMatrix] = {}
    for i in range(-depth, 0):
        for mu in objects:
            rows = components[(i + 1, mu)]
            cols = components[(i, mu)]
            entries = {}
            for r, lam in enumerate(rows):
                for c, nu in enumerate(cols):
                    if nu.size == lam.size + 1 and nu.contains(lam):
                        entries[(r, c)] = arrow_sign(lam, nu)
            matrices[(i, mu)] = RationalMatrix(len(rows), len(cols), entries)

    # linearity: the position -n term is generated in internal degree n
    linear = all(
        lam.size == xi.size - st.index for st in strata for lam in st.members
    )
    return GradedComplex(xi, depth, strata, objects, components, matrices, linear)


def verify_complex(complex_: GradedComplex) -> Certificate:
    """Check that consecutive differentials compose to zero at every object.

    Each zero entry of a product that received two nonzero summands is one
    diamond cancellation; the count of those is reported.
    """
    start = time.perf_counter()
    objects_checked = 0
    products_checked = 0
    cancellations = 0
    first_failure = None
    for mu in complex_.objects:
        objects_checked += 1
        for i in range(-complex_.depth, -1):
            low = complex_.matrices[(i, mu)]
            high = complex_.matrices[(i + 1, mu)]
            product = multiply(high, low)
            products_checked += 1
            cancellations += _two_term_zero_cells(high, low)
            if not product.is_zero() and first_failure is None:
                first_failure = {
                    "object": str(mu),
                    "position": i,
                    "nonzero_entries": sorted(
                        [list(key) + [str(val)] for key, val in product.entries.items()]
                    ),
                }
        if first_failure:
            break
    return Certificate.timed(
        start,
        command="verify resolution.complex",
        parameters={"xi": str(complex_.xi), "depth": complex_.depth},
        counts={
            "objects_checked": objects_checked,
            "products_checked": products_checked,
            "diamond_cancellations": cancellations,
        },
        first_failure=first_failure,
    )


def _two_term_zero_cells(high: RationalMatrix, low: RationalMatrix) -> int:
    count = 0
    for r in range(high.n_rows):
        for c in range(low.n_cols):
            terms = [
                high.entry(r, k) * low.entry(k, c)
                for k in range(high.n_cols)
                if high.entry(r, k) and low.entry(k, c)
            ]
            if len(terms) == 2 and sum(terms) == 0:
                count += 1
    return count


def verify_exactness(complex_: GradedComplex) -> Certificate:
    """Exactness away from position 0 and one-dimensional cohomology at 0,
    concentrated at the base object.

    At each object the check is the rank identity
    rank(out) + rank(in) = dim(position) for positions below 0, and
    dim - rank(in) = [object == base] at position 0.  The truncation is
    exact per object: components of the first omitted position vanish at
    every object within the size window, so no boundary artifacts occur.
    All three numbers are recorded for the first failing object and position.
    """
    start = time.perf_counter()
    depth = complex_.depth
    first_failure = None
    positions_checked = 0
    for mu in complex_.objects:
        dims = [len(complex_.components[(i, mu)]) for i in range(-depth, 1)]
        # rank of the map out of each position; none leaves position 0
        ranks_out = [rank(complex_.matrices[(i, mu)]) for i in range(-depth, 0)] + [0]
        for offset, dim in enumerate(dims):
            position = offset - depth
            rank_out = ranks_out[offset]
            rank_in = ranks_out[offset - 1] if offset else 0
            expected_cohomology = 1 if position == 0 and mu == complex_.xi else 0
            cohomology = dim - rank_out - rank_in
            positions_checked += 1
            if cohomology != expected_cohomology and first_failure is None:
                first_failure = {
                    "object": str(mu),
                    "position": position,
                    "dim": dim,
                    "rank_out": rank_out,
                    "rank_in": rank_in,
                    "cohomology": cohomology,
                    "expected": expected_cohomology,
                }
        # independent arithmetic cross-check of the same data
        euler = sum((-1) ** (offset % 2) * dim for offset, dim in enumerate(dims))
        expected_euler = 1 if mu == complex_.xi else 0
        if depth % 2:
            euler = -euler
        if euler != expected_euler and first_failure is None:
            first_failure = {
                "object": str(mu),
                "check": "euler",
                "value": euler,
                "expected": expected_euler,
            }
    return Certificate.timed(
        start,
        command="verify resolution.exactness",
        parameters={"xi": str(complex_.xi), "depth": complex_.depth},
        counts={
            "objects_checked": len(complex_.objects),
            "positions_checked": positions_checked,
        },
        first_failure=first_failure,
    )


def betti_table(
    xi: Partition, depth: int, bounds: Bounds = DEFAULT_BOUNDS
) -> dict[tuple[int, Partition], int]:
    """Indicator of a projective appearing at each position; row sums over a
    fixed position equal the stratum size."""
    check_bound(depth, bounds.max_resolution_depth, "resolution depth")
    table: dict[tuple[int, Partition], int] = {}
    for i in range(-depth, 1):
        members = set(stratum(xi, i, bounds).members)
        for lam in partitions_of(xi.size - i, bounds):
            table[(i, lam)] = 1 if lam in members else 0
    return table


def verify_resolution(
    xi: Partition,
    depth: int,
    bounds: Bounds = DEFAULT_BOUNDS,
    dump_matrices: bool = False,
) -> Certificate:
    """Build the complex and run every check: linearity, complex property,
    exactness.  One combined certificate."""
    start = time.perf_counter()
    complex_ = build_resolution(xi, depth, bounds)
    complex_cert = verify_complex(complex_)
    exact_cert = verify_exactness(complex_)
    first_failure = None
    if not complex_.linear:
        first_failure = {"check": "linearity"}
    elif not complex_cert.passed:
        first_failure = dict(complex_cert.first_failure, failing_check="complex")
    elif not exact_cert.passed:
        first_failure = dict(exact_cert.first_failure, failing_check="exactness")
    details: dict = {"linear": complex_.linear}
    if dump_matrices:
        details["matrices"] = {
            f"{i}@{mu}": matrix.to_text()
            for (i, mu), matrix in sorted(
                complex_.matrices.items(), key=lambda kv: (kv[0][0], kv[0][1].rows)
            )
            if not matrix.is_zero()
        }
    return Certificate.timed(
        start,
        command="verify resolution",
        parameters={"xi": str(xi), "depth": depth},
        counts={
            "objects_checked": exact_cert.counts["objects_checked"],
            "positions_checked": exact_cert.counts["positions_checked"],
            "products_checked": complex_cert.counts["products_checked"],
            "diamond_cancellations": complex_cert.counts["diamond_cancellations"],
        },
        first_failure=first_failure,
        details=details,
    )
