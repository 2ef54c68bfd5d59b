"""Quadratic duals of the Young-lattice categories, computed on path spaces.

The dual category is presented by one dual generator per lattice arrow and
by degree-2 relation spaces: on each pair's length-2 paths, the annihilator
of C's own relations (Polishchuk-Positselski, *Quadratic Algebras*, ch. 1).
Those are stated once, as the paper presents C (``_c_relations``): a
diamond's two paths commute, a column pair's path is killed and a row pair's
path is free.

Higher dual hom dimensions are never assumed: they are computed as the free
path space modulo the two-sided ideal generated by the degree-2 relations.
The engine walks up from each bottom mu one size at a time, with the
recursion for a quadratic algebra A_k = (A_{k-1} (x) V) / image(A_{k-2} (x) R)
(ibid.): A(mu, nu) is the quotient of the sum of A(mu, kappa) over the
arrows kappa -> nu by the relations of R(kappa', nu) applied to
A(mu, kappa'), reduced by the general exact eliminator ``exactlinalg.rref``,
so any relation vectors work.  One walk per bottom gives every dimension
above it.  The test oracle ranks the same quotient over whole paths: every
prefix x relation x suffix row over the saturated chains from mu to lam,
ranked by a signed union-find and by Bareiss rank.

The presentation is one relation table, keyed by the row tuples of each
pair, with row-tuple mids; the walk, the checks and the test oracles all
read it.  The relation-case check compares each span with the paper's table
for the dual, read from ``skew_classify``: nothing on a column pair, the
full path on a row pair, p1 + p2 on a diamond.  The sign-twisted duality
functor is checked diamond by diamond (``partitions.diamonds_up_to``), with
the arrow signs of ``signs.path_signs``: whether the twisted difference lies
in the span of the transposed pair's relation vectors is again decided by
``rref``.

Convention: a dual generator is stored as a morphism mu -> nu along the
lattice arrow and composition mirrors path concatenation; the dimension
statements checked here are independent of that choice.
"""

import time
from typing import NamedTuple

from .certificates import Certificate
from .config import DEFAULT_BOUNDS, Bounds, check_bound
from .exactlinalg import Scalar, normalize, rref
from .partitions import (
    Rows,
    add_node,
    addable_rows,
    diamond_vertices,
    diamonds_up_to,
    format_partition,
    grown_rows,
    partitions_of,
    partitions_up_to,
    skew_classify,
    strip_tops,
    transpose,
)
from .signs import path_signs


class RelationSpace(NamedTuple):
    """Degree-2 relation span for one pair, in coordinates over the length-2
    path basis (paths are keyed by their middle vertex's row tuple)."""

    mids: tuple[Rows, ...]
    vectors: tuple[tuple[Scalar, ...], ...]


class QuadraticPresentation:
    def __init__(
        self,
        max_size: int,
        objects: tuple[Rows, ...],
        relations: dict[tuple[Rows, Rows], RelationSpace],
    ) -> None:
        self.max_size = max_size
        self.objects = objects
        self.relations = relations
        # bottom -> its quotient walk, filled in by ``walk``
        self._walks: dict[tuple, dict[tuple, int]] = {}

    def walk(self, bottom: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """The nonzero dual hom dimensions above ``bottom``, keyed by row
        tuples; one quotient walk per bottom, kept for the presentation."""
        dims = self._walks.get(bottom)
        if dims is None:
            dims = self._walks[bottom] = _quotient_walk(bottom, self)
        return dims


def _c_relations(mu: Rows, lam: Rows, n_paths: int, of_lattice: bool) -> tuple:
    """C's degree-2 relations on the paths from mu to lam: a diamond's two commute,
    a column pair's one is killed (not with ``of_lattice``), a row pair's is free."""
    if n_paths == 2:
        return ((1, -1),)
    if not of_lattice and skew_classify(mu, lam).has_column_pair:
        return ((1,),)
    return ()


def build_quadratic_dual(
    max_size: int, bounds: Bounds = DEFAULT_BOUNDS, of_lattice: bool = False
) -> QuadraticPresentation:
    """The dual of C, or with ``of_lattice`` of the plain incidence category.
    A pair's relations, the annihilator of ``_c_relations``, are the
    transposed ``_quotient_images``, once per case.  Diagrams are row tuples."""
    check_bound(max_size, bounds.max_qdual_size, "quadratic dual size")
    objects = partitions_up_to(max_size, bounds)
    relations: dict[tuple[Rows, Rows], RelationSpace] = {}
    annihilators: dict[tuple, tuple] = {}
    for lam in objects:
        if lam.size < 2:
            continue
        for mu in partitions_of(lam.size - 2, bounds):
            if not lam.contains(mu):
                continue
            grown = (add_node(mu, r) for r in addable_rows(mu.rows))
            mids = tuple(nu.rows for nu in grown if lam.contains(nu))
            case = (len(mids), _c_relations(mu.rows, lam.rows, len(mids), of_lattice))
            if case not in annihilators:
                annihilators[case] = tuple(zip(*_quotient_images(*case)))
            relations[(mu.rows, lam.rows)] = RelationSpace(mids, annihilators[case])
    return QuadraticPresentation(max_size, tuple(p.rows for p in objects), relations)


def _quotient_images(n_cols: int, rows: list[list]) -> list[list]:
    """Images of the unit vectors of Q^n_cols in the quotient by the span of
    ``rows``, in the basis of the free columns of the reduced echelon form:
    a free column maps to its own basis vector, a pivot column to minus its
    row's free entries."""
    reduced, pivots = rref(rows)
    pivot_row = {col: r for r, col in enumerate(pivots)}
    free = [col for col in range(n_cols) if col not in pivot_row]
    images = []
    for col in range(n_cols):
        if col in pivot_row:
            row = reduced[pivot_row[col]]
            images.append([normalize(-row[f]) for f in free])
        else:
            images.append([int(f == col) for f in free])
    return images


def _quotient_walk(bottom: tuple[int, ...], presentation: QuadraticPresentation) -> dict:
    """Dimension of A(bottom, nu) for every nu above ``bottom`` in range, by
    the recursion for a quadratic algebra A_k = (A_{k-1} (x) V) /
    image(A_{k-2} (x) R) (Polishchuk-Positselski, *Quadratic Algebras*, ch. 1).

    At each nu, one size at a time, A(bottom, nu) is the quotient of
    F(nu) = (+)_{kappa -> nu} A(bottom, kappa) by one row
    sum_mid c_mid (b . (kappa' -> mid)) for every relation vector of
    R(kappa', nu) and every basis vector b of A(bottom, kappa').  The
    projections F(mid) -> A(bottom, mid) of the level below give
    b . (kappa' -> mid); only one level of them is kept.  Diagrams are row
    tuples, and nu with A(bottom, nu) = 0 is neither stored nor grown."""
    relations = presentation.relations
    dims = {bottom: 1}
    # nu -> {kappa: images in A(bottom, nu) of the basis of A(bottom, kappa)}
    level: dict[tuple, dict] = {bottom: {}}
    for _ in range(sum(bottom), presentation.max_size):
        arrows: dict[tuple, list] = {}
        for kappa in level:
            for nu in grown_rows(kappa):
                arrows.setdefault(nu, []).append(kappa)
        grown = {}
        for nu, kappas in arrows.items():
            offset = {}
            n_cols = 0
            for kappa in kappas:
                offset[kappa] = n_cols
                n_cols += dims[kappa]
            quotient_rows = []
            for low in dict.fromkeys(low for kappa in kappas for low in level[kappa]):
                rel = relations[(low, nu)]
                for vector in rel.vectors:
                    for b in range(dims[low]):
                        row = [0] * n_cols
                        for mid, coeff in zip(rel.mids, vector):
                            if coeff and mid in offset:
                                for j, x in enumerate(level[mid][low][b], offset[mid]):
                                    row[j] += coeff * x
                        if any(row):
                            quotient_rows.append(row)
            images = _quotient_images(n_cols, quotient_rows)
            if images[0]:
                dims[nu] = len(images[0])
                grown[nu] = {
                    kappa: images[offset[kappa] : offset[kappa] + dims[kappa]] for kappa in kappas
                }
        level = grown
    return dims


def dual_hom_dim(mu: Rows, lam: Rows, presentation: QuadraticPresentation) -> int:
    """Dimension of the dual hom space in degree |lam| - |mu|: free paths
    modulo the ideal generated by the degree-2 relations.  A lookup in the
    quotient walk above ``mu`` (``QuadraticPresentation.walk``); the tests
    check it against saturated-chain rows ranked by a signed union-find and
    by Bareiss rank."""
    check_bound(sum(lam), presentation.max_size, "quadratic dual size")
    return presentation.walk(mu).get(lam, 0)


def _expected_relations(mu: Rows, lam: Rows) -> list[list[int]]:
    """The paper's table for the dual over the distinct mids: nothing on a
    column pair, the full path on a row pair, p1 + p2 on a diamond."""
    sk = skew_classify(mu, lam)
    if sk.has_column_pair:
        return []
    return [[1]] if sk.has_row_pair else [[1, 1]]


def _over(mids: dict, rel: RelationSpace) -> list[list[Scalar]]:
    """``rel``'s vectors over ``mids``, where a repeated mid is one column."""
    return [
        [sum(c for m, c in zip(rel.mids, vector) if m == mid) for mid in mids]
        for vector in rel.vectors
    ]


def _span(rows: list[list[Scalar]]) -> list[list[Scalar]]:
    """The nonzero rows of the reduced echelon form: equal exactly when the
    spans of two sets of rows of one width are."""
    reduced, pivots = rref(rows)
    return reduced[: len(pivots)]


def _first_dimension_failure(
    presentation: QuadraticPresentation, rook: bool, check: str, expected_key: str
) -> tuple[int, dict | None]:
    """Compare the walked dual dimension of every pair |mu| <= |lam| with the
    strip rule: 1 where lam/mu is a vertical strip, or a rook strip when
    ``rook`` is set, and 0 elsewhere.  That is hom_dim_C, or
    hom_dim_Cprime_mod_J for the rook strips, on the transposed pair.

    Each bottom's support comes from ``strip_tops``, so no pair outside it
    is classified.  The pairs are counted as if scanned lam, then mu, in
    object order; the result is the count up to the first mismatch in that
    order (all pairs on a pass) and the mismatch."""
    objects = presentation.objects
    sizes = [sum(p) for p in objects]
    # objects of at most a given size; the objects come smaller sizes first
    up_to_size = {size: n for n, size in enumerate(sizes, 1)}
    index = {p: n for n, p in enumerate(objects)}
    first = None  # (lam index, mu index, computed, expected)
    for m, mu in enumerate(objects):
        dims = presentation.walk(mu)
        expected = dict.fromkeys(strip_tops(mu, presentation.max_size, rook), 1)
        if dims == expected:
            continue
        for lam in dims.keys() | expected.keys():
            computed = dims.get(lam, 0)
            if computed != expected.get(lam, 0) and (first is None or index[lam] < first[0]):
                first = (index[lam], m, computed, expected.get(lam, 0))
    if first is None:
        return sum(up_to_size[size] for size in sizes), None
    n, m, computed, expected_dim = first
    pairs_checked = sum(up_to_size[size] for size in sizes[:n]) + m + 1
    return pairs_checked, {
        "check": check,
        "pair": [format_partition(objects[m]), format_partition(objects[n])],
        "dual_dim": computed,
        expected_key: expected_dim,
    }


def verify_self_duality(
    max_size: int, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[dict[str, int], dict | None]:
    """Dimension match with the opposite category on transposed diagrams,
    the three-case relation table, and the sign-twisted functor check on
    every diamond in range.  Returns the counts and the first failure, or
    None; each check runs only if the ones before it passed."""
    presentation = build_quadratic_dual(max_size, bounds)
    counts = {"pairs_checked": 0, "relation_pairs_checked": 0, "diamonds_checked": 0}
    counts["pairs_checked"], failure = _first_dimension_failure(
        presentation, False, check="dimension", expected_key="transposed_hom_dim"
    )
    if failure:
        return counts, failure
    for (mu, lam), rel in sorted(
        presentation.relations.items(), key=lambda kv: (kv[0][1], kv[0][0])
    ):
        counts["relation_pairs_checked"] += 1
        stored = _over(dict.fromkeys(rel.mids), rel)
        expected = _expected_relations(mu, lam)
        # equal rows span one space; only rows that differ are reduced
        if stored != expected and _span(stored) != _span(expected):
            return counts, {
                "check": "relation_cases",
                "pair": [format_partition(mu), format_partition(lam)],
                "vectors": stored,
                "expected": expected,
            }
    transposed = {p: transpose(p) for p in presentation.objects}
    for bottom, r1, r2 in diamonds_up_to(max_size, bounds):
        counts["diamonds_checked"] += 1
        failure = _twisted_image_failure(bottom, r1, r2, presentation, transposed)
        if failure:
            return counts, failure
    return counts, None


def _twisted_image_failure(
    bottom: tuple[int, ...],
    r1: int,
    r2: int,
    presentation: QuadraticPresentation,
    transposed: dict,
) -> dict | None:
    """The duality functor sends the two commuting paths of a diamond to
    sign-twisted dual paths through the transposed diamond; it respects
    composition iff their difference lies in the relation span.  Verified by
    an exact rank test, not by re-deriving the sign identity: the relation
    vectors of the transposed pair, over the two diamond mids and any other
    mid of its relation space (a repeated mid is one column), must keep
    their ``rref`` pivot count when the difference is added."""
    vertices = diamond_vertices(bottom, r1, r2)
    mu_t, left_t, right_t, lam_t = (transposed[rows] for rows in vertices)
    rel = presentation.relations[(mu_t, lam_t)]
    mids = dict.fromkeys([left_t, right_t, *rel.mids])
    base = _over(mids, rel)
    sign_left, sign_right = path_signs(bottom, r1, r2)
    twisted = [sign_left, -sign_right] + [0] * (len(mids) - 2)
    if len(rref(base + [twisted])[1]) != len(rref(base)[1]):
        return {
            "check": "sign_twist",
            "diamond": [format_partition(rows) for rows in vertices],
            "signs": [sign_left, sign_right],
        }
    return None


def verify_lattice_dual(
    max_size: int, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[dict[str, int], dict | None]:
    """The dual of the plain incidence category has hom dimensions given by
    the rook-strip rule on transposed diagrams.  Returns the counts and the
    first failure, or None."""
    presentation = build_quadratic_dual(max_size, bounds, of_lattice=True)
    pairs_checked, first_failure = _first_dimension_failure(
        presentation, True, check="lattice_dual_dimension", expected_key="expected"
    )
    return {"lattice_pairs_checked": pairs_checked}, first_failure


def verify_quadratic_duality(max_size: int, bounds: Bounds = DEFAULT_BOUNDS) -> Certificate:
    """Self-duality plus the incidence-category dual, as one certificate; a
    self-duality failure is reported before a lattice one."""
    start = time.perf_counter()
    self_counts, self_failure = verify_self_duality(max_size, bounds)
    lattice_counts, lattice_failure = verify_lattice_dual(max_size, bounds)
    return Certificate(
        start,
        command="verify qdual",
        parameters={"max_size": max_size},
        counts={**self_counts, **lattice_counts},
        first_failure=self_failure or lattice_failure,
    )
