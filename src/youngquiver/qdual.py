"""Quadratic duals of the Young-lattice categories, computed on path spaces.

The dual category is presented by one dual generator per lattice arrow and
by degree-2 relation spaces: for each two-node containment pair the
relations are the image of the transposed multiplication map from length-2
paths onto the (at most one-dimensional) degree-2 hom space.  With canonical
generators the multiplication matrix over the path basis is a row of ones
when the hom space survives and zero otherwise, which yields the three
cases: no relation (column pair), the full path space (row pair), or the
anticommutativity line spanned by the sum of the two paths (diamond).

Higher dual hom dimensions are never assumed: they are computed as the free
path space modulo the two-sided ideal generated by the degree-2 relations.
Every relation vector has at most two nonzero entries (a killed path, or a
two-path line across a diamond), so each embedding prefix x relation x
suffix is a row with at most two terms, and the quotient dimension is the
number of live components of a signed union-find over paths
(``exactlinalg.two_term_corank``, checked against Bareiss rank in the tests).

Convention: a dual generator is stored as a morphism mu -> nu along the
lattice arrow and composition mirrors path concatenation; the dimension
statements checked here are independent of that choice.
"""

import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .certificates import Certificate
from .config import DEFAULT_BOUNDS, Bounds, check_bound
from .exactlinalg import RationalMatrix, kernel_basis, normalize, two_term_corank
from .partitions import (
    Partition,
    add_node,
    addable_nodes,
    diamonds_above,
    partitions_of,
    partitions_up_to,
    skew_classify,
    transpose,
)
from .quiver import hom_dim_C, hom_dim_Cprime_mod_J
from .signs import arrow_sign


@dataclass(frozen=True)
class RelationSpace:
    """Degree-2 relation span for one pair, in coordinates over the length-2
    path basis (paths are keyed by their middle vertex)."""

    mids: tuple[Partition, ...]
    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class QuadraticPresentation:
    max_size: int
    objects: tuple[Partition, ...]
    generators: tuple[tuple[Partition, Partition], ...]
    relations: dict[tuple[Partition, Partition], RelationSpace]
    of_lattice: bool  # True: relations of the plain incidence category dual

    @cached_property
    def relation_rows(self) -> dict[tuple, tuple]:
        """The relations in the form ``dual_hom_dim`` reads: keyed by the row
        tuples of each pair, every vector as its nonzero ``(mid rows,
        coefficient)`` pairs, integral coefficients as ``int``."""
        return {
            (mu.rows, lam.rows): tuple(
                tuple((mid.rows, normalize(c)) for mid, c in zip(rel.mids, v) if c)
                for v in rel.vectors
            )
            for (mu, lam), rel in self.relations.items()
        }


def _middle_vertices(mu: Partition, lam: Partition) -> list[Partition]:
    return [
        nu
        for nu in (add_node(mu, cell) for cell in addable_nodes(mu))
        if lam.contains(nu)
    ]


def build_quadratic_dual(
    max_size: int, bounds: Bounds = DEFAULT_BOUNDS, of_lattice: bool = False
) -> QuadraticPresentation:
    check_bound(max_size, bounds.max_qdual_size, "quadratic dual size")
    objects = tuple(partitions_up_to(max_size, bounds))
    generators = tuple(
        (mu, add_node(mu, cell))
        for mu in objects
        if mu.size < max_size
        for cell in addable_nodes(mu)
    )
    relations: dict[tuple[Partition, Partition], RelationSpace] = {}
    for lam in objects:
        if lam.size < 2:
            continue
        for mu in partitions_of(lam.size - 2, bounds):
            if not lam.contains(mu):
                continue
            mids = tuple(_middle_vertices(mu, lam))
            # row space of the multiplication map from length-2 paths onto
            # the degree-2 hom space: with canonical generators every
            # surviving composite is the canonical generator itself, so it
            # is the all-ones row when that space is nonzero
            if of_lattice or hom_dim_C(mu, lam):
                vectors = ((Fraction(1),) * len(mids),)
            else:
                vectors = ()
            relations[(mu, lam)] = RelationSpace(mids, vectors)
    return QuadraticPresentation(max_size, objects, generators, relations, of_lattice)


def _saturated_chains(mu: Partition, lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """Every maximal chain from mu up to lam, each diagram as its row tuple
    (building and hashing ``Partition`` objects here cost more than the
    union-find itself)."""
    if not lam.contains(mu):
        return []
    top = lam.rows + (0,)
    chains = [(mu.rows,)]
    for _ in range(lam.size - mu.size):
        grown = []
        for chain in chains:
            rows = chain[-1]
            for r, length in enumerate(rows + (0,)):
                if length < top[r] and (r == 0 or rows[r - 1] > length):
                    grown.append(chain + (rows[:r] + (length + 1,) + rows[r + 1 :],))
        chains = grown
    return chains


def dual_hom_dim(mu: Partition, lam: Partition, presentation: QuadraticPresentation) -> int:
    """Dimension of the dual hom space in degree |lam| - |mu|: free paths
    modulo the ideal generated by the degree-2 relations.  Each embedding
    prefix x relation vector x suffix is a row with at most two terms over
    the path basis, so the quotient dimension is ``two_term_corank``."""
    check_bound(lam.size, presentation.max_size, "quadratic dual size")
    paths = _saturated_chains(mu, lam)
    path_index = {path: idx for idx, path in enumerate(paths)}
    relations = presentation.relation_rows
    rows = (
        [(path_index[path[: j + 1] + (mid,) + path[j + 2 :]], coeff) for mid, coeff in row]
        for path in paths
        for j in range(len(path) - 2)
        for row in relations[(path[j], path[j + 2])]
    )
    return two_term_corank(len(paths), rows)


def annihilator_presentation(presentation: QuadraticPresentation) -> QuadraticPresentation:
    """Presentation whose relation spaces are the annihilators of the given
    ones (quadratic duality applied once more, at the level of relations)."""
    relations = {}
    for pair, rel in presentation.relations.items():
        matrix = RationalMatrix.from_rows([list(v) for v in rel.vectors], len(rel.mids))
        vectors = tuple(tuple(v) for v in kernel_basis(matrix))
        relations[pair] = RelationSpace(rel.mids, vectors)
    return QuadraticPresentation(
        presentation.max_size,
        presentation.objects,
        presentation.generators,
        relations,
        of_lattice=presentation.of_lattice,
    )


def _expected_relation_dimension(mu: Partition, lam: Partition) -> int:
    """The three-case table: 0 for a column pair, full for a row pair,
    codimension one across a diamond."""
    sk = skew_classify(mu, lam)
    if sk.has_column_pair:
        return 0
    n_paths = len(_middle_vertices(mu, lam))
    if sk.has_row_pair:
        return n_paths  # single path, killed entirely
    return n_paths - 1  # diamond: anticommutativity line


def verify_self_duality(max_size: int, bounds: Bounds = DEFAULT_BOUNDS) -> Certificate:
    """Dimension match with the opposite category on transposed diagrams,
    the three-case relation table, and the sign-twisted functor check on
    every diamond in range."""
    start = time.perf_counter()
    presentation = build_quadratic_dual(max_size, bounds)
    first_failure = None
    pairs_checked = 0
    relation_pairs_checked = 0
    diamonds_checked = 0

    for lam in presentation.objects:
        for mu in partitions_up_to(lam.size, bounds):
            computed = dual_hom_dim(mu, lam, presentation)
            expected = hom_dim_C(transpose(mu), transpose(lam))
            pairs_checked += 1
            if computed != expected:
                first_failure = {
                    "check": "dimension",
                    "pair": [str(mu), str(lam)],
                    "dual_dim": computed,
                    "transposed_hom_dim": expected,
                }
                break
        if first_failure:
            break

    if first_failure is None:
        for (mu, lam), rel in sorted(
            presentation.relations.items(), key=lambda kv: (kv[0][1].rows, kv[0][0].rows)
        ):
            relation_pairs_checked += 1
            if rel.dimension != _expected_relation_dimension(mu, lam):
                first_failure = {
                    "check": "relation_cases",
                    "pair": [str(mu), str(lam)],
                    "relation_dim": rel.dimension,
                    "expected": _expected_relation_dimension(mu, lam),
                }
                break

    if first_failure is None:
        bottoms = partitions_up_to(max_size - 2, bounds) if max_size >= 2 else []
        for bottom in bottoms:
            for diamond in diamonds_above(bottom):
                diamonds_checked += 1
                failure = _twisted_image_failure(diamond, presentation)
                if failure:
                    first_failure = failure
                    break
            if first_failure:
                break

    return Certificate.timed(
        start,
        command="verify qdual.selfduality",
        parameters={"max_size": max_size},
        counts={
            "pairs_checked": pairs_checked,
            "relation_pairs_checked": relation_pairs_checked,
            "diamonds_checked": diamonds_checked,
        },
        first_failure=first_failure,
        details={"generator_convention": "dual arrow mu->nu composes like path concatenation"},
    )


def _twisted_image_failure(diamond, presentation: QuadraticPresentation) -> dict | None:
    """The duality functor sends the two commuting paths of a diamond to
    sign-twisted dual paths through the transposed diamond; it respects
    composition iff their difference lies in the relation span.  Verified by
    an exact rank test, not by re-deriving the sign identity: adding the
    difference to the relation rows must leave ``two_term_corank`` unchanged
    (every one of these rows has at most two terms)."""
    mu_t = transpose(diamond.bottom)
    lam_t = transpose(diamond.top)
    left_t = transpose(diamond.mid_left)
    right_t = transpose(diamond.mid_right)
    relation = presentation.relations[(mu_t, lam_t)]
    sign_left = arrow_sign(diamond.bottom, diamond.mid_left) * arrow_sign(
        diamond.mid_left, diamond.top
    )
    sign_right = arrow_sign(diamond.bottom, diamond.mid_right) * arrow_sign(
        diamond.mid_right, diamond.top
    )
    twisted = [
        (relation.mids.index(left_t), sign_left),
        (relation.mids.index(right_t), -sign_right),
    ]
    base = [list(enumerate(v)) for v in relation.vectors]
    n_paths = len(relation.mids)
    if two_term_corank(n_paths, base + [twisted]) != two_term_corank(n_paths, base):
        return {
            "check": "sign_twist",
            "diamond": [
                str(diamond.bottom),
                str(diamond.mid_left),
                str(diamond.mid_right),
                str(diamond.top),
            ],
            "signs": [sign_left, sign_right],
        }
    return None


def verify_lattice_dual(max_size: int, bounds: Bounds = DEFAULT_BOUNDS) -> Certificate:
    """The dual of the plain incidence category has hom dimensions given by
    the rook-strip rule on transposed diagrams."""
    start = time.perf_counter()
    presentation = build_quadratic_dual(max_size, bounds, of_lattice=True)
    first_failure = None
    pairs_checked = 0
    for lam in presentation.objects:
        for mu in partitions_up_to(lam.size, bounds):
            computed = dual_hom_dim(mu, lam, presentation)
            expected = hom_dim_Cprime_mod_J(transpose(mu), transpose(lam))
            pairs_checked += 1
            if computed != expected:
                first_failure = {
                    "check": "lattice_dual_dimension",
                    "pair": [str(mu), str(lam)],
                    "dual_dim": computed,
                    "expected": expected,
                }
                break
        if first_failure:
            break
    return Certificate.timed(
        start,
        command="verify qdual.lattice",
        parameters={"max_size": max_size},
        counts={"lattice_pairs_checked": pairs_checked},
        first_failure=first_failure,
    )


def verify_quadratic_duality(max_size: int, bounds: Bounds = DEFAULT_BOUNDS) -> Certificate:
    """Self-duality plus the incidence-category dual, as one certificate."""
    start = time.perf_counter()
    self_cert = verify_self_duality(max_size, bounds)
    lattice_cert = verify_lattice_dual(max_size, bounds)
    first_failure = None
    if not self_cert.passed:
        first_failure = self_cert.first_failure
    elif not lattice_cert.passed:
        first_failure = lattice_cert.first_failure
    return Certificate.timed(
        start,
        command="verify qdual",
        parameters={"max_size": max_size},
        counts={**self_cert.counts, **lattice_cert.counts},
        first_failure=first_failure,
        details=self_cert.details,
    )
