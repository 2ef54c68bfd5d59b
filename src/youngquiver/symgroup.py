"""Exact symmetric group algebra over the rationals.

Permutations of {1..n} are image tuples, the images of 1..n; a product pq
composes right-to-left, (pq)(i) = p(q(i)).  Diagrams and cycle types are
row tuples, as in every other sweep.
Group algebra elements are sparse rational combinations of permutations,
stored as integer numerators keyed by image tuples over one common
denominator; a product composes the tuples directly and sums integers.
Characters, and dimensions as the character at the identity class, come
from the Murnaghan-Nakayama recursion on border strips; class sizes are
n!/z from the centralizer orders z, and S_n is enumerated once per degree
(``_cycle_types``).  Centrally primitive idempotents come from the
character formula, and Young symmetrizers e = k·R·C from the row group R
and column group C of a shape filled row by row.  A direct rank uses the full Young stabilizers of the
symmetrizers, r·e_mu = ψ(r)·e_mu and e_lam·c = χ(c)·e_lam with ψ, χ
trivial or sign on each block: it computes e_lam·g·e_mu once per double
coset, after checking both symmetries on generators, and ranks those
products alone, since every other row is ± one of them.  A coset whose
walk meets a permutation again with the opposite sign has a zero row and
gets no product; ``multiply`` stays the one general product and the
tests' oracle.  An element is central exactly when its coefficients are
constant on each conjugacy class, which one scan over its terms decides;
central elements are then multiplied in the basis of class sums by the
class multiplication constants, not in the group algebra.  Induction
multiplicities are integer character pairings over cycle-type pairs
weighted by class sizes, divided exactly by the group order once at the
end, which keeps them feasible well past the point where summing over group
elements would blow up.

These are the brute-force ground truth against which the combinatorial
quiver description is checked.
"""

import time
from fractions import Fraction
from functools import cache, cached_property
from itertools import permutations as iter_permutations
from itertools import product
from math import factorial, gcd
from operator import itemgetter

from .certificates import Certificate
from .config import DEFAULT_BOUNDS, Bounds, check_bound
from .exactlinalg import IntMatrix, rank
from .partitions import Rows, contains, format_partition, partition_rows
from .records import Record


def _cycle_lengths(images: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of a permutation in one-line notation, fixed points
    included, longest first."""
    seen = [False] * (len(images) + 1)
    lengths = []
    for start in range(1, len(images) + 1):
        length = 0
        point = start
        while not seen[point]:
            seen[point] = True
            point = images[point - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@cache
def _cycle_types(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(images, cycle type) of every permutation of 1..n, in the order of
    ``itertools.permutations``: the one enumeration of S_n, computed once
    per degree and shared, the group order of ``_double_cosets`` included."""
    return tuple(
        (images, _cycle_lengths(images)) for images in iter_permutations(range(1, n + 1))
    )


def _sign(images: tuple[int, ...]) -> int:
    return -1 if (len(images) - len(_cycle_lengths(images))) % 2 else 1


class GroupAlgebraElement(Record):
    """Sparse rational combination of permutations of fixed degree.

    The coefficient of the permutation with one-line images ``t`` is
    ``numerators[t] / denominator``.  Construction drops zero numerators and
    brings the fraction to lowest terms with a positive denominator (zero
    has denominator 1), so two elements are equal exactly when their fields
    are.  Keys are not validated: callers build them from permutations.
    """

    __slots__ = ("degree", "numerators", "denominator")

    def __init__(
        self, degree: int, numerators: dict[tuple[int, ...], int], denominator: int = 1
    ) -> None:
        if not denominator:
            raise ZeroDivisionError("group algebra element with denominator 0")
        numerators = {images: c for images, c in numerators.items() if c}
        common = gcd(denominator, *numerators.values())
        if denominator < 0:
            common = -common
        if common != 1:
            numerators = {images: c // common for images, c in numerators.items()}
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator // common)

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        # read only by the symgroup.multiply term-pair counter of perfbench/tracing.py
        return self.numerators

    def is_zero(self) -> bool:
        return not self.numerators

    def scale(self, scalar: Fraction | int) -> "GroupAlgebraElement":
        scalar = Fraction(scalar)
        return GroupAlgebraElement(
            self.degree,
            {images: c * scalar.numerator for images, c in self.numerators.items()},
            self.denominator * scalar.denominator,
        )

    def embed(self, degree: int) -> "GroupAlgebraElement":
        """View inside a larger symmetric group, fixing the new points."""
        if degree < self.degree:
            raise ValueError(f"cannot extend degree {self.degree} to {degree}")
        tail = tuple(range(self.degree + 1, degree + 1))
        return GroupAlgebraElement(
            degree,
            {images + tail: c for images, c in self.numerators.items()},
            self.denominator,
        )


def multiply(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Convolution product (bilinear extension of composition).

    The images of p*q are p's images read at q's images, so one
    ``_composer`` per term of ``b`` composes it with every term of ``a``.
    """
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    acc: dict[tuple[int, ...], int] = {}
    left, left_numerators = tuple(a.numerators), tuple(a.numerators.values())
    for q, y in b.numerators.items():
        for r, x in zip(map(_composer(q), left), left_numerators):
            acc[r] = acc.get(r, 0) + x * y
    return GroupAlgebraElement(a.degree, acc, a.denominator * b.denominator)


def _border_strip_removals(shape: tuple[int, ...], length: int):
    """(smaller shape, sign) for each removable border strip of the given
    length, via beta-numbers: removing a strip moves one beta number down by
    ``length``; the sign is (-1)^(number of beta numbers jumped over)."""
    depth = len(shape)
    betas = [shape[i] + (depth - 1 - i) for i in range(depth)]
    beta_set = set(betas)
    for b in betas:
        target = b - length
        if target < 0 or target in beta_set:
            continue
        crossings = sum(1 for x in betas if target < x < b)
        new_betas = sorted([x for x in betas if x != b] + [target], reverse=True)
        lengths = [nb - (depth - 1 - i) for i, nb in enumerate(new_betas)]
        yield tuple(v for v in lengths if v > 0), (-1) ** crossings


@cache
def _mn_character(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    first, rest = cycles[0], cycles[1:]
    return sum(
        sign * _mn_character(smaller, rest)
        for smaller, sign in _border_strip_removals(shape, first)
    )


@cache
def centralizer_order(cycle_type: Rows) -> int:
    counts: dict[int, int] = {}
    for part in cycle_type:
        counts[part] = counts.get(part, 0) + 1
    order = 1
    for length, mult in counts.items():
        order *= length**mult * factorial(mult)
    return order


def central_idempotent(mu: Rows, bounds: Bounds = DEFAULT_BOUNDS) -> GroupAlgebraElement:
    """(dim/n!) * sum over the group of character values times permutations."""
    n = sum(mu)
    check_bound(n, bounds.max_group_degree, "group degree")
    dim = _mn_character(mu, (1,) * n)
    types = _cycle_types(n)
    # one character value per cycle type
    value = {cycles: dim * _mn_character(mu, cycles) for _, cycles in types}
    numerators = {images: value[cycles] for images, cycles in types if value[cycles]}
    return GroupAlgebraElement(n, numerators, factorial(n))


class ClassSums:
    """The centre Z(C[S_n]) in the basis of class sums C_k, one per cycle
    type, numbered in the order of ``partition_rows(n)``.

    A central element is constant on each class, so it is a vector of class
    coefficients, and a product of two such vectors needs only the class
    multiplication constants: C_i C_j = sum_k c_ijk C_k, where c_ijk counts
    the x in C_i with x^-1 z_k in C_j for a fixed z_k in C_k (Isaacs,
    *Character Theory of Finite Groups*, ch. 2).  The constants are counted
    on first use, one pass over the group per class; the class sizes are
    n!/z from the centralizer orders z, as in ``induction_multiplicity``.
    """

    def __init__(self, n: int, bounds: Bounds = DEFAULT_BOUNDS) -> None:
        check_bound(n, bounds.max_group_degree, "group degree")
        self.degree = n
        number = {rows: k for k, rows in enumerate(partition_rows(n, bounds))}
        self.class_of = {images: number[cycles] for images, cycles in _cycle_types(n)}
        self.sizes = [factorial(n) // centralizer_order(cycles) for cycles in number]
        self.identity = self.class_of[tuple(range(1, n + 1))]

    def coefficients(self, x: GroupAlgebraElement) -> list[int] | None:
        """x's numerator on each class sum, or None if x is not central: the
        numerators must be constant on each class, and a class is either
        wholly present or wholly absent."""
        if x.degree != self.degree:
            raise ValueError(f"degree mismatch: {x.degree} vs {self.degree}")
        coefficients = [0] * len(self.sizes)
        present = [0] * len(self.sizes)
        for images, c in x.numerators.items():
            k = self.class_of[images]
            if coefficients[k] not in (0, c):
                return None
            coefficients[k] = c
            present[k] += 1
        if any(count not in (0, size) for count, size in zip(present, self.sizes)):
            return None
        return coefficients

    @cached_property
    def constants(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """(i, j) -> the nonzero (k, c_ijk).  Every permutation of S_n is
        conjugate to its inverse, so c_ijk also counts the x in C_i with
        x z_k in C_j, which composes z_k into x as ``multiply`` does."""
        representatives: dict[int, tuple[int, ...]] = {}
        for images, k in self.class_of.items():
            representatives.setdefault(k, images)
        counts: dict[tuple[int, int, int], int] = {}
        for k, z in representatives.items():
            compose = _composer(z)
            for x, i in self.class_of.items():
                key = (i, self.class_of[compose(x)], k)
                counts[key] = counts.get(key, 0) + 1
        constants: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (i, j, k), c in counts.items():
            constants.setdefault((i, j), []).append((k, c))
        return constants

    def product(self, a: list[int], b: list[int]) -> list[int]:
        """Class coefficients of the product of two central elements given
        by their class coefficients (numerators: the denominators multiply)."""
        acc = [0] * len(self.sizes)
        for (i, j), terms in self.constants.items():
            if a[i] and b[j]:
                weight = a[i] * b[j]
                for k, c in terms:
                    acc[k] += weight * c
        return acc


def _composer(q: tuple[int, ...]):
    """p -> pq, p's images read at q's images (the identity map below
    degree 2, where the group is trivial and ``itemgetter`` would not
    return a tuple)."""
    if len(q) < 2:
        return lambda p: p
    return itemgetter(*[j - 1 for j in q])


def _block_stabilizer(blocks: list[tuple[int, ...]], n: int):
    """Image tuples of the permutations preserving each block setwise."""
    for arrangements in product(*map(iter_permutations, blocks)):
        images = list(range(n + 1))
        for block, arrangement in zip(blocks, arrangements):
            for src, dst in zip(block, arrangement):
                images[src] = dst
        yield tuple(images[1:])


@cache
def _filling(shape: Rows) -> tuple[tuple[Rows, ...], tuple[Rows, ...]]:
    """Row blocks and column blocks of ``shape`` filled with 1..n row by
    row, top to bottom and left to right (a standard filling).  Their
    stabilizers are the row group R and the column group C."""
    rows, start = [], 1
    for length in shape:
        rows.append(tuple(range(start, start + length)))
        start += length
    width = shape[0] if shape else 0
    cols = tuple(tuple(row[c] for row in rows if len(row) > c) for c in range(width))
    return tuple(rows), cols


@cache
def _stabilizer_blocks(shape: Rows, left: bool) -> tuple[tuple[Rows, int], ...]:
    """(block, character) pairs of the Young subgroup that fixes the Young
    symmetrizer e = k·R·C of ``shape`` up to a character, on the ``left``
    (r·e) or on the right (e·c); the character is 1 (trivial) or -1 (sign).

    On the right each column of length > 1 acts by sign, and in each row
    the entries whose column has length 1 commute with C, so they form one
    trivial block.  On the left, transposed, each row of length > 1 acts
    trivially, and in each column the entries whose row has length 1 form
    one sign block.  Blocks of one entry are dropped."""
    rows, cols = _filling(shape)
    main, cross, character = (rows, cols, 1) if left else (cols, rows, -1)
    alone = {entry for block in main if len(block) == 1 for entry in block}
    blocks = [(block, character) for block in main]
    blocks += [(tuple(e for e in block if e in alone), -character) for block in cross]
    return tuple((block, c) for block, c in blocks if len(block) > 1)


def _transpositions(blocks, degree: int, left: bool):
    """(p -> t·p if ``left`` else p·t, character) for each transposition t
    of two adjacent entries of a block, with that block's character.  The
    t generate the blocks' Young subgroup."""
    for block, character in blocks:
        for a, b in zip(block, block[1:]):
            if left:
                # t·p relabels p's images a and b
                swap = {a: b, b: a}
                yield (lambda p, swap=swap: tuple(map(swap.get, p, p))), character
            else:
                t = list(range(1, degree + 1))
                t[a - 1], t[b - 1] = b, a
                yield _composer(tuple(t)), character


def _acts_by_characters(x: GroupAlgebraElement, blocks, left: bool) -> bool:
    """Whether t·x (``left``) or x·t equals χ(t)·x for each generator t of
    the blocks' Young subgroup, χ its block's character.  Then every
    element of the subgroup acts on x by the product of its blocks'
    characters."""
    return all(
        {move(p): character * c for p, c in x.numerators.items()} == x.numerators
        for move, character in _transpositions(blocks, x.degree, left)
    )


def young_symmetrizer(shape: Rows, bounds: Bounds = DEFAULT_BOUNDS) -> GroupAlgebraElement:
    """Row symmetrizer times signed column symmetrizer of ``shape``'s
    standard filling (``_filling``), normalized by dim/n! so the result is
    a genuine idempotent."""
    n = sum(shape)
    check_bound(n, bounds.max_group_degree, "group degree")
    rows, cols = _filling(shape)
    row_sum = GroupAlgebraElement(n, {images: 1 for images in _block_stabilizer(rows, n)})
    col_sum = GroupAlgebraElement(
        n, {images: _sign(images) for images in _block_stabilizer(cols, n)}
    )
    dim = _mn_character(shape, (1,) * n)
    return multiply(row_sum, col_sum).scale(Fraction(dim, factorial(n)))


def direct_hom_dimension(mu: Rows, lam: Rows, bounds: Bounds = DEFAULT_BOUNDS) -> int:
    """Rank of the span of e_lam * g * e_mu over the permutations g of
    S_{n+1}, computed with exact arithmetic.  Every injection n -> n+1
    extends to exactly one permutation, so the g are the injection bimodule
    basis, and this is the degree-one hom dimension measured directly on
    idempotents, with no combinatorics.

    For c in the right stabilizer of e_lam and r in the left stabilizer of
    e_mu (``_stabilizer_blocks``), e_lam·c = χ(c)·e_lam and r·e_mu =
    ψ(r)·e_mu, so the row of c·g·r is χ(c)·ψ(r) times the row of g.  One
    product per double coset therefore spans the same rows, and only those
    products are ranked; a coset holding some c·g·r = g with χ(c)·ψ(r) = -1
    has a row equal to its own negative, which is zero without a product.
    Both symmetries are checked on generators first, and a side that fails
    its check shares no rows."""
    n = sum(mu)
    if sum(lam) != n + 1:
        raise ValueError("target must have exactly one more node than source")
    check_bound(n, bounds.max_direct_hom_degree, "direct hom degree")
    group_order, rows, _ = _coset_rows(mu, lam, bounds)
    return rank(IntMatrix.from_rows(rows, len(group_order)))


def _coset_rows(mu: Rows, lam: Rows, bounds: Bounds):
    """(the permutations g of S_{n+1} in order, one row e_lam·g·e_mu per
    double coset, g -> (index of its coset's row, sign)): the row of g is
    sign times that row.  The cosets come from ``_double_cosets`` over the
    checked blocks, and a coset whose walk proves its row zero gets a zero
    row without a product."""
    n = sum(mu)
    e_lam = young_symmetrizer(lam, bounds)
    e_mu = young_symmetrizer(mu, bounds).embed(n + 1)
    lam_blocks = _stabilizer_blocks(lam, left=False)
    if not _acts_by_characters(e_lam, lam_blocks, left=False):
        lam_blocks = ()
    mu_blocks = _stabilizer_blocks(mu, left=True)
    if not _acts_by_characters(e_mu, mu_blocks, left=True):
        mu_blocks = ()
    group_order, cover, starts = _double_cosets(lam_blocks, mu_blocks, n + 1)
    rows: list[list[int]] = []
    for g in starts:
        if g is None:
            rows.append([0] * len(group_order))
            continue
        # numerators only: scaling a row by its denominator keeps the rank
        numerators = multiply(multiply(e_lam, GroupAlgebraElement(n + 1, {g: 1})), e_mu).numerators
        rows.append([numerators.get(images, 0) for images in group_order])
    return group_order, rows, cover


def _double_cosets(lam_blocks, mu_blocks, degree: int):
    """(the permutations g of S_degree in order, g -> (index of its coset,
    sign), each coset's first permutation or None): the cosets are the
    orbits of g -> c·g for the generators c of ``lam_blocks`` and g -> g·r
    for those of ``mu_blocks``, each walked from its first permutation, and
    the sign is the product of the generators' characters along the walk.

    A walk that reaches a permutation again with the opposite sign has found
    c·g·r = g with χ(c)·ψ(r) = -1, so the coset's row equals its own
    negative and is zero; such a coset's entry is None."""
    # row(t·g) = χ(t)·row(g) and row(g·t) = ψ(t)·row(g)
    moves = [
        *_transpositions(lam_blocks, degree, left=True),
        *_transpositions(mu_blocks, degree, left=False),
    ]
    group_order = [images for images, _ in _cycle_types(degree)]
    cover: dict[tuple[int, ...], tuple[int, int]] = {}
    starts: list[tuple[int, ...] | None] = []
    for g in group_order:
        if g in cover:
            continue
        index = len(starts)
        cover[g] = (index, 1)
        zero = False
        orbit = [g]
        for h in orbit:
            sign = cover[h][1]
            for move, character in moves:
                k = move(h)
                seen = cover.get(k)
                if seen is None:
                    cover[k] = (index, sign * character)
                    orbit.append(k)
                elif seen[1] != sign * character:
                    zero = True
        starts.append(None if zero else g)
    return group_order, cover, starts


def induction_multiplicity(mu: Rows, m: int, lam: Rows, bounds: Bounds = DEFAULT_BOUNDS) -> int:
    """Multiplicity of the lam-irreducible in the module induced from
    (mu-irreducible) x (trivial) along S_n x S_m -> S_{n+m}.

    Frobenius reciprocity turns this into a character pairing; the sum runs
    over cycle-type pairs (alpha, beta) weighted by their class sizes
    n!/z_alpha and m!/z_beta rather than over group elements, all in
    integers, and is divided by n! m! once at the end.
    """
    n = sum(mu)
    if m < 0:
        raise ValueError("m must be non-negative")
    if sum(lam) != n + m:
        raise ValueError(f"|{format_partition(lam)}| must equal |{format_partition(mu)}| + {m}")
    check_bound(n + m, bounds.max_induction_degree, "induction degree")
    order_n, order_m = factorial(n), factorial(m)
    betas = [(beta, order_m // centralizer_order(beta)) for beta in partition_rows(m, bounds)]
    total = 0
    for alpha in partition_rows(n, bounds):
        chi_mu = _mn_character(mu, alpha)
        if not chi_mu:
            continue
        weight = chi_mu * (order_n // centralizer_order(alpha))
        for beta, size in betas:
            chi_lam = _mn_character(lam, tuple(sorted(alpha + beta, reverse=True)))
            if chi_lam:
                total += chi_lam * weight * size
    multiplicity, remainder = divmod(total, order_n * order_m)
    if remainder or multiplicity < 0:
        raise ArithmeticError(f"character pairing returned {Fraction(total, order_n * order_m)}")
    return multiplicity


def verify_branching(
    n_max: int, direct_n_max: int, bounds: Bounds = DEFAULT_BOUNDS
) -> Certificate:
    """Quiver arrows from representation theory: the character-pairing
    multiplicity into degree n+1 is 1 exactly on one-node additions, the lam
    that contain mu, and the rank computed from actual idempotents and the
    injection bimodule agrees where that computation is feasible (degrees up
    to ``direct_n_max``, which is capped at ``n_max``).  The sweep stops at
    the first pair that ``_pair_failure`` fails."""
    start = time.perf_counter()
    direct_n_max = min(direct_n_max, n_max)
    # every bound the sweep reaches at its top degree, checked before any
    # work; the direct ranks at degree n work inside C[S_{n+1}]
    check_bound(n_max + 1, bounds.max_induction_degree, "induction degree")
    check_bound(direct_n_max, bounds.max_direct_hom_degree, "direct hom degree")
    check_bound(direct_n_max + 1, bounds.max_group_degree, "group degree")
    check_bound(n_max + 1, bounds.max_partition_size, "partition size")
    counts = {"character_pairs": 0, "direct_pairs": 0}
    failures = (
        _pair_failure(mu, lam, n <= direct_n_max, counts, bounds)
        for n in range(n_max + 1)
        for mu in partition_rows(n, bounds)
        for lam in partition_rows(n + 1, bounds)
    )
    first_failure = next(filter(None, failures), None)
    return Certificate(
        start,
        command="verify morita",
        parameters={"n": n_max, "direct_n": direct_n_max},
        counts=counts,
        first_failure=first_failure,
        details={
            "transversal": "injection bimodule basis is S_{n+1}; "
            "one product per double coset of the stabilizers of e_lam, e_mu"
        },
    )


def _pair_failure(
    mu: Rows, lam: Rows, direct: bool, counts: dict[str, int], bounds: Bounds
) -> dict | None:
    """The first failure of the checks of ``verify_branching`` on the pair
    mu -> lam, the character pairing and then, if ``direct``, the rank on
    idempotents, or None; ``counts`` grows by the checks run."""
    expected = 1 if contains(lam, mu) else 0
    found = induction_multiplicity(mu, 1, lam, bounds)
    counts["character_pairs"] += 1
    check, key = "character_branching", "multiplicity"
    if found == expected and direct:
        found = direct_hom_dimension(mu, lam, bounds)
        counts["direct_pairs"] += 1
        check, key = "direct_idempotent_rank", "rank"
    if found == expected:
        return None
    pair = [format_partition(mu), format_partition(lam)]
    return {"check": check, "pair": pair, key: found, "expected": expected}


def verify_idempotent_system(n_max: int, bounds: Bounds = DEFAULT_BOUNDS) -> Certificate:
    """Central idempotents: idempotent, central, pairwise orthogonal (each
    unordered pair once, as the earlier factor is already central), summing
    to the identity; normalized Young symmetrizers idempotent.

    Centrality is the class scan of ``ClassSums.coefficients``, and the
    products of central elements are taken on their class coefficients.  A
    non-central element is multiplied in the group algebra instead, so it is
    still reported as not idempotent before not central, and as a
    non-orthogonal later factor.  Each degree is checked by
    ``_degree_failure``, and the sweep stops at the first that fails."""
    start = time.perf_counter()
    check_bound(n_max, bounds.max_group_degree, "group degree")
    check_bound(n_max, bounds.max_partition_size, "partition size")
    counts = {"idempotents_checked": 0, "symmetrizers_checked": 0}
    failures = (_degree_failure(n, counts, bounds) for n in range(n_max + 1))
    first_failure = next(filter(None, failures), None)
    return Certificate(
        start,
        command="verify idempotents",
        parameters={"n": n_max},
        counts=counts,
        first_failure=first_failure,
    )


def _degree_failure(n: int, counts: dict[str, int], bounds: Bounds) -> dict | None:
    """The first failure of the degree-n checks of ``verify_idempotent_system``
    in its order, or None; ``counts`` grows by the elements checked."""
    centre = ClassSums(n, bounds)
    blocks = [(mu, central_idempotent(mu, bounds)) for mu in partition_rows(n, bounds)]
    vectors = [centre.coefficients(e_mu) for _, e_mu in blocks]
    # the sum of the e_mu on the class sums
    total = [0] * len(centre.sizes)
    for index, ((mu, e_mu), v) in enumerate(zip(blocks, vectors)):
        counts["idempotents_checked"] += 1
        if v is None:
            check = "idempotent" if multiply(e_mu, e_mu) != e_mu else "central"
            return {"check": check, "partition": format_partition(mu)}
        # (v/d)^2 = v/d with d the denominator of e_mu
        if centre.product(v, v) != [c * e_mu.denominator for c in v]:
            return {"check": "idempotent", "partition": format_partition(mu)}
        total = [t + Fraction(c, e_mu.denominator) for t, c in zip(total, v)]
        # for nu before mu, e_nu is central and e_nu * e_mu was found to
        # be zero, so e_mu * e_nu is the same zero product
        for (nu, e_nu), w in zip(blocks[index + 1 :], vectors[index + 1 :]):
            if w is None:
                orthogonal = multiply(e_mu, e_nu).is_zero()
            else:
                orthogonal = not any(centre.product(v, w))
            if not orthogonal:
                return {
                    "check": "orthogonal",
                    "pair": [format_partition(mu), format_partition(nu)],
                }
        f_mu = young_symmetrizer(mu, bounds)
        counts["symmetrizers_checked"] += 1
        if multiply(f_mu, f_mu) != f_mu:
            return {"check": "symmetrizer_idempotent", "partition": format_partition(mu)}
    if total != [int(k == centre.identity) for k in range(len(total))]:
        return {"check": "sum_to_identity", "degree": n}
    return None
