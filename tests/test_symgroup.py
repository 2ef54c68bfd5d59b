from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as iter_permutations
from math import factorial, gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from youngquiver import symgroup
from youngquiver.config import BoundExceededError, Bounds
from youngquiver.exactlinalg import IntMatrix, rank
from youngquiver.partitions import (
    Partition,
    format_partition,
    partition_rows,
    partitions_of,
    skew_classify,
)
from youngquiver.quiver import hom_dim_C
from youngquiver.signs import addition_orders
from youngquiver.symgroup import (
    ClassSums,
    GroupAlgebraElement,
    _cycle_lengths,
    _acts_by_characters,
    _mn_character,
    _sign,
    central_idempotent,
    centralizer_order,
    direct_hom_dimension,
    induction_multiplicity,
    multiply,
    verify_idempotent_system,
    young_symmetrizer,
)

from oracles import hook_length_dimension, load_bench_workloads

P = lambda *rows: tuple(rows)
EMPTY = ()


@dataclass(frozen=True, slots=True)
class Permutation:
    """One-line notation, images of 1..n, checked to be a bijection: the
    oracle for the package's bare image tuples."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)


def from_permutation(perm):
    return GroupAlgebraElement(perm.n, {perm.images: 1})


def unit(degree):
    """The unit of C[S_degree]."""
    return GroupAlgebraElement(degree, {tuple(range(1, degree + 1)): 1})


def zero(degree):
    return GroupAlgebraElement(degree, {})


def add(x, y):
    """x + y over the least common denominator."""
    if x.degree != y.degree:
        raise ValueError("degree mismatch")
    denominator = lcm(x.denominator, y.denominator)
    mine, theirs = denominator // x.denominator, denominator // y.denominator
    acc = {images: c * mine for images, c in x.numerators.items()}
    for images, c in y.numerators.items():
        acc[images] = acc.get(images, 0) + c * theirs
    return GroupAlgebraElement(x.degree, acc, denominator)


def character_value(lam, cycle_type):
    """Irreducible character of the symmetric group, by the package's
    Murnaghan-Nakayama recursion, with a size check."""
    if sum(lam) != sum(cycle_type):
        raise ValueError(
            f"size mismatch: |{format_partition(lam)}| != |{format_partition(cycle_type)}|"
        )
    return _mn_character(lam, cycle_type)


def fraction_terms(x):
    """x's terms as ``Permutation -> Fraction``, read from its integer store."""
    return {
        Permutation(images): Fraction(c, x.denominator) for images, c in x.numerators.items()
    }


def all_permutations(n):
    return [Permutation(images) for images in iter_permutations(range(1, n + 1))]


def compose_images(a, b):
    """Independent composition oracle on image tuples: (a*b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def inverse_images(a):
    return tuple(a.index(i) + 1 for i in range(1, len(a) + 1))


def class_size(cycle_type):
    return factorial(sum(cycle_type)) // centralizer_order(cycle_type)


def image_tuples(max_n=6):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )


@dataclass(frozen=True)
class Tableau:
    """Bijective filling of a shape with 1..n, stored as row tuples."""

    shape: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if tuple(len(row) for row in entries) != self.shape:
            raise ValueError("entries do not match shape")
        flat = sorted(v for row in entries for v in row)
        if flat != list(range(1, sum(self.shape) + 1)):
            raise ValueError("entries must be a bijective filling with 1..n")

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c - 1] for row in self.entries if len(row) >= c)


def canonical_tableau(shape):
    """Row-by-row filling, top to bottom and left to right; always standard."""
    entries = []
    counter = 1
    for length in shape:
        entries.append(tuple(range(counter, counter + length)))
        counter += length
    return Tableau(shape, tuple(entries))


def tableau_symmetrizer(tableau):
    """Row symmetrizer times signed column symmetrizer of a tableau,
    normalized by dim/n!: the oracle for ``young_symmetrizer``."""
    n = sum(tableau.shape)
    rows = tableau.entries
    cols = tuple(tableau.column(c) for c in range(1, (tableau.shape or (0,))[0] + 1))
    row_sum = GroupAlgebraElement(n, {g: 1 for g in symgroup._block_stabilizer(rows, n)})
    col_sum = GroupAlgebraElement(
        n, {g: _sign(g) for g in symgroup._block_stabilizer(cols, n)}
    )
    return multiply(row_sum, col_sum).scale(
        Fraction(hook_length_dimension(tableau.shape), factorial(n))
    )


def injection_bimodule(n, m):
    """Basis of the bimodule realizing injections n -> n+m inside C[S_{n+m}].

    One basis element per injection: the sum over all permutations extending
    it (the coset sum over the subgroup fixing 1..n pointwise, which does not
    depend on the coset representative).  Basis size is (n+m)!/m!.
    """
    total = n + m
    values = range(1, total + 1)
    basis = []
    for image in iter_permutations(values, n):
        rest = sorted(set(values) - set(image))
        basis.append(
            GroupAlgebraElement(
                total, {image + completion: 1 for completion in iter_permutations(rest)}
            )
        )
    return basis


def bimodule_hom_dimension(mu, lam):
    """Rank of the span of e_lam * b * e_mu over the injection bimodule
    basis, with symmetrizers of canonical tableaux: the oracle for
    ``direct_hom_dimension``."""
    n = sum(mu)
    e_lam = tableau_symmetrizer(canonical_tableau(lam))
    e_mu = tableau_symmetrizer(canonical_tableau(mu)).embed(n + 1)
    group_order = list(iter_permutations(range(1, n + 2)))
    rows = []
    for element in injection_bimodule(n, 1):
        numerators = multiply(multiply(e_lam, element), e_mu).numerators
        rows.append([numerators.get(images, 0) for images in group_order])
    return rank(IntMatrix.from_rows(rows, len(group_order)))


def multiply_route_matrix(e_lam, e_mu):
    """The direct-rank matrix with one ``multiply`` route per permutation g
    of S_{n+1}, e_lam * g * e_mu: the oracle for the rows
    ``direct_hom_dimension`` fills by sign."""
    group_order = list(iter_permutations(range(1, e_lam.degree + 1)))
    rows = []
    for g in group_order:
        g_element = GroupAlgebraElement(e_lam.degree, {g: 1})
        numerators = multiply(multiply(e_lam, g_element), e_mu).numerators
        rows.append([numerators.get(images, 0) for images in group_order])
    return IntMatrix.from_rows(rows, len(group_order))


def coset_expansion(group_order, rows, cover):
    """Every row of the direct-rank matrix, read off the one product row of
    its double coset times its coset sign (``symgroup._coset_rows``): the
    matrix ``direct_hom_dimension`` stands for by the product rows alone."""
    expanded = [[sign * v for v in rows[index]] for index, sign in map(cover.get, group_order)]
    return IntMatrix.from_rows(expanded, len(group_order))


def rank_matrices(monkeypatch):
    """The list that records every matrix ``symgroup`` passes to ``rank``."""
    captured = []
    original = symgroup.rank
    monkeypatch.setattr(symgroup, "rank", lambda m: captured.append(m) or original(m))
    return captured


def unsigned_columns(shape, bounds=Bounds()):
    """Mutant: a Young symmetrizer with the column signs flipped to +1, the
    row sum times the unsigned column sum."""
    f = young_symmetrizer(shape, bounds)
    unsigned = {g: abs(c) for g, c in f.numerators.items()}
    return GroupAlgebraElement(f.degree, unsigned, f.denominator)


def one_coefficient_changed(shape, bounds=Bounds()):
    """Mutant: a Young symmetrizer with its last coefficient doubled (left
    as it is when it has a single term)."""
    f = young_symmetrizer(shape, bounds)
    if len(f.numerators) < 2:
        return f
    last = next(reversed(f.numerators))
    return GroupAlgebraElement(
        f.degree, {**f.numerators, last: 2 * f.numerators[last]}, f.denominator
    )


SYMMETRIZER_MUTANTS = {
    "central": central_idempotent,
    "unsigned_columns": unsigned_columns,
    "one_coefficient_changed": one_coefficient_changed,
}


def fraction_pairing(mu, m, lam):
    """The character pairing as a Fraction sum over Partitions built per
    cycle-type pair: the oracle for ``induction_multiplicity``."""
    mu, lam = Partition(mu), Partition(lam)
    total = Fraction(0)
    for alpha in partitions_of(mu.size):
        chi_mu = character_value(mu.rows, alpha.rows)
        if not chi_mu:
            continue
        for beta in partitions_of(m):
            combined = Partition(tuple(sorted(alpha.rows + beta.rows, reverse=True)))
            chi_lam = character_value(lam.rows, combined.rows)
            if not chi_lam:
                continue
            total += Fraction(
                chi_lam * chi_mu, centralizer_order(alpha.rows) * centralizer_order(beta.rows)
            )
    assert total.denominator == 1 and total >= 0, total
    return int(total)


def pieri_coefficient(mu, m, lam):
    """1 iff lam\\mu is a horizontal strip of size m (no column holds two
    skew nodes), else 0."""
    sk = skew_classify(mu, lam)
    if not sk.contained or sum(lam) - sum(mu) != m:
        return 0
    return 0 if sk.has_column_pair else 1


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_composition_convention(self):
        # (a*b)(i) = a(b(i)), read off a product in the group algebra
        a = Permutation((2, 1, 3))  # swaps 1,2
        b = Permutation((3, 2, 1))  # swaps 1,3
        product = multiply(
            from_permutation(a), from_permutation(b)
        )
        assert product.numerators == {(3, 1, 2): 1}

    def test_cycle_type(self):
        assert _cycle_lengths((2, 3, 1, 4)) == (3, 1)
        assert _cycle_lengths(()) == ()

    @given(image_tuples(max_n=5), image_tuples(max_n=5))
    def test_sign_multiplicative(self, a, b):
        if len(a) == len(b):
            assert _sign(compose_images(a, b)) == _sign(a) * _sign(b)

    @given(image_tuples())
    def test_cycle_type_conjugation_invariant(self, p):
        for q in list(iter_permutations(range(1, len(p) + 1)))[:6]:
            conjugate = compose_images(compose_images(q, p), inverse_images(q))
            assert _cycle_lengths(conjugate) == _cycle_lengths(p)


def brute_force_standard_fillings(shape):
    """Fill cells with 1..n in every order and keep the monotone ones."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    n = len(cells)
    fillings = []
    for perm in iter_permutations(range(1, n + 1)):
        grid = {cell: value for cell, value in zip(cells, perm)}
        ok = all(
            grid[(r, c)] < grid[(r, c + 1)] for (r, c) in cells if (r, c + 1) in grid
        ) and all(
            grid[(r, c)] < grid[(r + 1, c)] for (r, c) in cells if (r + 1, c) in grid
        )
        if ok:
            fillings.append(
                tuple(
                    tuple(grid[(r, c)] for c in range(length))
                    for r, length in enumerate(shape)
                )
            )
    return sorted(fillings)


def fillings_by_addition_orders(shape):
    """A second count: the k-th node added to grow ``shape`` gets entry k."""
    fillings = []
    for order in addition_orders(shape):
        grid = [[] for _ in shape]
        for k, r in enumerate(order, start=1):
            grid[r].append(k)
        fillings.append(tuple(tuple(row) for row in grid))
    return sorted(fillings)


class TestTableaux:
    def test_single_row_unique(self):
        assert brute_force_standard_fillings(P(4)) == [((1, 2, 3, 4),)]
        assert fillings_by_addition_orders(P(4)) == [((1, 2, 3, 4),)]

    @pytest.mark.parametrize(
        "shape,count", [(P(2, 1), 2), (P(2, 2), 2), (P(3, 2), 5), (P(2, 1, 1), 3)]
    )
    def test_counts_against_brute_force(self, shape, count):
        fillings = fillings_by_addition_orders(shape)
        assert len(fillings) == count == hook_length_dimension(shape)
        assert fillings == brute_force_standard_fillings(shape)

    def test_canonical_tableau(self):
        assert canonical_tableau(P(2, 1)).entries == ((1, 2), (3,))
        assert canonical_tableau(P(1, 1, 1)).entries == ((1,), (2,), (3,))
        assert canonical_tableau(P(3)).entries == ((1, 2, 3),)
        assert canonical_tableau(P(3, 2)).entries in brute_force_standard_fillings(P(3, 2))

    def test_bad_filling_rejected(self):
        with pytest.raises(ValueError):
            Tableau(P(2), ((1, 3),))


class TestCharacters:
    def test_trivial_representation(self):
        for c in partition_rows(5):
            assert character_value(P(5), c) == 1

    def test_sign_at_transposition(self):
        assert character_value(P(1, 1), P(2)) == -1

    def test_standard_rep_of_s3(self):
        # independent oracle: the (2,1)-character equals fixed points minus 1
        for c in partition_rows(3):
            fixed = c.count(1)
            assert character_value(P(2, 1), c) == fixed - 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            character_value(P(2), P(3))

    @pytest.mark.parametrize("n", range(7))
    def test_column_orthogonality(self, n):
        parts = partition_rows(n)
        for c1 in parts:
            for c2 in parts:
                total = sum(
                    character_value(mu, c1) * character_value(mu, c2) for mu in parts
                )
                assert total == (centralizer_order(c1) if c1 == c2 else 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dimension_three_ways(self, n):
        identity_type = P(*([1] * n))
        for lam in partition_rows(n):
            by_character = character_value(lam, identity_type)
            by_hooks = hook_length_dimension(lam)
            assert by_character == by_hooks
            assert by_hooks == len(addition_orders(lam))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_class_sizes_sum_to_group_order(self, n):
        assert sum(class_size(c) for c in partition_rows(n)) == factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_row_orthogonality(self, n):
        # the other orthogonality relation: summing over classes, not characters
        for mu in partition_rows(n):
            for nu in partition_rows(n):
                total = sum(
                    class_size(c)
                    * character_value(mu, c)
                    * character_value(nu, c)
                    for c in partition_rows(n)
                )
                assert total == (factorial(n) if mu == nu else 0)


class TestCentralIdempotents:
    def test_degree_one(self):
        assert central_idempotent(P(1)) == unit(1)

    def test_s2_by_hand(self):
        half = Fraction(1, 2)
        assert fraction_terms(central_idempotent(P(2))) == {
            Permutation((1, 2)): half,
            Permutation((2, 1)): half,
        }
        assert fraction_terms(central_idempotent(P(1, 1))) == {
            Permutation((1, 2)): half,
            Permutation((2, 1)): -half,
        }

    @pytest.mark.parametrize("n", range(5))
    def test_idempotent_system(self, n):
        blocks = [central_idempotent(mu) for mu in partition_rows(n)]
        total = zero(n)
        for i, e in enumerate(blocks):
            total = add(total, e)
            assert multiply(e, e) == e
            for j, f in enumerate(blocks):
                if i != j:
                    assert multiply(e, f).is_zero()
            for g in all_permutations(n):
                g_elem = from_permutation(g)
                assert multiply(e, g_elem) == multiply(g_elem, e)
        assert total == unit(n)

    @pytest.mark.parametrize("n", range(7))
    def test_numerators_match_the_per_permutation_formula(self, n):
        # dim * chi(cycle type), recomputed for every permutation
        for mu in partition_rows(n):
            dim = hook_length_dimension(mu)
            numerators = {}
            for images in iter_permutations(range(1, n + 1)):
                chi = symgroup._mn_character(mu, _cycle_lengths(images))
                if chi:
                    numerators[images] = dim * chi
            expected = GroupAlgebraElement(n, numerators, factorial(n))
            found = central_idempotent(mu)
            assert list(found.numerators.items()) == list(expected.numerators.items())
            assert found.denominator == expected.denominator

    def test_cycle_types_shared_with_class_sums(self):
        for n in range(6):
            types = symgroup._cycle_types(n)
            assert [images for images, _ in types] == list(iter_permutations(range(1, n + 1)))
            assert all(cycles == _cycle_lengths(images) for images, cycles in types)
            number = {mu: k for k, mu in enumerate(partition_rows(n))}
            class_of = ClassSums(n).class_of
            assert class_of == {images: number[cycles] for images, cycles in types}

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            central_idempotent(P(7))
        # opt-in via looser bounds is allowed (not executed at degree 7 here)
        central_idempotent(P(3, 3), Bounds(max_group_degree=7))


class TestYoungSymmetrizers:
    def test_row_shape(self):
        expected = {
            Permutation((1, 2)): Fraction(1, 2),
            Permutation((2, 1)): Fraction(1, 2),
        }
        assert fraction_terms(young_symmetrizer(P(2))) == expected

    def test_column_shape(self):
        expected = {
            Permutation((1, 2)): Fraction(1, 2),
            Permutation((2, 1)): -Fraction(1, 2),
        }
        assert fraction_terms(young_symmetrizer(P(1, 1))) == expected

    def test_hook_shape_expansion(self):
        # (1/3)(id + (12))(id - (13)) expanded with an independent composer
        identity = (1, 2, 3)
        swap12 = (2, 1, 3)
        swap13 = (3, 2, 1)
        third = Fraction(1, 3)
        expected = {
            Permutation(identity): third,
            Permutation(swap12): third,
            Permutation(swap13): -third,
            Permutation(compose_images(swap12, swap13)): -third,
        }
        assert fraction_terms(young_symmetrizer(P(2, 1))) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_idempotency(self, n):
        for mu in partition_rows(n):
            e = young_symmetrizer(mu)
            assert multiply(e, e) == e

    @pytest.mark.parametrize("n", range(6))
    def test_matches_the_canonical_tableau(self, n):
        for mu in partition_rows(n):
            assert young_symmetrizer(mu) == tableau_symmetrizer(canonical_tableau(mu))

    def test_bound(self):
        with pytest.raises(BoundExceededError, match="group degree 7 exceeds configured bound 6"):
            young_symmetrizer(P(4, 3))


class TestMultiply:
    def test_identity_neutral(self):
        x = central_idempotent(P(2, 1))
        assert multiply(unit(3), x) == x

    def test_transposition_squares_to_identity(self):
        swap = from_permutation(Permutation((2, 1)))
        assert multiply(swap, swap) == unit(2)

    def test_orthogonal_idempotents(self):
        assert multiply(central_idempotent(P(2)), central_idempotent(P(1, 1))).is_zero()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            multiply(unit(2), unit(3))

    def test_associativity_spot_check(self):
        a = central_idempotent(P(2, 1))
        b = from_permutation(Permutation((2, 3, 1)))
        c = young_symmetrizer(P(2, 1))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def slow_multiply(a_terms, b_terms):
    """Convolution on Fraction coefficients and checked Permutation products;
    the oracle for the integer kernel.  Zero coefficients are dropped."""
    acc = {}
    for p, x in a_terms.items():
        for q, y in b_terms.items():
            r = Permutation(compose_images(p.images, q.images))
            acc[r] = acc.get(r, Fraction(0)) + x * y
    return {perm: coeff for perm, coeff in acc.items() if coeff}


@st.composite
def raw_elements(draw, n):
    """Integer numerators, zeros included, over a denominator of either sign
    that need not be in lowest terms, with the Fraction coefficients they
    stand for."""
    perms = draw(st.lists(st.sampled_from(all_permutations(n)), max_size=8))
    numerators = {p.images: draw(st.integers(-4, 4)) for p in perms}
    denominator = draw(st.integers(1, 12)) * draw(st.sampled_from((1, -1)))
    coefficients = {
        Permutation(images): Fraction(c, denominator)
        for images, c in numerators.items()
        if c
    }
    return GroupAlgebraElement(n, numerators, denominator), coefficients


@st.composite
def element_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    return draw(raw_elements(n)), draw(raw_elements(n))


class TestIntegerKernel:
    @given(element_pairs())
    def test_multiply_matches_fraction_oracle(self, pair):
        (a, a_terms), (b, b_terms) = pair
        expected = slow_multiply(a_terms, b_terms)
        product = multiply(a, b)
        assert fraction_terms(product) == expected
        assert len(product.terms) == len(expected)
        # nonzero integers over a positive denominator in lowest terms
        assert product.denominator > 0
        assert all(type(c) is int and c for c in product.numerators.values())
        assert gcd(product.denominator, *product.numerators.values()) == 1

    @given(element_pairs())
    def test_cancelling_sum(self, pair):
        (a, a_terms), (b, b_terms) = pair
        nothing = zero(a.degree)
        assert multiply(a, add(b, b.scale(-1))) == nothing
        assert add(multiply(a, b), multiply(a, b.scale(-1))) == nothing
        assert fraction_terms(a) == a_terms and fraction_terms(b) == b_terms

    def test_cancelling_products(self):
        swap = from_permutation(Permutation((2, 1, 3)))
        one = unit(3)
        product = multiply(add(one, swap.scale(-1)), add(one, swap))
        assert product.is_zero()
        assert product.denominator == 1

    def test_canonical_form(self):
        x = central_idempotent(P(2, 1))
        assert x.scale(2).scale(Fraction(1, 2)) == x
        assert add(x, x.scale(-1)).is_zero()
        assert add(x, x.scale(-1)) == zero(3)
        assert x.scale(0) == zero(3)
        assert GroupAlgebraElement(2, {(2, 1): 6, (1, 2): 0}, -4) == GroupAlgebraElement(
            2, {(2, 1): -3}, 2
        )

    def test_built_two_ways(self):
        swap = Permutation((2, 1))
        one = unit(2)
        by_sum = add(one, from_permutation(swap)).scale(Fraction(1, 2))
        by_numerators = GroupAlgebraElement(2, {(1, 2): 2, (2, 1): 2}, 4)
        assert central_idempotent(P(2)) == by_sum == by_numerators
        assert young_symmetrizer(P(2)) == by_sum
        assert fraction_terms(by_numerators)[swap] == Fraction(1, 2)

    def test_embed_fixes_new_points(self):
        x = central_idempotent(P(1, 1)).embed(3)
        assert fraction_terms(x) == {
            Permutation((1, 2, 3)): Fraction(1, 2),
            Permutation((2, 1, 3)): Fraction(-1, 2),
        }
        with pytest.raises(ValueError):
            x.embed(2)


def commutes_with_every_permutation(x):
    return all(
        multiply(x, g) == multiply(g, x)
        for g in map(from_permutation, all_permutations(x.degree))
    )


def generating_set(n):
    """(1 2) and (1 2 ... n), which generate the symmetric group: one
    permutation for n = 2, none for n < 2."""
    if n < 2:
        return []
    swap = Permutation((2, 1) + tuple(range(3, n + 1)))
    if n == 2:
        return [swap]
    return [swap, Permutation(tuple(range(2, n + 1)) + (1,))]


def commutes_with_generators(x):
    """The permutations that commute with x form a subgroup, so commuting
    with a generating set means commuting with the whole group."""
    return all(
        multiply(x, g) == multiply(g, x)
        for g in map(from_permutation, generating_set(x.degree))
    )


def is_central(x):
    """The class scan of the sweep."""
    return ClassSums(x.degree, Bounds(max_group_degree=7)).coefficients(x) is not None


def slow_idempotent_sweep(n_max):
    """The sweep with every central check done by ``multiply`` in C[S_n]
    and centrality by the generators: (counts, first_failure) in the order
    and with the locators of ``verify_idempotent_system``."""
    first_failure = None
    counts = {"idempotents_checked": 0, "symmetrizers_checked": 0}
    for n in range(n_max + 1):
        blocks = [(mu, symgroup.central_idempotent(mu, Bounds())) for mu in partition_rows(n)]
        total = zero(n)
        for index, (mu, e_mu) in enumerate(blocks):
            counts["idempotents_checked"] += 1
            total = add(total, e_mu)
            if multiply(e_mu, e_mu) != e_mu:
                first_failure = {"check": "idempotent", "partition": format_partition(mu)}
                break
            if not commutes_with_generators(e_mu):
                first_failure = {"check": "central", "partition": format_partition(mu)}
                break
            for nu, e_nu in blocks[index + 1 :]:
                if not multiply(e_mu, e_nu).is_zero():
                    first_failure = {
                        "check": "orthogonal",
                        "pair": [format_partition(mu), format_partition(nu)],
                    }
                    break
            if first_failure:
                break
            f_mu = symgroup.young_symmetrizer(mu, Bounds())
            counts["symmetrizers_checked"] += 1
            if multiply(f_mu, f_mu) != f_mu:
                first_failure = {
                    "check": "symmetrizer_idempotent",
                    "partition": format_partition(mu),
                }
                break
        if first_failure is None and total != unit(n):
            first_failure = {"check": "sum_to_identity", "degree": n}
        if first_failure:
            break
    return counts, first_failure


def class_sum(n, cycle_type):
    return GroupAlgebraElement(
        n,
        {
            images: 1
            for images in iter_permutations(range(1, n + 1))
            if _cycle_lengths(images) == cycle_type
        },
    )


class TestClassSums:
    @pytest.mark.parametrize("n", range(6))
    def test_constants_match_products_of_class_sums(self, n):
        centre = ClassSums(n)
        sums = [class_sum(n, c) for c in partition_rows(n)]
        for i, a in enumerate(sums):
            for j, b in enumerate(sums):
                left = [int(k == i) for k in range(len(sums))]
                right = [int(k == j) for k in range(len(sums))]
                assert centre.product(left, right) == centre.coefficients(multiply(a, b))

    @pytest.mark.parametrize("n", range(8))
    def test_constants_match_frobenius_formula(self, n):
        # c_ijk = |C_i| |C_j| / n! * sum over chi of chi(C_i) chi(C_j) chi(C_k) / chi(1)
        types = partition_rows(n)
        centre = ClassSums(n, Bounds(max_group_degree=7))
        # an independent count of each class, not the n!/z of ClassSums
        counted = [0] * len(types)
        for images in iter_permutations(range(1, n + 1)):
            counted[types.index(_cycle_lengths(images))] += 1
        assert centre.sizes == counted
        found = {(i, j, k): c for (i, j), terms in centre.constants.items() for k, c in terms}
        for i, ci in enumerate(types):
            for j, cj in enumerate(types):
                for k, ck in enumerate(types):
                    total = sum(
                        Fraction(
                            character_value(lam, ci)
                            * character_value(lam, cj)
                            * character_value(lam, ck),
                            hook_length_dimension(lam),
                        )
                        for lam in types
                    )
                    expected = total * class_size(ci) * class_size(cj) / factorial(n)
                    assert found.get((i, j, k), 0) == expected
        assert all(c for c in found.values())

    @pytest.mark.parametrize("n", range(5))
    def test_products_of_central_idempotents(self, n):
        centre = ClassSums(n)
        blocks = [central_idempotent(mu) for mu in partition_rows(n)]
        for e in blocks:
            for f in blocks:
                by_classes = centre.product(centre.coefficients(e), centre.coefficients(f))
                numerators = {images: by_classes[k] for images, k in centre.class_of.items()}
                assert GroupAlgebraElement(
                    n, numerators, e.denominator * f.denominator
                ) == multiply(e, f)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            ClassSums(3).coefficients(unit(2))

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            ClassSums(7)


class TestCentralityByGenerators:
    @pytest.mark.parametrize("n", range(6))
    def test_generating_set_generates(self, n):
        group = {tuple(range(1, n + 1))}
        frontier = list(group)
        while frontier:
            frontier = [compose_images(p, g.images) for p in frontier for g in generating_set(n)]
            frontier = [p for p in frontier if p not in group]
            group.update(frontier)
        assert len(group) == factorial(n)
        assert len(generating_set(n)) == min(max(n - 1, 0), 2)

    @pytest.mark.parametrize("n", range(6))
    def test_agrees_with_all_permutations(self, n):
        non_central = 0
        for mu in partition_rows(n):
            for x in (central_idempotent(mu), young_symmetrizer(mu)):
                expected = commutes_with_every_permutation(x)
                assert is_central(x) == commutes_with_generators(x) == expected
                non_central += not expected
        if n >= 3:
            assert non_central > 0

    @pytest.mark.parametrize("n", range(5))
    def test_agrees_on_single_permutations(self, n):
        # (1 2) commutes with itself but not with (1 2 ... n) once n >= 3,
        # and an n-cycle the other way round
        for g in all_permutations(n):
            x = from_permutation(g)
            assert is_central(x) == commutes_with_generators(x)
            assert is_central(x) == commutes_with_every_permutation(x)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_class_sums_with_one_term_changed(self, n):
        # a class sum is central; removing one of its terms, or changing
        # the coefficient of one, leaves a non-central element unless the
        # class has a single element
        for c in partition_rows(n):
            x = class_sum(n, c)
            assert is_central(x) and commutes_with_every_permutation(x)
            last = next(reversed(x.numerators))
            removed = GroupAlgebraElement(n, {**x.numerators, last: 0})
            changed = GroupAlgebraElement(n, {**x.numerators, last: 2})
            for y in (removed, changed):
                expected = class_size(c) == 1
                assert is_central(y) == commutes_with_every_permutation(y) == expected

    @pytest.mark.parametrize("n", range(6))
    def test_sweep_matches_the_multiply_oracle(self, n):
        certificate = verify_idempotent_system(n)
        counts, first_failure = slow_idempotent_sweep(n)
        assert certificate.verdict == "pass"
        assert (certificate.counts, certificate.first_failure) == (counts, first_failure)

    def test_sweep_finds_a_non_central_idempotent(self, monkeypatch):
        monkeypatch.setattr(
            symgroup,
            "central_idempotent",
            lambda mu, bounds: young_symmetrizer(mu, bounds),
        )
        certificate = verify_idempotent_system(3)
        assert certificate.verdict == "fail"
        assert certificate.first_failure == {"check": "central", "partition": "2,1"}
        assert (certificate.counts, certificate.first_failure) == slow_idempotent_sweep(3)

    def test_sweep_finds_a_non_orthogonal_pair(self, monkeypatch):
        # e_(2,1) + e_(1,1,1) is a central idempotent that overlaps e_(2,1);
        # the pair is found from its earlier factor, as when every ordered
        # pair was multiplied
        original = symgroup.central_idempotent

        def overlapping(mu, bounds):
            if mu == P(1, 1, 1):
                return add(original(P(2, 1), bounds), original(mu, bounds))
            return original(mu, bounds)

        monkeypatch.setattr(symgroup, "central_idempotent", overlapping)
        certificate = verify_idempotent_system(3)
        assert certificate.verdict == "fail"
        assert certificate.first_failure == {"check": "orthogonal", "pair": ["2,1", "1,1,1"]}
        assert (certificate.counts, certificate.first_failure) == slow_idempotent_sweep(3)

    @pytest.mark.parametrize(
        "replaced,replacement,first_failure",
        [
            # central, not idempotent
            (P(2, 1), lambda e, f: e.scale(2), {"check": "idempotent", "partition": "2,1"}),
            # neither central nor idempotent: idempotence is reported first
            (P(2, 1), lambda e, f: f.scale(2), {"check": "idempotent", "partition": "2,1"}),
            # a non-central later factor that overlaps e_(2,1)
            (P(1, 1, 1), lambda e, f: young_symmetrizer(P(2, 1)),
             {"check": "orthogonal", "pair": ["2,1", "1,1,1"]}),
            # a missing block: every check passes but the sum
            (P(1, 1, 1), lambda e, f: e.scale(0), {"check": "sum_to_identity", "degree": 3}),
        ],
    )
    def test_sweep_locators_match_the_multiply_oracle(
        self, monkeypatch, replaced, replacement, first_failure
    ):
        original = symgroup.central_idempotent

        def mutant(mu, bounds):
            e = original(mu, bounds)
            if mu != replaced:
                return e
            return replacement(e, young_symmetrizer(mu, bounds))

        monkeypatch.setattr(symgroup, "central_idempotent", mutant)
        for n in (3, 4):
            certificate = verify_idempotent_system(n)
            assert certificate.verdict == "fail"
            assert certificate.first_failure == first_failure
            assert (certificate.counts, certificate.first_failure) == slow_idempotent_sweep(n)

    def test_sweep_stops_at_the_failing_degree(self, monkeypatch):
        original = symgroup.central_idempotent
        degrees = []

        class RecordingClassSums(ClassSums):
            def __init__(self, n, bounds):
                degrees.append(n)
                super().__init__(n, bounds)

        def mutant(mu, bounds):
            e = original(mu, bounds)
            return e.scale(2) if mu == P(2, 1) else e

        monkeypatch.setattr(symgroup, "ClassSums", RecordingClassSums)
        monkeypatch.setattr(symgroup, "central_idempotent", mutant)
        certificate = verify_idempotent_system(5)
        assert certificate.first_failure == {"check": "idempotent", "partition": "2,1"}
        assert degrees == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "mutant,first_failure,checked",
        [
            ("central", None, 7),
            ("unsigned_columns", {"check": "symmetrizer_idempotent", "partition": "2,1"}, 6),
            ("one_coefficient_changed", {"check": "symmetrizer_idempotent", "partition": "2"}, 3),
        ],
    )
    def test_symmetrizer_mutant_locators(self, monkeypatch, mutant, first_failure, checked):
        monkeypatch.setattr(symgroup, "young_symmetrizer", SYMMETRIZER_MUTANTS[mutant])
        certificate = verify_idempotent_system(3)
        assert certificate.first_failure == first_failure
        assert certificate.counts == {
            "idempotents_checked": checked,
            "symmetrizers_checked": checked,
        }
        assert (certificate.counts, certificate.first_failure) == slow_idempotent_sweep(3)


class TestInjectionBimodule:
    def test_no_added_points(self):
        basis = injection_bimodule(2, 0)
        assert len(basis) == 2
        assert all(len(b.terms) == 1 for b in basis)

    def test_everything_added(self):
        (element,) = injection_bimodule(0, 3)
        assert len(element.terms) == factorial(3)
        assert all(c == 1 for c in fraction_terms(element).values())

    def test_one_into_two(self):
        basis = injection_bimodule(1, 1)
        assert len(basis) == 2  # 2!/1!

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 2)])
    def test_size_formula(self, n, m):
        basis = injection_bimodule(n, m)
        assert len(basis) == factorial(n + m) // factorial(m)
        for element in basis:
            assert len(element.terms) == factorial(m)

    def test_coset_sums_are_representative_independent(self):
        # right-multiplying a basis element by the added-point subgroup
        # permutes its terms, so the sum is fixed
        basis = injection_bimodule(2, 2)
        swap_added = from_permutation(Permutation((1, 2, 4, 3)))
        for element in basis:
            assert multiply(element, swap_added) == element


class TestDirectHomDimension:
    def test_from_empty(self):
        assert direct_hom_dimension(EMPTY, P(1)) == 1

    def test_branching_from_single_box(self):
        assert direct_hom_dimension(P(1), P(2)) == 1
        assert direct_hom_dimension(P(1), P(1, 1)) == 1

    def test_unreachable_target(self):
        assert direct_hom_dimension(P(2), P(1, 1, 1)) == 0

    def test_wrong_size_gap(self):
        with pytest.raises(ValueError):
            direct_hom_dimension(P(2), P(4))

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            direct_hom_dimension(P(6), P(7))

    @pytest.mark.parametrize("n", range(4))
    def test_matches_character_oracle(self, n):
        for mu in partition_rows(n):
            for lam in partition_rows(n + 1):
                assert direct_hom_dimension(mu, lam) == induction_multiplicity(mu, 1, lam)

    @pytest.mark.parametrize("n", range(5))
    def test_rank_matrices_match_the_multiply_route(self, monkeypatch, n):
        # the product rows expanded by their coset signs, against a multiply
        # route per permutation on canonical tableau symmetrizers; the rank
        # is taken on the product rows alone and equals the unshared rank
        captured = rank_matrices(monkeypatch)
        for mu in partition_rows(n):
            for lam in partition_rows(n + 1):
                e_lam = tableau_symmetrizer(canonical_tableau(lam))
                e_mu = tableau_symmetrizer(canonical_tableau(mu)).embed(n + 1)
                expected = multiply_route_matrix(e_lam, e_mu)
                group_order, rows, cover = symgroup._coset_rows(mu, lam, Bounds())
                assert coset_expansion(group_order, rows, cover) == expected
                assert direct_hom_dimension(mu, lam) == rank(expected)
                assert captured.pop() == IntMatrix.from_rows(rows, len(group_order))
                # a coset the walk marks zero has a zero row by the multiply
                # route at every one of its permutations
                walked_order, walked_cover, starts = symgroup._double_cosets(
                    symgroup._stabilizer_blocks(lam, left=False),
                    symgroup._stabilizer_blocks(mu, left=True),
                    n + 1,
                )
                assert (walked_order, walked_cover) == (group_order, cover)
                for g, route_row in zip(group_order, expected.to_dense()):
                    if starts[cover[g][0]] is None:
                        assert not any(route_row)

    @pytest.mark.parametrize(
        "n,zero,cosets", [(0, 0, 1), (1, 0, 2), (2, 3, 8), (3, 14, 29), (4, 68, 113), (5, 308, 459)]
    )
    def test_zero_coset_counts(self, monkeypatch, n, zero, cosets):
        # cosets whose walk meets a sign conflict, over every pair of degree
        # n, by the orbit walk alone: no product is formed
        def no_product(*args):
            raise AssertionError("the orbit walk formed a product")

        monkeypatch.setattr(symgroup, "multiply", no_product)
        starts = [
            start
            for mu in partition_rows(n)
            for lam in partition_rows(n + 1)
            for start in symgroup._double_cosets(
                symgroup._stabilizer_blocks(lam, left=False),
                symgroup._stabilizer_blocks(mu, left=True),
                n + 1,
            )[2]
        ]
        assert (starts.count(None), len(starts)) == (zero, cosets)

    @pytest.mark.parametrize("n", range(4))
    def test_matches_the_bimodule_oracle(self, n):
        # one permutation per injection, against the coset sums of canonical
        # tableau symmetrizers
        for mu in partition_rows(n):
            for lam in partition_rows(n + 1):
                assert direct_hom_dimension(mu, lam) == bimodule_hom_dimension(mu, lam)


def block_characters(blocks, n):
    """(c, χ(c)) over the Young subgroup of ``blocks``, χ(c) the sign of c
    on the entries of the sign blocks: the oracle for the guard's
    characters."""
    signed = {entry for block, character in blocks if character < 0 for entry in block}
    for c in symgroup._block_stabilizer([block for block, _ in blocks], n):
        yield c, _sign(tuple(c[i - 1] if i in signed else i for i in range(1, n + 1)))


class TestSymmetryGuards:
    def test_stabilizer_blocks(self):
        stabilizer = symgroup._stabilizer_blocks
        # e = k·R for a single row: the whole group fixes it on both sides
        assert stabilizer(P(3), left=False) == (((1, 2, 3), 1),)
        assert stabilizer(P(3), left=True) == (((1, 2, 3), 1),)
        assert stabilizer(P(1, 1, 1), left=False) == (((1, 2, 3), -1),)
        assert stabilizer(P(1, 1, 1), left=True) == (((1, 2, 3), -1),)
        # filling 1 2 3 / 4: column (1, 4) by sign, 2 and 3 sit in columns
        # of length 1; on the left only the first row
        assert stabilizer(P(3, 1), left=False) == (((1, 4), -1), ((2, 3), 1))
        assert stabilizer(P(3, 1), left=True) == (((1, 2, 3), 1),)
        # filling 1 2 / 3 / 4: 3 and 4 sit in rows of length 1
        assert stabilizer(P(2, 1, 1), left=True) == (((1, 2), 1), ((3, 4), -1))
        # one double coset, so one product, for (1,1,1,1) -> (5)
        assert len(symgroup._coset_rows(P(1, 1, 1, 1), P(5), Bounds())[1]) == 1

    @pytest.mark.parametrize("mutant", [None, *SYMMETRIZER_MUTANTS])
    @pytest.mark.parametrize("n", range(5))
    def test_generators_decide_the_whole_group(self, mutant, n):
        # x*c = χ(c)*x over the right stabilizer blocks and r*x = ψ(r)*x over
        # the left ones, by multiply on every element, against the check on
        # generators
        make = SYMMETRIZER_MUTANTS.get(mutant, young_symmetrizer)
        for mu in partition_rows(n):
            x = make(mu)
            for left in (False, True):
                blocks = symgroup._stabilizer_blocks(mu, left)
                holds = True
                for images, character in block_characters(blocks, n):
                    c = GroupAlgebraElement(n, {images: 1})
                    holds &= (multiply(c, x) if left else multiply(x, c)) == x.scale(character)
                assert _acts_by_characters(x, blocks, left) == holds
                if mutant is None:
                    assert holds

    @pytest.mark.parametrize(
        "mutant,rejected_sides",
        [
            ("central", {"left", "right"}),
            # R times the unsigned column sum is fixed by R on the left, but
            # not by the sign on a column's entries in rows of length 1
            ("unsigned_columns", {"left", "right"}),
            ("one_coefficient_changed", {"left", "right"}),
        ],
    )
    def test_mutant_rank_matrices_match_the_multiply_route(
        self, monkeypatch, mutant, rejected_sides
    ):
        make = SYMMETRIZER_MUTANTS[mutant]
        monkeypatch.setattr(symgroup, "young_symmetrizer", make)
        original = symgroup._acts_by_characters
        rejected = set()

        def recording(x, blocks, left):
            holds = original(x, blocks, left)
            if not holds:
                rejected.add("left" if left else "right")
            return holds

        monkeypatch.setattr(symgroup, "_acts_by_characters", recording)
        for n in range(4):
            for mu in partition_rows(n):
                for lam in partition_rows(n + 1):
                    expected = multiply_route_matrix(make(lam), make(mu).embed(n + 1))
                    coset_rows = symgroup._coset_rows(mu, lam, Bounds())
                    assert coset_expansion(*coset_rows) == expected
        assert rejected == rejected_sides


class TestBranchingBounds:
    def test_group_degree_checked_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep started before checking its bounds")

        monkeypatch.setattr(symgroup, "induction_multiplicity", no_work)
        with pytest.raises(BoundExceededError, match="group degree 7 exceeds configured bound 6"):
            symgroup.verify_branching(6, 6, Bounds(max_direct_hom_degree=6))


class TestBranchingLocators:
    def test_character_branching_locator(self, monkeypatch):
        original = symgroup.induction_multiplicity

        def mutant(mu, m, lam, bounds):
            return 0 if (mu, lam) == (P(2), P(2, 1)) else original(mu, m, lam, bounds)

        monkeypatch.setattr(symgroup, "induction_multiplicity", mutant)
        certificate = symgroup.verify_branching(3, 2)
        assert certificate.verdict == "fail"
        assert certificate.first_failure == {
            "check": "character_branching",
            "pair": ["2", "2,1"],
            "multiplicity": 0,
            "expected": 1,
        }
        assert certificate.counts == {"character_pairs": 5, "direct_pairs": 4}

    def test_direct_idempotent_rank_locator(self, monkeypatch):
        # central idempotents in place of Young symmetrizers: e_(2,1) g e_(2)
        # then spans the two-dimensional (2,1)-isotypic part fixed by S_2
        monkeypatch.setattr(symgroup, "young_symmetrizer", central_idempotent)
        certificate = symgroup.verify_branching(3, 2)
        assert certificate.verdict == "fail"
        assert certificate.first_failure == {
            "check": "direct_idempotent_rank",
            "pair": ["2", "2,1"],
            "rank": 2,
            "expected": 1,
        }
        assert certificate.counts == {"character_pairs": 5, "direct_pairs": 5}

    @pytest.mark.parametrize(
        "mutant,pair,counts",
        [
            ("unsigned_columns", ["2", "2,1"], 5),
            ("one_coefficient_changed", ["1", "2"], 2),
        ],
    )
    def test_symmetrizer_mutant_rank_locators(self, monkeypatch, mutant, pair, counts):
        monkeypatch.setattr(symgroup, "young_symmetrizer", SYMMETRIZER_MUTANTS[mutant])
        for direct_n in (2, 3):
            certificate = symgroup.verify_branching(3, direct_n)
            assert certificate.verdict == "fail"
            assert certificate.first_failure == {
                "check": "direct_idempotent_rank",
                "pair": pair,
                "rank": 2,
                "expected": 1,
            }
            assert certificate.counts == {"character_pairs": counts, "direct_pairs": counts}


class TestInductionMultiplicity:
    def test_induction_by_nothing(self):
        assert induction_multiplicity(P(3, 1), 0, P(3, 1)) == 1
        assert induction_multiplicity(P(3, 1), 0, P(2, 2)) == 0

    def test_branching(self):
        assert induction_multiplicity(P(1), 1, P(2)) == 1
        assert induction_multiplicity(P(1), 1, P(1, 1)) == 1

    def test_two_row_expansion(self):
        values = {
            P(2, 1, 1): 0,
            P(2, 2): 1,
            P(3, 1): 1,
            P(4): 1,
            P(1, 1, 1, 1): 0,
        }
        for lam, expected in values.items():
            assert induction_multiplicity(P(2), 2, lam) == expected

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            induction_multiplicity(P(2), 2, P(3))

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            induction_multiplicity(P(10), 3, P(13))

    @pytest.mark.parametrize("n,m", [(0, 1), (1, 2), (2, 2), (3, 2), (3, 3)])
    def test_agrees_with_pieri_rule(self, n, m):
        for mu in partition_rows(n):
            for lam in partition_rows(n + m):
                assert induction_multiplicity(mu, m, lam) == pieri_coefficient(mu, m, lam)

    @pytest.mark.parametrize("size", range(10))
    def test_matches_the_fraction_pairing(self, size):
        # every (mu, m, lam) with |lam| = size
        for lam in partition_rows(size):
            for m in range(size + 1):
                for mu in partition_rows(size - m):
                    assert induction_multiplicity(mu, m, lam) == fraction_pairing(mu, m, lam)

    def test_non_integer_pairing_is_an_arithmetic_error(self, monkeypatch):
        # with the identity class of S_2 left out, half of the pairing is left
        monkeypatch.setattr(symgroup, "partition_rows", lambda n, bounds: ((n,),) if n else ((),))
        with pytest.raises(ArithmeticError, match=r"^character pairing returned 1/2$"):
            induction_multiplicity(P(1, 1), 0, P(1, 1))


class TestPieri:
    def test_column_pair_kills(self):
        assert pieri_coefficient(P(1), 2, P(1, 1, 1)) == 0

    def test_spread_strip(self):
        assert pieri_coefficient(P(1), 2, P(2, 1)) == 1

    def test_strip_in_second_row(self):
        assert pieri_coefficient(P(2), 2, P(2, 2)) == 1

    def test_wrong_size_or_not_contained(self):
        assert pieri_coefficient(P(2), 1, P(2, 2)) == 0
        assert pieri_coefficient(P(2), 2, P(1, 1, 1, 1)) == 0

    def test_hom_dim_C_is_the_rule_at_its_size(self):
        # table pieri reads hom_dim_C on the lam of size |mu| + m
        for size in range(9):
            for lam in partitions_of(size):
                for m in range(size + 1):
                    for mu in partitions_of(size - m):
                        assert hom_dim_C(mu.rows, lam.rows) == pieri_coefficient(
                            mu.rows, m, lam.rows
                        )


def test_bench_gate_counts():
    """The counts the benchmark gate demands of the ``symgroup`` workload, so
    a drift fails the suite before it fails the benchmark."""
    workloads = load_bench_workloads()
    n, direct_n = workloads.SYMGROUP_N, workloads.SYMGROUP_DIRECT_N
    assert (n, direct_n) == (5, 3)
    branching = symgroup.verify_branching(n, direct_n)
    assert branching.passed
    assert branching.counts == workloads.expected_branching(n, direct_n)
    idempotents = verify_idempotent_system(n)
    assert idempotents.passed
    assert idempotents.counts == workloads.expected_idempotents(n)
