from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngquiver.exactlinalg import IntMatrix, multiply, rank, rref

from oracles import kernel_basis, two_term_corank


def identity(n):
    return IntMatrix(n, n, {(i, i): 1 for i in range(n)})


def gaussian_rank(rows):
    """Independent oracle: plain Gaussian elimination over Fraction."""
    work = [[Fraction(v) for v in row] for row in rows]
    n_rows = len(work)
    n_cols = len(work[0]) if n_rows else 0
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, n_rows):
            if work[i][col]:
                factor = work[i][col] / work[r][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def integer_rows(rows):
    """Each row scaled by the lcm of its denominators: the integer numerator
    rows, which span the same row space row by row."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row)) if row else 1
        out.append([int(v * den) for v in row])
    return out


def schoolbook_product(a_rows, b_rows):
    n, k = len(a_rows), len(b_rows[0]) if b_rows else 0
    return [
        [sum(a_rows[i][t] * b_rows[t][j] for t in range(len(b_rows))) for j in range(k)]
        for i in range(n)
    ]


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_dim=6):
    n_rows = draw(st.integers(min_value=1, max_value=max_dim))
    n_cols = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=n_cols, max_size=n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return rows


class TestRank:
    def test_identity(self):
        assert rank(identity(4)) == 4

    def test_zero_matrix(self):
        assert rank(IntMatrix(3, 5, {})) == 0

    def test_proportional_rows(self):
        assert rank(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])) == 1

    def test_fractional_entries(self):
        # a rational matrix is ranked through its integer numerator rows
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        assert integer_rows(rows) == [[3, 2], [3, 2]]
        assert rank(IntMatrix.from_rows(integer_rows(rows))) == gaussian_rank(rows) == 1

    def test_single_row_or_column(self):
        assert rank(IntMatrix.from_rows([[0, -1, 1]])) == 1
        assert rank(IntMatrix.from_rows([[0], [0], [7]])) == 1
        assert rank(IntMatrix.from_rows([[0], [0]])) == 0

    def test_empty_shapes(self):
        assert rank(IntMatrix(0, 3, {})) == 0
        assert rank(IntMatrix(3, 0, {})) == 0

    @given(matrices())
    @settings(max_examples=200)
    def test_matches_gaussian_oracle(self, rows):
        assert rank(IntMatrix.from_rows(rows)) == gaussian_rank(rows)

    def test_larger_seeded_matrices_match_oracle(self):
        import random

        rng = random.Random("bareiss-vs-gauss")
        for trial in range(20):
            n_rows = rng.randint(8, 14)
            n_cols = rng.randint(8, 14)
            rows = [
                [rng.randint(-99, 99) if rng.random() < 0.7 else 0 for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            # plant some dependent rows to exercise rank deficiency
            if n_rows >= 3:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
            assert rank(IntMatrix.from_rows(rows)) == gaussian_rank(rows)

    @given(matrices())
    def test_transpose_invariant(self, rows):
        m = IntMatrix.from_rows(rows)
        transposed = IntMatrix(
            m.n_cols, m.n_rows, {(c, r): v for (r, c), v in m.entries.items()}
        )
        assert rank(m) == rank(transposed)

    @given(matrices(), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, rows, rng):
        m = IntMatrix.from_rows(rows)
        shuffled_rows = rows[:]
        rng.shuffle(shuffled_rows)
        cols = list(range(len(rows[0])))
        rng.shuffle(cols)
        permuted = [[row[c] for c in cols] for row in shuffled_rows]
        assert rank(IntMatrix.from_rows(permuted)) == rank(m)

    @given(matrices(max_dim=5), matrices(max_dim=5))
    def test_product_rank_bound(self, a_rows, b_rows):
        # reshape b to be composable with a
        inner = len(a_rows[0])
        b_square = [(b_rows[i % len(b_rows)] * inner)[:inner] for i in range(inner)]
        a = IntMatrix.from_rows(a_rows)
        b = IntMatrix.from_rows(b_square)
        assert rank(multiply(a, b)) <= min(rank(a), rank(b))


nonzero_rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=1, max_value=4),
)
# mostly +-1, so that cycles often close consistently, as the qdual rows do
two_term_coefficients = st.one_of(st.sampled_from([1, -1]), nonzero_rationals)


@st.composite
def two_term_rows(draw, max_cols=7):
    """Sparse rows with one or two nonzero rational terms, with repeated and
    parallel (rescaled) rows mixed in."""
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    column = st.integers(min_value=0, max_value=n_cols - 1)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["one", "two", "two", "two", "repeat", "parallel"]))
        if kind in ("repeat", "parallel") and rows:
            row = draw(st.sampled_from(rows))
            scale = draw(nonzero_rationals) if kind == "parallel" else 1
            rows.append([(col, scale * coeff) for col, coeff in row])
        elif kind == "one" or n_cols == 1:
            rows.append([(draw(column), draw(two_term_coefficients))])
        else:
            i, j = draw(st.lists(column, min_size=2, max_size=2, unique=True))
            rows.append([(i, draw(two_term_coefficients)), (j, draw(two_term_coefficients))])
    return n_cols, rows


def dense(n_cols, rows):
    out = []
    for row in rows:
        line = [0] * n_cols
        for col, coeff in row:
            line[col] += coeff
        out.append(line)
    return out


class TestTwoTermCorank:
    @given(two_term_rows())
    @settings(max_examples=300)
    def test_matches_bareiss_oracle(self, case):
        n_cols, rows = case
        matrix = IntMatrix.from_rows(integer_rows(dense(n_cols, rows)), n_cols)
        oracle = n_cols - rank(matrix)
        assert two_term_corank(n_cols, rows) == oracle

    def test_odd_anticommutation_cycle_dies(self):
        # p + q, q + r, r + p force p = -q = r = -p
        assert two_term_corank(3, [[(0, 1), (1, 1)], [(1, 1), (2, 1)], [(2, 1), (0, 1)]]) == 0

    def test_even_cycle_survives(self):
        square = [[(0, 1), (1, 1)], [(1, 1), (2, 1)], [(2, 1), (3, 1)], [(3, 1), (0, 1)]]
        assert two_term_corank(4, square) == 1

    def test_kill_spreads_along_chain(self):
        chain = [[(0, 1), (1, -1)], [(1, 1), (2, 1)], [(2, Fraction(1, 2)), (3, 3)]]
        assert two_term_corank(5, chain) == 2  # the chain, and the untouched column 4
        assert two_term_corank(5, chain + [[(2, -7)]]) == 1

    def test_zero_coefficients_are_not_terms(self):
        assert two_term_corank(2, [[(0, 0), (1, 0)], [(0, 1), (1, 0)]]) == 1

    def test_three_terms_fail_loudly(self):
        with pytest.raises(ArithmeticError):
            two_term_corank(3, [[(0, 1), (1, 1), (2, 1)]])


class TestKernel:
    """The kernel as ``rref`` reads it: one free parameter per non-pivot
    column; ``kernel_basis`` is the quadratic-dual tests' reading of it."""

    def test_identity_has_trivial_kernel(self):
        assert rref(identity(3).to_dense())[1] == [0, 1, 2]

    def test_single_row(self):
        reduced, pivots = rref([[1, 1]])
        assert pivots == [0]
        assert reduced == [[1, 1]]

    @given(matrices())
    def test_rank_nullity(self, rows):
        _, pivots = rref(rows)
        assert len(pivots) == rank(IntMatrix.from_rows(rows))

    @given(matrices())
    def test_kernel_basis_vectors_annihilate(self, rows):
        m = IntMatrix.from_rows(rows)
        basis = kernel_basis(rows, m.n_cols)
        assert len(basis) == m.n_cols - rank(m)
        for vec in basis:
            column = IntMatrix.from_rows([[v] for v in integer_rows([vec])[0]])
            assert multiply(m, column).is_zero()

    def test_kernel_of_empty_relation_matrix_is_everything(self):
        basis = kernel_basis([], 3)
        assert len(basis) == 3


class TestMultiply:
    def test_identity_neutral(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert multiply(a, identity(2)) == a

    def test_cancellation_in_miniature(self):
        a = IntMatrix.from_rows([[1, 1]])
        b = IntMatrix.from_rows([[1], [-1]])
        assert multiply(a, b).is_zero()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            multiply(identity(2), identity(3))

    @given(matrices(max_dim=5), matrices(max_dim=5))
    def test_matches_schoolbook(self, a_rows, b_rows):
        inner = len(a_rows[0])
        b_fit = [(b_rows[i % len(b_rows)] * inner)[:inner] for i in range(inner)]
        product = multiply(
            IntMatrix.from_rows(a_rows), IntMatrix.from_rows(b_fit)
        )
        assert product.to_dense() == schoolbook_product(a_rows, b_fit)


class TestHygiene:
    def test_no_stored_zeros(self):
        m = IntMatrix.from_rows([[0, 1], [0, 0]])
        assert set(m.entries) == {(0, 1)}

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 1, {(2, 0): 1})

    def test_non_int_entries_rejected(self):
        # an integral Fraction, a zero float and a bool are not ints either
        for value in [Fraction(4, 2), Fraction(1, 2), 1.0, 0.0, True]:
            with pytest.raises(TypeError):
                IntMatrix(1, 1, {(0, 0): value})
        # from_rows drops zeros before construction
        for value in [Fraction(4, 2), Fraction(1, 2), 1.0, True]:
            with pytest.raises(TypeError):
                IntMatrix.from_rows([[1, value]])

    def test_out_of_range_checked_before_type(self):
        for key in [(1, 0), (0, 1), (-1, 0)]:
            with pytest.raises(ValueError):
                IntMatrix(1, 1, {key: 1})
            with pytest.raises(ValueError):
                IntMatrix(1, 1, {key: Fraction(1, 2)})

    def test_text_dump(self):
        dump = IntMatrix.from_rows([[1, 0], [0, -1]]).to_text()
        assert dump.splitlines()[0] == "2 2 2"
