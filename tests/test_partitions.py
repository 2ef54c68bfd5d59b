from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from youngquiver.config import BoundExceededError
from youngquiver.partitions import (
    EMPTY,
    Partition,
    SkewClass,
    add_node,
    addable_rows,
    diamond_vertices,
    diamonds_up_to,
    format_partition,
    grow_row,
    grown_rows,
    parse_partition,
    partition_rows_up_to,
    partitions_of,
    partitions_up_to,
    removable_rows,
    shrink_row,
    skew_classify,
    subdiagram_rows,
    transpose,
)

P = lambda *rows: Partition(tuple(rows))


def subdiagrams(lam):
    return [mu for mu in partitions_up_to(lam.size) if lam.contains(mu)]


def skew_nodes(mu, lam):
    """Cells of lam not in mu, for lam containing mu, as 1-based (row,
    column) pairs."""
    return [
        (r, c)
        for r in range(1, len(lam.rows) + 1)
        for c in range(mu.row(r) + 1, lam.row(r) + 1)
    ]


def lattice_join(mu, nu):
    """Rowwise maximum: the smallest diagram containing both."""
    depth = max(len(mu.rows), len(nu.rows))
    return Partition(tuple(max(mu.row(r), nu.row(r)) for r in range(1, depth + 1)))


def diamonds_above(bottom):
    """The oracle diamond sequence on ``Partition``s: every pair of one-node
    extensions of ``bottom`` from ``addable_by_brute_force`` and
    ``add_node``, the mids sorted by rows, with their rowwise maximum as the
    top."""
    mids = [add_node(bottom, r) for r in addable_by_brute_force(bottom)]
    diamonds = []
    for i in range(len(mids)):
        for j in range(i + 1, len(mids)):
            left, right = sorted((mids[i], mids[j]), key=lambda p: p.rows)
            diamonds.append((bottom, left, right, lattice_join(left, right)))
    return diamonds


def row_diamonds(bottom):
    """The diamonds of ``diamonds_up_to`` above one bottom, as ``Partition``
    vertices (bottom, mid_left, mid_right, top)."""
    return [
        tuple(map(Partition, diamond_vertices(rows, r1, r2)))
        for rows, r1, r2 in diamonds_up_to(bottom.size + 2)
        if rows == bottom.rows
    ]


@st.composite
def partitions(draw, max_size=12):
    size = draw(st.integers(min_value=0, max_value=max_size))
    remaining = size
    rows = []
    cap = size
    while remaining:
        part = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        rows.append(part)
        cap = part
        remaining -= part
    return Partition(tuple(rows))


def brute_force_partitions(n):
    """Independent enumeration: weakly decreasing first-part recursion."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in brute_force_partitions(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


class TestConstruction:
    def test_rejects_increasing_rows(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    # rows are taken as integers, never converted: int() would turn 2.5
    # into 2 and "1_0" into 10
    @pytest.mark.parametrize("rows", [(2.5, 1), ("1_0",), (Fraction(2), 1)])
    def test_rejects_non_integer_rows(self, rows):
        with pytest.raises(TypeError):
            Partition(rows)

    def test_size_and_row_access(self):
        lam = P(3, 1)
        assert lam.size == 4
        assert lam.row(1) == 3 and lam.row(2) == 1 and lam.row(5) == 0

    def test_string_round_trip(self):
        assert str(P(3, 1, 1)) == "3,1,1"
        assert str(EMPTY) == "0"
        assert parse_partition("3,1,1") == P(3, 1, 1)
        assert parse_partition("0") == EMPTY
        assert parse_partition("") == EMPTY

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_partition("1,2")
        with pytest.raises(ValueError):
            parse_partition("a,b")
        # ASCII decimal digits only: no underscores, signs or non-ASCII digits
        for text in ("1_0", "2,1_1", "+3", "\uff13", "\u0663", "3,,1", "-1"):
            with pytest.raises(ValueError, match="cannot parse partition"):
                parse_partition(text)
        assert parse_partition(" 3, 1") == Partition((3, 1))

    @given(partitions())
    def test_parse_inverts_str(self, lam):
        assert parse_partition(str(lam)) == lam


class TestTranspose:
    def test_single_row_and_column(self):
        assert transpose((3,)) == (1, 1, 1)

    def test_self_conjugate(self):
        assert transpose((2, 1)) == (2, 1)

    def test_hand_counted_columns(self):
        # (3,1): column 1 holds 2 nodes, columns 2 and 3 hold 1 each
        assert transpose((3, 1)) == (2, 1, 1)

    @given(partitions())
    def test_involution(self, lam):
        assert transpose(transpose(lam.rows)) == lam.rows

    def test_involution_exhaustive_to_twelve(self):
        for lam in partition_rows_up_to(12):
            assert transpose(transpose(lam)) == lam

    @given(partitions())
    def test_preserves_size(self, lam):
        # a Partition, so the transpose is a valid diagram
        assert Partition(transpose(lam.rows)).size == lam.size


def addable_by_brute_force(lam):
    """Try every row 0..k and keep those where one more node yields a
    partition."""
    out = []
    for r in range(len(lam.rows) + 1):
        candidate = list(lam.rows) + [0]
        candidate[r] += 1
        trimmed = tuple(v for v in candidate if v)
        if all(trimmed[i] >= trimmed[i + 1] for i in range(len(trimmed) - 1)):
            out.append(r)
    return out


def removable_by_brute_force(rows):
    """Try every row and keep those where one node less yields a partition."""
    out = []
    for r in range(len(rows)):
        candidate = list(rows)
        candidate[r] -= 1
        if all(candidate[i] >= candidate[i + 1] for i in range(len(candidate) - 1)):
            out.append(r)
    return out


class TestAddableNodes:
    """The rows of the addable nodes, from ``addable_rows``."""

    def test_empty(self):
        assert addable_rows(()) == [0]

    def test_staircase(self):
        assert addable_rows((2, 1)) == [0, 1, 2]

    def test_rectangle(self):
        assert addable_rows((2, 2)) == [0, 2]

    @given(partitions())
    def test_matches_brute_force(self, lam):
        assert addable_rows(lam.rows) == addable_by_brute_force(lam)

    @given(partitions())
    def test_count_is_distinct_row_lengths_plus_one(self, lam):
        assert len(addable_rows(lam.rows)) == len(set(lam.rows)) + 1


class TestRemovableRows:
    def test_empty(self):
        assert removable_rows(()) == []

    def test_staircase(self):
        assert removable_rows((2, 1)) == [0, 1]
        assert shrink_row((2, 1), 1) == (2,)
        assert shrink_row((2, 1), 0) == (1, 1)

    def test_rectangle(self):
        assert removable_rows((2, 2)) == [1]
        assert shrink_row((2, 2), 1) == (2, 1)

    @given(partitions())
    def test_count_is_distinct_row_lengths(self, lam):
        assert len(removable_rows(lam.rows)) == len(set(lam.rows))

    def test_matches_brute_force_to_nine(self):
        for rows in partition_rows_up_to(9):
            assert removable_rows(rows) == removable_by_brute_force(rows)

    def test_shrink_undoes_grow_to_ten(self):
        for rows in partition_rows_up_to(10):
            for r in addable_rows(rows):
                grown = grow_row(rows, r)
                assert r in removable_rows(grown)
                assert shrink_row(grown, r) == rows


class TestRowTupleHelpers:
    def test_grown_rows_match_add_node_exhaustive_to_nine(self):
        for lam in partitions_up_to(9):
            assert grown_rows(lam.rows) == [add_node(lam, r).rows for r in addable_rows(lam.rows)]

    def test_addable_rows_and_grow_row_match_brute_force_to_nine(self):
        for lam in partitions_up_to(9):
            rows = addable_by_brute_force(lam)
            assert addable_rows(lam.rows) == rows
            for r in rows:
                grown = list(lam.rows) + [0]
                grown[r] += 1
                assert grow_row(lam.rows, r) == add_node(lam, r).rows == tuple(v for v in grown if v)

    def test_subdiagram_rows_match_the_containment_scan_to_nine(self):
        for lam in partitions_up_to(9):
            assert subdiagram_rows(lam.rows) == [mu.rows for mu in subdiagrams(lam)]

    def test_format_partition(self):
        assert format_partition(()) == "0"
        assert format_partition((3, 1, 1)) == str(P(3, 1, 1)) == "3,1,1"


class TestAddNode:
    def test_first_node(self):
        assert add_node(EMPTY, 0) == P(1)

    def test_interior(self):
        assert add_node(P(2, 1), 1) == P(2, 2)

    def test_new_row(self):
        assert add_node(P(2, 1), 2) == P(2, 1, 1)

    def test_gap_rejected(self):
        for lam, r in [(P(1), 2), (EMPTY, 1)]:
            with pytest.raises(ValueError, match="takes no node"):
                add_node(lam, r)

    def test_monotonicity_break_rejected(self):
        with pytest.raises(ValueError, match="takes no node"):
            add_node(P(2, 2), 1)

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError, match="takes no node"):
            add_node(P(1), -1)

    @given(partitions())
    def test_every_addable_node_works(self, lam):
        for r in addable_rows(lam.rows):
            bigger = add_node(lam, r)
            assert bigger.size == lam.size + 1
            assert bigger.contains(lam)


class TestSkewClassify:
    def test_column_pair(self):
        sk = skew_classify((1,), (1, 1, 1))
        assert (sk.contained, sk.has_column_pair, sk.has_row_pair) == (True, True, False)

    def test_spread_nodes(self):
        # skew nodes at (1,2) and (2,1): no shared row or column
        sk = skew_classify((1,), (2, 1))
        assert (sk.contained, sk.has_column_pair, sk.has_row_pair) == (True, False, False)

    def test_not_contained(self):
        sk = skew_classify((2,), (1, 1))
        assert sk.contained is False
        assert sk.has_column_pair is sk.has_row_pair is None

    @given(partitions(max_size=8), partitions(max_size=8))
    def test_transpose_swaps_pair_flags(self, mu, lam):
        sk = skew_classify(mu.rows, lam.rows)
        sk_t = skew_classify(transpose(mu.rows), transpose(lam.rows))
        assert sk.contained == sk_t.contained
        if sk.contained:
            assert sk.has_column_pair == sk_t.has_row_pair
            assert sk.has_row_pair == sk_t.has_column_pair

    def test_transpose_swaps_pair_flags_exhaustive_to_eight(self):
        for lam in partitions_up_to(8):
            for mu in subdiagrams(lam):
                sk = skew_classify(mu.rows, lam.rows)
                sk_t = skew_classify(transpose(mu.rows), transpose(lam.rows))
                assert sk.has_column_pair == sk_t.has_row_pair
                assert sk.has_row_pair == sk_t.has_column_pair

    def test_matches_transpose_definition_exhaustive_to_eight(self):
        # oracle: containment row by row, a column pair as a row pair of the
        # transposed diagrams
        def by_transpose(mu, lam):
            if not all(lam.row(r) >= v for r, v in enumerate(mu.rows, start=1)):
                return SkewClass(contained=False)
            lam_t, mu_t = Partition(transpose(lam.rows)), Partition(transpose(mu.rows))
            return SkewClass(
                contained=True,
                has_column_pair=any(
                    lam_t.row(c) - mu_t.row(c) >= 2 for c in range(1, len(lam_t.rows) + 1)
                ),
                has_row_pair=any(
                    lam.row(r) - mu.row(r) >= 2 for r in range(1, len(lam.rows) + 1)
                ),
            )

        diagrams = partitions_up_to(8)
        for lam in diagrams:
            for mu in diagrams:
                expected = by_transpose(mu, lam)
                assert lam.contains(mu) == expected.contained
                assert skew_classify(mu.rows, lam.rows) == expected

    @given(partitions(max_size=8))
    def test_skew_nodes_count_matches(self, lam):
        for mu in subdiagrams(lam):
            nodes = skew_nodes(mu, lam)
            assert len(nodes) == lam.size - mu.size
            # a pair flag is set iff two skew nodes share a row, or a column
            sk = skew_classify(mu.rows, lam.rows)
            rows, columns = [r for r, _ in nodes], [c for _, c in nodes]
            assert sk.has_row_pair == (len(set(rows)) < len(rows))
            assert sk.has_column_pair == (len(set(columns)) < len(columns))


class TestDiamonds:
    def test_empty_bottom_has_none(self):
        assert row_diamonds(EMPTY) == diamonds_above(EMPTY) == []
        assert list(diamonds_up_to(2)) == []
        assert list(diamonds_up_to(3)) == [((1,), 0, 1)]

    def test_single_box(self):
        (diamond,) = row_diamonds(P(1))
        assert diamond == (P(1), P(1, 1), P(2), P(2, 1))
        assert diamond_vertices((1,), 0, 1) == ((1,), (1, 1), (2,), (2, 1))

    def test_staircase_tops(self):
        tops = [top for _, _, _, top in row_diamonds(P(2, 1))]
        assert tops == [P(3, 2), P(3, 1, 1), P(2, 2, 1)]

    @given(partitions(max_size=10))
    def test_structure(self, bottom):
        diamonds = row_diamonds(bottom)
        assert diamonds == diamonds_above(bottom)
        for _, mid_left, mid_right, top in diamonds:
            assert mid_left.rows < mid_right.rows
            assert top.size == bottom.size + 2
            assert top == lattice_join(mid_left, mid_right)

    def test_matches_oracle_sequence_on_every_bottom_through_fourteen(self):
        rows = [diamond_vertices(*d) for d in diamonds_up_to(16)]
        oracle = [
            tuple(p.rows for p in diamond)
            for bottom in partitions_up_to(14)
            for diamond in diamonds_above(bottom)
        ]
        assert len(rows) == 2347
        assert rows == oracle

    def test_bound_enforced_like_partitions_up_to(self):
        with pytest.raises(BoundExceededError, match="partition size 31 exceeds"):
            next(diamonds_up_to(33))

    @given(partitions(max_size=10))
    def test_completion_unique(self, bottom):
        # any common extension of two distinct mids by one node is the join
        mids = [add_node(bottom, r) for r in addable_rows(bottom.rows)]
        for i in range(len(mids)):
            for j in range(i + 1, len(mids)):
                join = lattice_join(mids[i], mids[j])
                tops = [
                    add_node(mids[i], r)
                    for r in addable_rows(mids[i].rows)
                    if add_node(mids[i], r).contains(mids[j])
                ]
                assert tops == [join]


class TestLatticeJoin:
    def test_rowwise_max(self):
        assert lattice_join(P(2), P(1, 1)) == P(2, 1)
        assert lattice_join(P(3, 1), P(2, 2)) == P(3, 2)

    @given(partitions())
    def test_join_with_bottom(self, lam):
        assert lattice_join(lam, EMPTY) == lam

    @given(partitions(max_size=8), partitions(max_size=8))
    def test_join_is_least_upper_bound(self, a, b):
        join = lattice_join(a, b)
        assert join.contains(a) and join.contains(b)
        for smaller in subdiagrams(join):
            if smaller != join:
                assert not (smaller.contains(a) and smaller.contains(b))


# reverse lexicographic enumeration frozen by hand for n = 4
PARTITIONS_OF_FOUR = [P(4), P(3, 1), P(2, 2), P(2, 1, 1), P(1, 1, 1, 1)]
# partition numbers p(0)..p(10)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


class TestPartitionsOf:
    def test_zero(self):
        assert partitions_of(0) == [EMPTY]

    def test_four(self):
        assert partitions_of(4) == PARTITIONS_OF_FOUR

    def test_six_count(self):
        assert len(partitions_of(6)) == 11

    @pytest.mark.parametrize("n", range(11))
    def test_matches_brute_force(self, n):
        assert {p.rows for p in partitions_of(n)} == set(brute_force_partitions(n))
        assert len(partitions_of(n)) == PARTITION_COUNTS[n]

    @pytest.mark.parametrize("n", range(11))
    def test_reverse_lexicographic_order(self, n):
        rows = [p.rows for p in partitions_of(n)]
        assert rows == sorted(rows, reverse=True)

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            partitions_of(31)

    def test_partitions_up_to(self):
        assert len(partitions_up_to(4)) == sum(PARTITION_COUNTS[:5])

    def test_rows_up_to_match_partitions_of_in_order(self):
        expected = [p.rows for k in range(11) for p in partitions_of(k)]
        assert partition_rows_up_to(10) == expected
        assert [p.rows for p in partitions_up_to(10)] == expected
        assert partition_rows_up_to(-1) == []

    def test_rows_up_to_bound_message(self):
        for enumerate_up_to in (partition_rows_up_to, partitions_up_to):
            with pytest.raises(BoundExceededError) as caught:
                enumerate_up_to(31)
            assert str(caught.value) == "partition size 31 exceeds configured bound 30"
