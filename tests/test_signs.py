import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngquiver import signs
from youngquiver.config import BoundExceededError
from youngquiver.partitions import (
    Partition,
    addable_rows,
    diamond_vertices,
    diamonds_up_to,
    grow_row,
    partition_rows_up_to,
)
from youngquiver.signs import (
    added_node_sign,
    addition_orders,
    arrow_sign,
    growth_signs,
    path_signs,
    verify_growth_agreement,
    verify_signs_sweep,
)
from youngquiver.quiver import quiver_slice

from oracles import hook_length_dimension

P = lambda *rows: Partition(tuple(rows))

# arrow labels on the whole lattice up to size four, frozen from the closed
# form (-1)^(nodes strictly above the added node's row), checked by hand
LATTICE_SIGNS_UP_TO_FOUR = {
    (P(), P(1)): 1,
    (P(1), P(1, 1)): -1,
    (P(1), P(2)): 1,
    (P(1, 1), P(1, 1, 1)): 1,
    (P(1, 1), P(2, 1)): 1,
    (P(2), P(2, 1)): 1,
    (P(2), P(3)): 1,
    (P(1, 1, 1), P(1, 1, 1, 1)): -1,
    (P(1, 1, 1), P(2, 1, 1)): 1,
    (P(2, 1), P(2, 1, 1)): -1,
    (P(2, 1), P(2, 2)): 1,
    (P(2, 1), P(3, 1)): 1,
    (P(3), P(3, 1)): -1,
    (P(3), P(4)): 1,
}


class TestClosedForm:
    def test_row_signs_of_single_box(self):
        assert [added_node_sign((1,), r) for r in range(4)] == [1, -1, -1, -1]

    def test_row_signs_of_hook(self):
        assert [added_node_sign((2, 1), r) for r in range(4)] == [1, 1, -1, -1]

    def test_row_signs_across_size_four(self):
        # per-diagram signs of 0-based rows 0..3, carried alongside the
        # arrow labels
        expected = {
            (3,): [1, -1, -1, -1],
            (1, 1, 1): [1, -1, 1, -1],
            (4,): [1, 1, 1, 1],
            (3, 1): [1, -1, 1, 1],
            (2, 2): [1, 1, 1, 1],
            (2, 1, 1): [1, 1, -1, 1],
            (1, 1, 1, 1): [1, -1, 1, -1],
        }
        for rows, signs_ in expected.items():
            assert [added_node_sign(rows, r) for r in range(4)] == signs_

    def test_all_lattice_labels_up_to_four(self):
        for (lam, mu), sign in LATTICE_SIGNS_UP_TO_FOUR.items():
            assert arrow_sign(lam, mu) == sign

    def test_assorted_labels(self):
        assert arrow_sign(P(2, 1), P(2, 1, 1)) == -1  # (-1)^(2+1)
        assert arrow_sign(P(2), P(3)) == 1
        assert arrow_sign(P(3, 1), P(3, 1, 1)) == 1  # (-1)^4
        assert arrow_sign(P(1, 1), P(2, 1)) == 1

    def test_not_an_arrow(self):
        with pytest.raises(ValueError):
            arrow_sign(P(1), P(1, 1, 1))
        with pytest.raises(ValueError):
            arrow_sign(P(2), P(1, 1))


class TestSignTable:
    def test_table_matches_closed_form(self):
        # the labels `quiver --signs` prints are exactly the frozen table
        slice_ = quiver_slice(4)
        table = {
            (P(*slice_.nodes[source]), P(*slice_.nodes[target])): added_node_sign(
                slice_.nodes[source], r
            )
            for source, target, r in slice_.arrows
        }
        assert len(table) == 14
        assert table == LATTICE_SIGNS_UP_TO_FOUR


class TestGrowthProcedure:
    def test_two_paths_by_hand(self):
        # row-first growth of (2,1): flips land below the touched row, so the
        # final addition in row 2 sees sign (+1)(+1) -> +1
        rows, path = growth_signs([0, 0, 1])
        assert path == [1, 1, 1]
        assert rows == [1, 1, -1, -1]
        # column-first growth reaches the same diagram with the same row
        # signs through different intermediate flips
        rows2, path2 = growth_signs([0, 1, 0])
        assert path2 == [1, -1, 1]
        assert rows2 == [1, 1, -1, -1]

    def test_orders_by_hand(self):
        assert addition_orders(()) == [[]]
        assert addition_orders((2, 1)) == [[0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize(
        "order", [[1], [0, 2], [0, 1, 1], [-1]], ids=["gap", "gap-below", "equal-row", "negative"]
    )
    def test_row_that_takes_no_node_rejected(self, order):
        with pytest.raises(ValueError, match="takes no node"):
            growth_signs(order)

    def test_all_orders_small(self):
        for lam in partition_rows_up_to(5):
            for order in addition_orders(lam):
                grown_rows, grown_path = growth_signs(order)
                assert grown_rows == [added_node_sign(lam, r) for r in range(len(order) + 1)]
                shape = ()
                for r, got in zip(order, grown_path):
                    assert got == added_node_sign(shape, r)
                    shape = grow_row(shape, r)
                assert shape == lam

    def test_arrow_signs_are_row_signs_of_the_prefix(self):
        # why the growth sweep compares row signs only: the arrow sign at
        # step k is a row sign after the first k additions
        for lam in partition_rows_up_to(signs.GROWTH_MAX_SIZE):
            for order in addition_orders(lam):
                _, path = growth_signs(order)
                shape = ()
                for k, r in enumerate(order):
                    prefix_rows, _ = growth_signs(order[:k])
                    assert path[k] == prefix_rows[r] == added_node_sign(shape, r)
                    shape = grow_row(shape, r)

    def test_order_counts_are_standard_tableau_counts(self):
        for lam in partition_rows_up_to(5):
            assert len(addition_orders(lam)) == hook_length_dimension(lam)

    def test_sweep_certificate(self):
        counts, first_failure = verify_growth_agreement(8)
        assert first_failure is None
        assert counts["partitions_checked"] == len(partition_rows_up_to(8))

    def test_oracle_refuses_past_its_cap_before_any_diagram(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("diagrams were listed before the size was checked")

        monkeypatch.setattr(signs, "addition_orders", no_work)
        monkeypatch.setattr(signs, "partition_rows_up_to", no_work)
        cap = signs.GROWTH_MAX_SIZE
        with pytest.raises(BoundExceededError) as caught:
            verify_growth_agreement(cap + 1)
        assert str(caught.value) == f"growth oracle size {cap + 1} exceeds configured bound {cap}"


class TestAnticommutativity:
    def test_no_diamonds_below_size_two(self):
        cert = verify_signs_sweep(2)
        assert cert.passed
        assert cert.counts["diamonds_checked"] == 0

    def test_first_diamond_by_hand(self):
        bottom, mid_left, mid_right, top = map(Partition, diamond_vertices((1,), 0, 1))
        left = arrow_sign(bottom, mid_left) * arrow_sign(mid_left, top)
        right = arrow_sign(bottom, mid_right) * arrow_sign(mid_right, top)
        assert (left, right) == path_signs((1,), 0, 1) == (-1, 1)

    def test_sweep_to_ten(self):
        cert = verify_signs_sweep(10)
        assert cert.passed
        assert cert.counts["diamonds_checked"] == 182

    def test_exactly_one_product_positive(self):
        for diamond in diamonds_up_to(10):
            assert set(path_signs(*diamond)) == {1, -1}

    def test_path_signs_match_arrow_sign_through_size_twelve(self):
        # arrow_sign on Partitions, finding the added row itself, is the
        # oracle of the row-tuple rule on every diamond the sweep reads
        checked = 0
        for diamond in diamonds_up_to(12):
            bottom, mid_left, mid_right, top = map(Partition, diamond_vertices(*diamond))
            assert path_signs(*diamond) == (
                arrow_sign(bottom, mid_left) * arrow_sign(mid_left, top),
                arrow_sign(bottom, mid_right) * arrow_sign(mid_right, top),
            )
            checked += 1
        assert checked == verify_signs_sweep(12).counts["diamonds_checked"] == 466


def flip_one_arrow(monkeypatch, lower, r):
    """Negate the closed-form sign of the one arrow adding a node to 0-based
    row ``r`` of ``lower``."""
    rule = signs.added_node_sign

    def flipped(rows, row):
        return -rule(rows, row) if (rows, row) == (lower, r) else rule(rows, row)

    monkeypatch.setattr(signs, "added_node_sign", flipped)


class TestFailureLocator:
    """A one-arrow flip fails the diamond sweep at the first diamond through
    that arrow, and the growth oracle, which reads the same closed form,
    fails on its own at the arrow's lower diagram."""

    def test_flip_on_a_left_path(self, monkeypatch):
        # (2,1) -> (3,1) is the second arrow of the left path above (2)
        flip_one_arrow(monkeypatch, (2, 1), 0)
        cert = verify_signs_sweep(10)
        assert cert.verdict == "fail"
        assert cert.counts["diamonds_checked"] == 2
        assert cert.first_failure == {"diamond": ["2", "2,1", "3", "3,1"], "products": [-1, -1]}
        assert verify_growth_agreement(8)[1]["partition"] == "2,1"

    def test_flip_on_a_right_path(self, monkeypatch):
        # (4,2,1) -> (4,2,2) is the second arrow of the right path above (3,2,1)
        flip_one_arrow(monkeypatch, (4, 2, 1), 2)
        cert = verify_signs_sweep(10)
        assert cert.verdict == "fail"
        assert cert.counts["diamonds_checked"] == 47
        assert cert.first_failure == {
            "diamond": ["3,2,1", "3,2,2", "4,2,1", "4,2,2"],
            "products": [-1, -1],
        }
        assert verify_growth_agreement(8)[1]["partition"] == "4,2,1"


def flip_one_growth_sign(monkeypatch, call):
    """Negate the row-2 sign that the growth procedure returns on its
    0-based ``call``-th call; the row signs of the closed form are kept."""
    grow = signs.growth_signs
    calls = []

    def flipped(order):
        rows, path = grow(order)
        if len(calls) == call:
            rows[1] = -rows[1]
        calls.append(call)
        return rows, path

    monkeypatch.setattr(signs, "growth_signs", flipped)


class TestGrowthLocator:
    """A flipped growth sign fails the sweep at the order that carries it.
    The sweep tries every addition order, so it reaches (3,1,1) after 28
    orders and (4,3,1), of size 8, after 542."""

    def test_exhaustive_order(self, monkeypatch):
        # the fourth of the six orders of (3,1,1)
        flip_one_growth_sign(monkeypatch, 28 + 3)
        cert = verify_signs_sweep(8)
        assert cert.verdict == "fail"
        assert cert.counts == {
            "diamonds_checked": 62,
            "partitions_checked": 16,
            "orders_checked": 32,
        }
        assert cert.first_failure == {
            "partition": "3,1,1",
            "order": [[1, 1], [2, 1], [1, 2], [1, 3], [3, 1]],
            "grown_rows": [1, 1, 1, -1, -1, -1],
            "closed_form_rows": [1, -1, 1, -1, -1, -1],
        }

    def test_order_of_a_size_8_diagram(self, monkeypatch):
        # the tenth of the 70 orders of (4,3,1)
        flip_one_growth_sign(monkeypatch, 542 + 9)
        cert = verify_signs_sweep(8)
        assert cert.verdict == "fail"
        assert cert.counts == {
            "diamonds_checked": 62,
            "partitions_checked": 54,
            "orders_checked": 552,
        }
        assert cert.first_failure == {
            "partition": "4,3,1",
            "order": [[1, 1], [1, 2], [2, 1], [1, 3], [3, 1], [2, 2], [2, 3], [1, 4]],
            "grown_rows": [1, -1, -1, 1, 1, 1, 1, 1, 1],
            "closed_form_rows": [1, 1, -1, 1, 1, 1, 1, 1, 1],
        }


@st.composite
def random_addition_order(draw, max_size=8):
    size = draw(st.integers(min_value=0, max_value=max_size))
    shape = ()
    order = []
    for _ in range(size):
        r = draw(st.sampled_from(addable_rows(shape)))
        order.append(r)
        shape = grow_row(shape, r)
    return order


class TestPathIndependence:
    @given(random_addition_order())
    @settings(max_examples=150)
    def test_growth_agrees_with_closed_form(self, order):
        shape = ()
        for r in order:
            shape = grow_row(shape, r)
        rows, _ = growth_signs(order)
        assert rows == [added_node_sign(shape, r) for r in range(len(order) + 1)]
