import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngquiver import signs
from youngquiver.partitions import (
    EMPTY,
    Node,
    Partition,
    add_node,
    diamond_vertices,
    diamonds_up_to,
    partitions_up_to,
)
from youngquiver.signs import (
    added_node_sign,
    addition_orders,
    arrow_sign,
    growth_signs,
    path_signs,
    row_sign,
    verify_growth_agreement,
    verify_signs_sweep,
)
from youngquiver.quiver import quiver_slice

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
        assert [row_sign(P(1), r) for r in (1, 2, 3, 4)] == [1, -1, -1, -1]

    def test_row_signs_of_hook(self):
        assert [row_sign(P(2, 1), r) for r in (1, 2, 3, 4)] == [1, 1, -1, -1]

    def test_row_signs_across_size_four(self):
        # per-diagram row signs carried alongside the arrow labels
        expected = {
            P(3): [1, -1, -1, -1],
            P(1, 1, 1): [1, -1, 1, -1],
            P(4): [1, 1, 1, 1],
            P(3, 1): [1, -1, 1, 1],
            P(2, 2): [1, 1, 1, 1],
            P(2, 1, 1): [1, 1, -1, 1],
            P(1, 1, 1, 1): [1, -1, 1, -1],
        }
        for lam, signs_ in expected.items():
            assert [row_sign(lam, r) for r in (1, 2, 3, 4)] == signs_

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
        rows, path = growth_signs([Node(1, 1), Node(1, 2), Node(2, 1)])
        assert path == [1, 1, 1]
        assert rows == [1, 1, -1, -1]
        # column-first growth reaches the same diagram with the same row
        # signs through different intermediate flips
        rows2, path2 = growth_signs([Node(1, 1), Node(2, 1), Node(1, 2)])
        assert path2 == [1, -1, 1]
        assert rows2 == [1, 1, -1, -1]

    def test_all_orders_small(self):
        for lam in partitions_up_to(5):
            for order in addition_orders(lam):
                grown_rows, grown_path = growth_signs(order)
                assert grown_rows == [row_sign(lam, r) for r in range(1, len(order) + 2)]
                shape = EMPTY
                for node, got in zip(order, grown_path):
                    assert got == row_sign(shape, node.row)
                    shape = add_node(shape, node)

    def test_order_counts_are_standard_tableau_counts(self):
        from youngquiver.symgroup import specht_dimension

        for lam in partitions_up_to(5):
            assert len(addition_orders(lam)) == specht_dimension(lam.rows)

    def test_sweep_certificate(self):
        counts, first_failure = verify_growth_agreement(8)
        assert first_failure is None
        assert counts["partitions_checked"] == len(partitions_up_to(8))


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
    that arrow, and the growth oracle, which reads the same closed form
    through ``row_sign``, fails on its own at the arrow's lower diagram."""

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


@st.composite
def random_addition_order(draw, max_size=8):
    size = draw(st.integers(min_value=0, max_value=max_size))
    shape = EMPTY
    order = []
    for _ in range(size):
        from youngquiver.partitions import addable_nodes

        node = draw(st.sampled_from(addable_nodes(shape)))
        order.append(node)
        shape = add_node(shape, node)
    return order


class TestPathIndependence:
    @given(random_addition_order())
    @settings(max_examples=150)
    def test_growth_agrees_with_closed_form(self, order):
        shape = EMPTY
        for node in order:
            shape = add_node(shape, node)
        rows, _ = growth_signs(order)
        assert rows == [row_sign(shape, r) for r in range(1, len(order) + 2)]
