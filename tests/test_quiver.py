import json

import pytest

from youngquiver.cli import main
from youngquiver.config import BoundExceededError
from youngquiver.partitions import (
    EMPTY,
    Partition,
    add_node,
    addable_rows,
    format_partition,
    grow_row,
    partitions_of,
    partitions_up_to,
    skew_classify,
    transpose,
)
from youngquiver.quiver import (
    hom_dim_C,
    hom_dim_Cprime_mod_J,
    quiver_slice,
    render,
)
from youngquiver.signs import arrow_sign
from youngquiver.symgroup import induction_multiplicity

P = lambda *rows: Partition(tuple(rows))


def subdiagrams(lam):
    return [mu for mu in partitions_up_to(lam.size) if lam.contains(mu)]


def projective_support(lam, degree):
    """Diagrams of size |lam| + degree with a nonzero hom from lam: the
    degree-``degree`` part of the projective generated at lam."""
    return [mu for mu in partitions_of(lam.size + degree) if hom_dim_C(lam.rows, mu.rows)]


class TestHomDimensions:
    def test_identity_morphism(self):
        assert hom_dim_C((2, 1), (2, 1)) == 1

    def test_column_pair_killed(self):
        assert hom_dim_C((1,), (1, 1, 1)) == 0

    def test_spread_nodes_survive(self):
        assert hom_dim_C((1,), (2, 1)) == 1

    def test_not_contained(self):
        assert hom_dim_C((2,), (1, 1)) == 0

    def test_rook_strip_variant(self):
        assert hom_dim_Cprime_mod_J((1,), (2, 1)) == 1
        assert hom_dim_Cprime_mod_J((1,), (3,)) == 0
        assert hom_dim_Cprime_mod_J((1,), (1, 1, 1)) == 0

    def test_agrees_with_pieri_up_to_eight(self):
        # the Pieri rule as a character pairing: the multiplicity of lam in
        # the module induced from mu and the trivial module of the other nodes
        for lam in partitions_up_to(8):
            for mu in partitions_up_to(lam.size):
                assert hom_dim_C(mu.rows, lam.rows) == induction_multiplicity(
                    mu.rows, lam.size - mu.size, lam.rows
                )

    def test_rook_strip_is_product_of_both_sides(self):
        for lam in partitions_up_to(8):
            for mu in (m.rows for m in subdiagrams(lam)):
                expected = hom_dim_C(mu, lam.rows) * hom_dim_C(transpose(mu), transpose(lam.rows))
                assert hom_dim_Cprime_mod_J(mu, lam.rows) == expected

    def test_composition_consistency(self):
        # a nonzero composable chain can only die via the column relation
        for lam in partitions_up_to(8):
            for nu in subdiagrams(lam):
                for mu in subdiagrams(nu):
                    through = hom_dim_C(mu.rows, nu.rows) * hom_dim_C(nu.rows, lam.rows)
                    column_killed = (
                        1 if skew_classify(mu.rows, lam.rows).has_column_pair else 0
                    )
                    assert through <= hom_dim_C(mu.rows, lam.rows) + column_killed


class TestQuiverSlice:
    def test_tiny(self):
        s = quiver_slice(1)
        assert [format_partition(n) for n in s.nodes] == ["0", "1"]
        assert s.arrows == ((0, 1, 0),)

    def test_trivial(self):
        s = quiver_slice(0)
        assert s.nodes == (EMPTY.rows,)
        assert s.arrows == ()

    def test_size_four_counts(self):
        # the truncated lattice: 1+1+2+3+5 diagrams, 1+2+4+7 covering arrows
        s = quiver_slice(4)
        assert len(s.nodes) == 12
        assert len(s.arrows) == 14

    def test_arrows_are_single_node_additions(self):
        s = quiver_slice(6)
        for source, target, r in s.arrows:
            a, b = Partition(s.nodes[source]), Partition(s.nodes[target])
            assert b.size == a.size + 1 and b.contains(a)
            assert b.rows == grow_row(a.rows, r)

    def test_out_degree_is_addable_count(self):
        s = quiver_slice(6)
        for k, node in enumerate(s.nodes):
            if sum(node) < 6:
                out = [arrow for arrow in s.arrows if arrow[0] == k]
                assert len(out) == len(addable_rows(node))

    @pytest.mark.parametrize("n", range(4))
    def test_out_degree_matches_branching_multiplicities(self, n):
        for mu in partitions_of(n):
            branching = sum(
                induction_multiplicity(mu.rows, 1, lam.rows) for lam in partitions_of(n + 1)
            )
            assert branching == len(addable_rows(mu.rows))

    def test_bound(self):
        message = "quiver slice size 31 exceeds configured bound 30"
        with pytest.raises(BoundExceededError, match=message):
            quiver_slice(31)


class TestProjectiveGradedDims:
    def test_degree_zero_is_the_generator(self):
        assert projective_support(P(3, 1), 0) == [P(3, 1)]

    def test_from_empty_degree_two(self):
        assert projective_support(EMPTY, 2) == [P(2)]

    def test_from_single_box_degree_one(self):
        assert projective_support(P(1), 1) == [P(2), P(1, 1)]


class TestDotExport:
    def test_unlabeled(self):
        dot = render(quiver_slice(2), "dot")
        assert dot.startswith("digraph")
        assert '"1" -> "2";' in dot
        assert '"1" -> "1,1";' in dot
        assert "label" not in dot

    def test_sign_labels(self):
        dot = render(quiver_slice(2), "dot", signs=True)
        assert '"1" -> "1,1" [label="-1"];' in dot
        assert '"1" -> "2" [label="+1"];' in dot

    def test_counts_in_dot(self):
        dot = render(quiver_slice(4), "dot")
        assert dot.count(" -> ") == 14
        assert dot.count(";") - dot.count(" -> ") == 12  # node statements


def slow_rendering(max_size, fmt, signs):
    """``quiver --max-size max_size`` as printed by the construction on
    ``Partition``s: every arrow target rebuilt with ``add_node``, every sign
    from ``arrow_sign`` and both ends of every arrow formatted anew."""
    nodes = partitions_up_to(max_size)
    arrows = [
        (node, add_node(node, r))
        for node in nodes
        if node.size < max_size
        for r in addable_rows(node.rows)
    ]
    if fmt == "dot":
        lines = ["digraph young_lattice {"]
        for node in nodes:
            lines.append(f'  "{node}";')
        for source, target in arrows:
            if not signs:
                lines.append(f'  "{source}" -> "{target}";')
            else:
                sign = arrow_sign(source, target)
                lines.append(f'  "{source}" -> "{target}" [label="{sign:+d}"];')
        lines.append("}")
        return "\n".join(lines)
    if fmt == "json":
        payload = {
            "max_size": max_size,
            "nodes": [str(p) for p in nodes],
            "arrows": [
                [str(a), str(b)] + ([arrow_sign(a, b)] if signs else []) for a, b in arrows
            ],
        }
        return json.dumps(payload, indent=2)
    lines = [f"nodes: {len(nodes)}", f"arrows: {len(arrows)}"]
    for a, b in arrows:
        label = f" [{arrow_sign(a, b):+d}]" if signs else ""
        lines.append(f"{a} -> {b}{label}")
    return "\n".join(lines)


@pytest.mark.parametrize("signs", [False, True])
@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@pytest.mark.parametrize("max_size", range(11))
def test_rendering_matches_partition_construction(max_size, fmt, signs, capsys):
    argv = ["quiver", "--max-size", str(max_size), "--format", fmt] + ["--signs"] * signs
    assert main(argv) == 0
    # byte for byte, the trailing newline included
    assert capsys.readouterr().out == slow_rendering(max_size, fmt, signs) + "\n"
