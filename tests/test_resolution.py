import json
import re
import time

import pytest

from youngquiver import resolution
from youngquiver.cli import main
from youngquiver.config import BoundExceededError, Bounds
from youngquiver.exactlinalg import IntMatrix, multiply, rank
from youngquiver.partitions import (
    EMPTY,
    Partition,
    format_partition,
    partition_rows_up_to,
    partitions_of,
    partitions_up_to,
    skew_classify,
    transpose,
)
from youngquiver.quiver import hom_dim_C
from youngquiver.resolution import (
    GradedComplex,
    ObjectChain,
    Rows,
    _arrows_into,
    _compose,
    _members_at,
    _strata_rows,
    betti_table,
    build_resolution,
    verify_complex,
    verify_exactness,
    verify_resolution,
)
from youngquiver.signs import arrow_sign

from oracles import load_bench_workloads

P = lambda *rows: Partition(tuple(rows))


def chain_at(complex_, mu):
    return complex_.chains[complex_.objects.index(mu.rows)]


def components_at(complex_, i, mu):
    """The stratum members present at position i at mu, as diagrams."""
    offset = i + complex_.depth
    members = complex_.strata[offset]
    numbers = chain_at(complex_, mu).components[offset]
    return tuple(Partition(members[number]) for number in numbers)


def stratum_rows(xi, i):
    """The members of the stratum at position i over xi, as row tuples,
    from a strip enumeration of that position alone."""
    return _strata_rows(xi.rows, -i)[0]


def objects_of(complex_):
    return [Partition(rows) for rows in complex_.objects]


def matrix_at(complex_, i, mu):
    """The differential out of position i at mu: the stored map, or the
    zero map between the listed components where the chain stores none."""
    chain = chain_at(complex_, mu)
    offset = i + complex_.depth
    zero = IntMatrix(len(chain.components[offset + 1]), len(chain.components[offset]))
    return chain.maps.get(offset, zero)


def with_chain(complex_, mu, chain):
    """``complex_`` with the chain at ``mu`` replaced."""
    chains = list(complex_.chains)
    chains[complex_.objects.index(mu.rows)] = chain
    return complex_._replace(chains=tuple(chains))


class TestStratum:
    def test_position_zero(self):
        assert stratum_rows(P(2, 1), 0) == [(2, 1)]

    def test_column_over_empty(self):
        assert stratum_rows(EMPTY, -3) == [(1, 1, 1)]

    def test_two_over_single_box(self):
        assert stratum_rows(P(1), -2) == [(2, 1), (1, 1, 1)]

    def test_one_over_staircase(self):
        assert stratum_rows(P(2, 1), -1) == [(3, 1), (2, 2), (2, 1, 1)]

    def test_members_are_vertical_strips(self):
        for xi in partitions_up_to(4):
            for i in range(-4, 1):
                for rows in stratum_rows(xi, i):
                    sk = skew_classify(xi.rows, rows)
                    assert sk.contained and sum(rows) - xi.size == -i and not sk.has_row_pair

    def test_completeness(self):
        # every vertical-strip extension shows up
        xi = P(2, 1)
        members = set(stratum_rows(xi, -2))
        for lam in partitions_of(xi.size + 2):
            sk = skew_classify(xi.rows, lam.rows)
            expected = sk.contained and not sk.has_row_pair
            assert (lam.rows in members) == expected

    def test_bound(self):
        # |xi| + depth is capped by max_partition_size (30), at any depth
        with pytest.raises(BoundExceededError, match="resolution size 31 "):
            build_resolution(EMPTY, 31)
        with pytest.raises(BoundExceededError, match="resolution size 31 "):
            betti_table(EMPTY, 31)
        assert build_resolution(EMPTY, 30).depth == 30
        assert len(betti_table(EMPTY, 30)) == len(partition_rows_up_to(30))

    def test_bound_follows_configured_size(self):
        bounds = Bounds(max_partition_size=4)
        with pytest.raises(BoundExceededError, match="resolution size 5 exceeds configured bound 4"):
            build_resolution(P(2, 1), 2, bounds)
        with pytest.raises(BoundExceededError, match="resolution size 5 exceeds configured bound 4"):
            betti_table(P(2, 1), 2, bounds)
        assert build_resolution(P(2, 1), 1, bounds).depth == 1


class TestBuild:
    def test_column_chain_from_empty(self):
        complex_ = build_resolution(EMPTY, 3)
        assert complex_.strata == (
            ((1, 1, 1),),
            ((1, 1),),
            ((1,),),
            ((),),
        )

    def test_summand_counts_single_box(self):
        complex_ = build_resolution(P(1), 2)
        assert [len(members) for members in complex_.strata] == [2, 2, 1]

    def test_first_term_is_addable_nodes(self):
        complex_ = build_resolution(P(2, 1), 1)
        assert complex_.strata[-1 + complex_.depth] == ((3, 1), (2, 2), (2, 1, 1))

    def test_hand_computed_matrices_at_one_object(self):
        # base (1), object (2,1): one diamond cancellation
        complex_ = build_resolution(P(1), 2)
        outgoing = matrix_at(complex_, -1, P(2, 1))
        incoming = matrix_at(complex_, -2, P(2, 1))
        assert outgoing.to_dense() == [[1, -1]]
        assert incoming.to_dense() == [[1], [1]]
        assert multiply(outgoing, incoming).is_zero()

    def test_presence_follows_hom(self):
        complex_ = build_resolution(P(1), 3)
        for offset, members in enumerate(complex_.strata):
            for mu in objects_of(complex_):
                present = components_at(complex_, offset - complex_.depth, mu)
                assert present == tuple(
                    lam for lam in map(Partition, members) if hom_dim_C(lam.rows, mu.rows) == 1
                )

    def test_entries_in_zero_plus_minus_one(self):
        complex_ = build_resolution(P(2), 4)
        for chain in complex_.chains:
            for matrix in chain.maps.values():
                assert matrix.entries
                assert all(v in (1, -1) for v in matrix.entries.values())


def slow_components(complex_):
    """Presence by the 0/1 hom space, probed for every member and object."""
    return {
        (offset - complex_.depth, mu): tuple(
            lam for lam in map(Partition, members) if hom_dim_C(lam.rows, mu.rows) == 1
        )
        for offset, members in enumerate(complex_.strata)
        for mu in objects_of(complex_)
    }


def slow_matrix(rows, cols):
    """Differential by testing every row/column pair for an arrow."""
    entries = {}
    for r, lam in enumerate(rows):
        for c, nu in enumerate(cols):
            if nu.size == lam.size + 1 and nu.contains(lam):
                entries[(r, c)] = arrow_sign(lam, nu)
    return IntMatrix(len(rows), len(cols), entries)


def slow_two_term_zero_cells(high, low):
    """Dense triple loop over every cell and every summand."""
    high_rows, low_rows = high.to_dense(), low.to_dense()
    count = 0
    for r in range(high.n_rows):
        for c in range(low.n_cols):
            terms = [
                high_rows[r][k] * low_rows[k][c]
                for k in range(high.n_cols)
                if high_rows[r][k] and low_rows[k][c]
            ]
            if len(terms) == 2 and sum(terms) == 0:
                count += 1
    return count


SMALL_COMPLEXES = [
    (xi, depth) for xi in partitions_up_to(4) for depth in range(1, 7)
]


def _horizontal_strip_extensions(rows: Rows, max_size: int) -> list[Rows]:
    """Row tuples of every mu of size at most ``max_size`` such that mu/lam
    is a horizontal strip, where lam has row tuple ``rows``: the interlacing
    mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... >= mu_(l+1) >= 0."""
    results: list[Rows] = []

    def rec(r: int, spare: int, acc: Rows) -> None:
        low = rows[r] if r < len(rows) else 0
        high = low + spare if r == 0 else min(rows[r - 1], low + spare)
        for value in range(low, high + 1):
            extended = acc + (value,) if value else acc
            if r < len(rows):
                rec(r + 1, spare - value + low, extended)
            else:
                results.append(extended)

    spare = max_size - sum(rows)
    if spare >= 0:
        rec(0, spare, ())
    return results


def _two_term_zero_cells(high: IntMatrix, low: IntMatrix) -> int:
    """Cells of high*low that receive exactly two nonzero terms, summing to
    zero."""
    low_by_row: dict[int, list[tuple[int, int]]] = {}
    for (k, c), y in low.entries.items():
        low_by_row.setdefault(k, []).append((c, y))
    terms: dict[tuple[int, int], list[int]] = {}
    for (r, k), x in high.entries.items():
        for c, y in low_by_row.get(k, ()):
            terms.setdefault((r, c), []).append(x * y)
    return sum(1 for cell in terms.values() if len(cell) == 2 and cell[0] + cell[1] == 0)


def strip_built_resolution(xi, depth):
    """The complex assembled member by member: every horizontal-strip
    extension of every stratum member, mapped back to its object through an
    index of the objects."""
    strata = tuple(map(tuple, _strata_rows(xi.rows, depth)))
    max_size = xi.size + depth
    objects = partition_rows_up_to(max_size)
    index = {rows: k for k, rows in enumerate(objects)}
    present = {}
    for offset, members in enumerate(strata):
        for number, lam in enumerate(members):
            for rows in _horizontal_strip_extensions(lam, max_size):
                cells = present.setdefault(index[rows], [[] for _ in strata])
                cells[offset].append(number)
    arrows = [_arrows_into(upper, lower) for upper, lower in zip(strata, strata[1:])]
    chains = []
    for k in range(len(objects)):
        cells = present.get(k, [[] for _ in strata])
        maps = {}
        for offset in range(depth):
            cols, rows = cells[offset], cells[offset + 1]
            entries = {
                (rows.index(lower), c): sign
                for c, number in enumerate(cols)
                for lower, sign in arrows[offset][number]
                if lower in rows
            }
            if entries:
                maps[offset] = IntMatrix(len(rows), len(cols), entries)
        chains.append(ObjectChain(tuple(map(tuple, cells)), maps))
    return GradedComplex(xi, depth, strata, tuple(objects), tuple(chains))


def assembly_mismatch(complex_):
    """None when ``complex_`` equals the strip-built complex field for
    field, else the first object whose chain differs, with both chains'
    components."""
    expected = strip_built_resolution(complex_.xi, complex_.depth)
    assert complex_._replace(chains=()) == expected._replace(chains=())
    for mu, chain, oracle in zip(complex_.objects, complex_.chains, expected.chains):
        if chain != oracle:
            return {
                "object": format_partition(mu),
                "components": chain.components,
                "expected": oracle.components,
            }
    assert len(complex_.chains) == len(expected.chains)
    return None


ROW_RULE_CASES = [(xi, depth) for xi in partitions_up_to(5) for depth in range(1, 9)] + [
    (P(5, 4, 3, 2, 1), 7)
]


class TestAssemblyOracle:
    """The row rule against the strip enumeration of every stratum member,
    and both against the hom_dim_C probe of every member at every object."""

    @pytest.mark.parametrize("xi, depth", SMALL_COMPLEXES)
    def test_components_and_matrices(self, xi, depth):
        complex_ = build_resolution(xi, depth)
        expected = slow_components(complex_)
        assert len(complex_.chains) == len(complex_.objects)
        for mu, chain in zip(objects_of(complex_), complex_.chains):
            assert tuple(
                components_at(complex_, i, mu) for i in range(-depth, 1)
            ) == tuple(expected[(i, mu)] for i in range(-depth, 1))
            assert set(chain.maps) <= set(range(depth))
            for offset in range(depth):
                i = offset - depth
                oracle = slow_matrix(expected[(i + 1, mu)], expected[(i, mu)])
                stored = chain.maps.get(offset)
                if stored is None:
                    # a map the chain leaves out is zero
                    assert oracle.is_zero()
                else:
                    assert not stored.is_zero()
                    assert (stored.n_rows, stored.n_cols) == (oracle.n_rows, oracle.n_cols)
                    assert stored == oracle

    @pytest.mark.parametrize("xi, depth", ROW_RULE_CASES)
    def test_row_rule_matches_strip_assembly(self, xi, depth):
        assert assembly_mismatch(build_resolution(xi, depth)) is None

    @pytest.mark.parametrize("lam", partitions_up_to(6))
    def test_horizontal_strips(self, lam):
        for max_size in range(9):
            found = _horizontal_strip_extensions(lam.rows, max_size)
            assert len(found) == len(set(found))
            assert sorted(found) == sorted(
                mu for mu in partition_rows_up_to(max_size) if hom_dim_C(lam.rows, mu) == 1
            )

    @pytest.mark.parametrize("xi, depth", SMALL_COMPLEXES)
    def test_diamond_count_matches_dense(self, xi, depth):
        complex_ = build_resolution(xi, depth)
        for mu in objects_of(complex_):
            for i in range(-depth, -1):
                low = matrix_at(complex_, i, mu)
                high = matrix_at(complex_, i + 1, mu)
                assert _two_term_zero_cells(high, low) == slow_two_term_zero_cells(high, low)

    @pytest.mark.parametrize("xi, depth", SMALL_COMPLEXES)
    def test_one_pass_matches_multiply(self, xi, depth):
        pairs = 0
        for chain in build_resolution(xi, depth).chains:
            for offset, low in chain.maps.items():
                high = chain.maps.get(offset + 1)
                if high is None:
                    continue
                nonzero, two_term_zeros = _compose(high, low)
                assert nonzero == multiply(high, low).entries
                assert two_term_zeros == slow_two_term_zero_cells(high, low)
                pairs += 1
        assert pairs or depth < 2 or xi == EMPTY

    def test_diamond_count_skips_three_term_cells(self):
        # cell (0,0) has three terms 1, -1, 1 (its first two cancel), cell
        # (0,1) two summing to 2, cell (0,2) two summing to zero, cells (1,0)
        # and (1,2) one term each
        high = IntMatrix.from_rows([[1, -1, 1], [0, 1, 0]])
        low = IntMatrix.from_rows([[1, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert slow_two_term_zero_cells(high, low) == 1
        assert _two_term_zero_cells(high, low) == 1
        assert _compose(high, low) == ({(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 2): 1}, 1)
        # one cell with four terms 1, 1, -1, -1: zero, but no diamond
        high = IntMatrix.from_rows([[1, 1, 1, 1]])
        low = IntMatrix.from_rows([[1], [1], [-1], [-1]])
        assert slow_two_term_zero_cells(high, low) == 0
        assert _compose(high, low) == ({}, 0)


class TestVerifyComplex:
    def test_empty_base_any_depth(self):
        for depth in (1, 3, 5):
            complex_ = build_resolution(EMPTY, depth)
            counts, first_failure = verify_complex(complex_)
            assert first_failure is None
            assert counts["products_checked"] == len(complex_.objects) * (depth - 1)

    def test_staircase_deep(self):
        counts, first_failure = verify_complex(build_resolution(P(2, 1), 6))
        assert first_failure is None
        assert counts["diamond_cancellations"] > 0

    def test_detects_wrong_signs(self):
        # corrupt one differential entry and watch the product survive
        complex_ = build_resolution(P(1), 2)
        chain = chain_at(complex_, P(2, 1))
        bad = chain.maps[1]
        maps = dict(chain.maps)
        maps[1] = IntMatrix(bad.n_rows, bad.n_cols, {(0, 0): 1, (0, 1): 1})
        broken = with_chain(complex_, P(2, 1), chain._replace(maps=maps))
        counts, first_failure = verify_complex(broken)
        assert first_failure == {
            "object": "2,1",
            "position": -2,
            "nonzero_entries": [[0, 0, "2"]],
        }
        # one product per object at depth 2, counted at all seven objects
        # although (2,1), the sixth, fails
        assert counts == {"products_checked": 7, "diamond_cancellations": 0}

    def test_multiplies_a_map_that_build_resolution_leaves_out(self):
        # build_resolution stores no map out of position -2 at object (2), whose
        # position -2 is empty; give it a component and a nonzero map there.
        # Both verifiers must use the stored map: the product is nonzero
        # and the rank into position -1 is 1.
        complex_ = build_resolution(P(1), 2)
        chain = chain_at(complex_, P(2))
        assert chain.components[0] == () and 0 not in chain.maps
        forged = ObjectChain(
            ((complex_.strata[0].index((2, 1)),),) + chain.components[1:],
            {0: IntMatrix(1, 1, {(0, 0): 1}), **chain.maps},
        )
        broken = with_chain(complex_, P(2), forged)
        assert verify_complex(broken)[1] == {
            "object": "2",
            "position": -2,
            "nonzero_entries": [[0, 0, "1"]],
        }
        assert verify_exactness(broken)[1] == {
            "object": "2",
            "position": -1,
            "dim": 1,
            "rank_out": 1,
            "rank_in": 1,
            "cohomology": -1,
            "expected": 0,
        }


    def test_forged_chain_reports_every_nonzero_cell(self):
        # the chain at (2,1), the first object with a member, replaced by a
        # forged one: of the product's three cells one cancels in two terms,
        # one sums to 2 and one has a single term
        complex_ = build_resolution(P(2, 1), 3)
        low = IntMatrix.from_rows([[1], [-1], [1]])
        high = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 0, 1]])
        forged = ObjectChain(((0,), (0, 1, 2), (0, 1, 2), (0,)), {0: low, 1: high})
        counts, first_failure = verify_complex(with_chain(complex_, P(2, 1), forged))
        assert first_failure == {
            "object": "2,1",
            "position": -3,
            "nonzero_entries": [[1, 0, "2"], [2, 0, "1"]],
        }
        # two products per object at depth 3, counted at all 30 objects
        # although (2,1), the sixth, fails: the forged chain cancels once,
        # the other objects 13 times
        assert counts == {"products_checked": 60, "diamond_cancellations": 14}


def test_each_verifier_checks_each_distinct_chain_once(monkeypatch):
    complex_ = build_resolution(P(2, 1), 6)
    distinct = len({id(chain) for chain in complex_.chains})
    assert distinct < len(complex_.chains)
    calls = {"_products_of": 0, "_homology_of": 0}

    def counted(name):
        check = getattr(resolution, name)

        def wrapped(chain):
            calls[name] += 1
            return check(chain)

        monkeypatch.setattr(resolution, name, wrapped)

    counted("_products_of")
    counted("_homology_of")
    assert verify_complex(complex_)[1] is None
    assert verify_exactness(complex_)[1] is None
    assert calls == {"_products_of": distinct, "_homology_of": distinct}


class TestVerifyExactness:
    def test_cohomology_at_base_object(self):
        complex_ = build_resolution(EMPTY, 3)
        assert verify_exactness(complex_)[1] is None
        assert len(components_at(complex_, 0, EMPTY)) == 1
        assert rank(matrix_at(complex_, -1, EMPTY)) == 0  # rank into position 0

    def test_forced_rank_at_two_row_object(self):
        # object (2) over base 0: positions -2,-1,0 contribute dims 0,1,1
        complex_ = build_resolution(EMPTY, 2)
        assert len(components_at(complex_, 0, P(2))) == 1
        assert len(components_at(complex_, -1, P(2))) == 1
        assert len(components_at(complex_, -2, P(2))) == 0
        assert verify_exactness(complex_)[1] is None
        assert rank(matrix_at(complex_, -1, P(2))) == 1

    def test_detects_broken_exactness(self):
        # leave out the differential out of position -2 at object (2,1): the
        # products still vanish, but position -2 there now has cohomology
        complex_ = build_resolution(P(1), 2)
        chain = chain_at(complex_, P(2, 1))
        dead = chain.maps[0]
        assert (dead.n_rows, dead.n_cols, rank(dead)) == (2, 1, 1)
        maps = {offset: m for offset, m in chain.maps.items() if offset != 0}
        broken = with_chain(complex_, P(2, 1), chain._replace(maps=maps))
        assert verify_complex(broken)[1] is None
        counts, first_failure = verify_exactness(broken)
        assert first_failure == {
            "object": "2,1",
            "position": -2,
            "dim": 1,
            "rank_out": 0,
            "rank_in": 0,
            "cohomology": 1,
            "expected": 0,
        }
        assert counts == {"objects_checked": 7, "positions_checked": 21}

    def test_empty_chain_at_the_base_still_fails(self):
        # with no component at the base, position 0 there has no cohomology
        complex_ = build_resolution(P(1), 2)
        nothing = ObjectChain(tuple(() for _ in complex_.strata), {})
        counts, first_failure = verify_exactness(with_chain(complex_, P(1), nothing))
        assert first_failure == {
            "object": "1",
            "position": 0,
            "dim": 0,
            "rank_out": 0,
            "rank_in": 0,
            "cohomology": 0,
            "expected": 1,
        }
        assert counts == {"objects_checked": 7, "positions_checked": 21}

    def test_objects_with_no_component_count_every_position(self):
        complex_ = build_resolution(P(2, 1), 3)
        empty = [chain for chain in complex_.chains if not any(chain.components)]
        assert empty
        counts, first_failure = verify_exactness(complex_)
        assert first_failure is None
        positions = len(complex_.objects) * (complex_.depth + 1)
        assert counts == {
            "objects_checked": len(complex_.objects),
            "positions_checked": positions,
        }

    def test_euler_alternating_sum(self):
        complex_ = build_resolution(P(1), 4)
        for mu in objects_of(complex_):
            euler = sum(
                (-1) ** (i % 2) * len(components_at(complex_, i, mu))
                for i in range(-complex_.depth, 1)
            )
            assert euler == (1 if mu == complex_.xi else 0)

    @pytest.mark.parametrize(
        "bases, depth",
        [(partitions_up_to(5), 8), ([P(5, 4, 3, 2, 1, 1, 1)], 13)],
        ids=["size-5-bases-depth-8", "5432111-depth-13"],
    )
    def test_cohomology_fixes_the_alternating_sum(self, bases, depth):
        def alternating(values):
            return sum((-1) ** offset * value for offset, value in enumerate(values))

        # the map out of position 0 is never stored, so the alternating sum
        # of cohomology telescopes to that of the dimensions: matching
        # cohomology leaves no independent Euler check
        for xi in bases:
            chains = {id(chain): chain for chain in build_resolution(xi, depth).chains}
            for chain in chains.values():
                assert max(chain.maps, default=-1) < depth
                homology = resolution._homology_of(chain)
                assert alternating(homology.cohomology) == alternating(homology.dims)

    def test_rank_identity_audit_trail(self):
        complex_ = build_resolution(P(2), 3)
        assert verify_exactness(complex_)[1] is None
        for mu in objects_of(complex_):
            ranks_out = [rank(matrix_at(complex_, i, mu)) for i in range(-3, 0)] + [0]
            for offset, i in enumerate(range(-3, 1)):
                dim = len(components_at(complex_, i, mu))
                rank_in = ranks_out[offset - 1] if offset else 0
                expected = 1 if i == 0 and mu == P(2) else 0
                assert dim - ranks_out[offset] - rank_in == expected

    def test_certificate_holds_no_per_object_data(self):
        cert = verify_resolution(P(2), 3)
        assert cert.passed
        assert cert.details is None

    @pytest.mark.parametrize("xi", [EMPTY, P(1), P(2), P(1, 1), P(2, 1), P(3, 1)])
    def test_full_battery(self, xi):
        assert verify_resolution(xi, 5).passed

    def test_beyond_default_ranges(self):
        # a larger base and a deeper truncation than the standard battery
        assert verify_resolution(P(3, 2, 1), 4).passed
        assert verify_resolution(P(1), 8).passed


class TestBettiTable:
    def test_single_column_strata_over_empty(self):
        table = betti_table(EMPTY, 4)
        for i in range(-4, 1):
            row = [lam for (j, lam), flag in table.items() if j == i and flag]
            assert row == [(1,) * -i]

    def test_stratum_row_sums(self):
        table = betti_table(P(1), 3)
        for i in range(-3, 1):
            total = sum(flag for (j, _), flag in table.items() if j == i)
            assert total == len(stratum_rows(P(1), i))

    def test_selected_rows(self):
        table = betti_table(P(1), 2)
        assert [lam for (i, lam), flag in table.items() if i == -2 and flag] == [
            (2, 1),
            (1, 1, 1),
        ]
        table2 = betti_table(P(3, 2), 1)
        assert [lam for (i, lam), flag in table2.items() if i == -1 and flag] == [
            (4, 2),
            (3, 3),
            (3, 2, 1),
        ]


def slow_betti_output(xi, depth, fmt):
    """``table betti`` as printed from the table built one position at a
    time, each stratum from its own strip enumeration as ``Partition``s."""
    table = {}
    for i in range(-depth, 1):
        members = set(map(Partition, stratum_rows(xi, i)))
        for lam in partitions_of(xi.size - i):
            table[(i, lam)] = 1 if lam in members else 0
    rows = [
        (f"{i}:{lam}", flag)
        for (i, lam), flag in sorted(table.items(), key=lambda kv: (-kv[0][0], kv[0][1].rows))
    ]
    if fmt == "json":
        return json.dumps({"target": "betti", "rows": rows}, indent=2)
    return "\n".join(f"{key}: {value}" for key, value in rows)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("xi, depth", [(xi, d) for xi in partitions_up_to(4) for d in range(7)])
def test_betti_output_matches_per_position_table(xi, depth, fmt, capsys):
    argv = ["table", "betti", "--xi", str(xi), "--depth", str(depth), "--format", fmt]
    assert main(argv) == 0
    assert capsys.readouterr().out == slow_betti_output(xi, depth, fmt) + "\n"


RESOLUTION_COMMANDS = pytest.mark.parametrize(
    "command", [("verify", "resolution"), ("table", "betti")], ids=["verify", "betti"]
)


@RESOLUTION_COMMANDS
@pytest.mark.parametrize("xi, depth", [("2,1", "28"), ("30", "1")])
def test_resolution_size_messages(command, xi, depth, capsys, monkeypatch):
    monkeypatch.delenv("YOUNGQUIVER_CONFIG", raising=False)
    assert main([*command, "--xi", xi, "--depth", depth]) == 2
    assert capsys.readouterr().err == "error: resolution size 31 exceeds configured bound 30\n"


@RESOLUTION_COMMANDS
def test_huge_depth_fails_before_any_strip(command, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("strips were listed before the size was checked")

    monkeypatch.delenv("YOUNGQUIVER_CONFIG", raising=False)
    monkeypatch.setattr(resolution, "strip_tops", no_work)
    start = time.perf_counter()
    assert main([*command, "--xi", "0", "--depth", "1000000000"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == "error: resolution size 1000000000 exceeds configured bound 30\n"


class TestAdmittedDepths:
    """Depths past 12, up to the size cap |xi| + depth = 30.  Every object
    up to size 30 is checked: positions depth + 1 and products depth - 1
    times each."""

    @pytest.mark.parametrize(
        "xi, depth", [(EMPTY, 30), (P(2, 1), 27), (P(5, 4, 3, 2, 1, 1, 1), 13)]
    )
    def test_closed_form_counts(self, xi, depth):
        certificate = verify_resolution(xi, depth)
        assert certificate.passed
        objects = 28_629
        assert len(partition_rows_up_to(30)) == objects
        assert certificate.counts["objects_checked"] == objects
        assert certificate.counts["positions_checked"] == objects * (depth + 1)
        assert certificate.counts["products_checked"] == objects * (depth - 1)

    def test_deepest_betti_row_sums(self, capsys):
        argv = ["table", "betti", "--xi", "0", "--depth", "30", "--format", "json"]
        assert main(argv) == 0
        sums: dict[int, int] = {}
        for key, flag in json.loads(capsys.readouterr().out)["rows"]:
            i = int(key.split(":")[0])
            sums[i] = sums.get(i, 0) + flag
        assert sums == {i: len(stratum_rows(EMPTY, i)) for i in range(-30, 1)}


def mirrored_matrix(complex_, i, mu):
    """Differential of the transposed-convention complex: strata transposed,
    presence by the row-relation homs, entries from the sign table evaluated
    on transposed arrows."""

    def present(stratum_index):
        return tuple(
            Partition(transpose(lam))
            for lam in complex_.strata[stratum_index + complex_.depth]
            if hom_dim_C(lam, mu.rows) == 1
        )

    rows = present(i + 1)
    cols = present(i)
    entries = {}
    for r, lam_t in enumerate(rows):
        for c, nu_t in enumerate(cols):
            if nu_t.size == lam_t.size + 1 and nu_t.contains(lam_t):
                entries[(r, c)] = arrow_sign(lam_t, nu_t)
    return IntMatrix(len(rows), len(cols), entries)


class TestTransposedMirror:
    """Transposing every diagram and re-reading signs off the transposed
    lattice must reproduce the support pattern and still square to zero."""

    @pytest.mark.parametrize("xi", partitions_up_to(3))
    def test_support_matches_and_squares_to_zero(self, xi):
        complex_ = build_resolution(xi, 4)
        for mu in objects_of(complex_):
            for i in range(-4, 0):
                original = matrix_at(complex_, i, mu)
                mirror = mirrored_matrix(complex_, i, mu)
                assert set(mirror.entries) == set(original.entries)
                assert all(v in (1, -1) for v in mirror.entries.values())
            for i in range(-4, -1):
                low = mirrored_matrix(complex_, i, mu)
                high = mirrored_matrix(complex_, i + 1, mu)
                assert multiply(high, low).is_zero()


BENCH_BASES = partitions_up_to(5)


class TestArrowSigns:
    """The prefix parity read in ``_arrows_into`` against ``arrow_sign`` on
    ``Partition``s, on every arrow between adjacent strata."""

    @pytest.mark.parametrize(
        "xi, depth", [(xi, 8) for xi in BENCH_BASES] + [(P(5, 4, 3, 2, 1, 1, 1, 1), 12)]
    )
    def test_prefix_parity_is_arrow_sign(self, xi, depth):
        strata = _strata_rows(xi.rows, depth)
        arrows_checked = 0
        for upper, lower in zip(strata, strata[1:]):
            for nu, found in zip(upper, _arrows_into(upper, lower)):
                for number, sign in found:
                    assert sign == arrow_sign(Partition(lower[number]), Partition(nu))
                    arrows_checked += 1
                # every member of lower that nu covers is found
                covered = [
                    number
                    for number, lam in enumerate(lower)
                    if Partition(nu).contains(Partition(lam))
                ]
                assert sorted(number for number, _ in found) == covered
        assert arrows_checked

    @pytest.mark.parametrize("xi", partitions_up_to(8))
    def test_strata_in_partitions_of_order(self, xi):
        # the vertical-strip filter of partitions_of keeps its reverse
        # lexicographic order
        depth = 4
        for offset, rows in enumerate(_strata_rows(xi.rows, depth)):
            expected = [
                lam.rows
                for lam in partitions_of(xi.size + depth - offset)
                if (sk := skew_classify(xi.rows, lam.rows)).contained and not sk.has_row_pair
            ]
            assert rows == expected
            # one position enumerated alone gives the same members
            assert stratum_rows(xi, offset - depth) == rows


def mutated_arrows(kind, call, member):
    """``_arrows_into`` with, on its ``call``-th call, the first arrow into
    ``member`` of the upper stratum sign-flipped or dropped."""
    calls = []

    def wrapped(upper, lower):
        arrows = _arrows_into(upper, lower)
        if len(calls) == call:
            (number, sign), *rest = arrows[member]
            arrows[member] = ([(number, -sign)] if kind == "flip" else []) + rest
        calls.append(call)
        return arrows

    return wrapped


def assert_one_extent(cert, depth):
    """A failing certificate's counts cover every object, products
    included: depth - 1 of them per object."""
    counts = cert.counts
    assert counts["products_checked"] == counts["objects_checked"] * (depth - 1)


class TestMutants:
    """Certificates of mutated differentials, recorded from the assembly on
    ``Partition``s with ``arrow_sign`` and the rational matrix."""

    def test_flipped_sign_fails_the_complex(self, monkeypatch):
        monkeypatch.setattr(resolution, "_arrows_into", mutated_arrows("flip", 1, 0))
        cert = verify_resolution(P(1), 4)
        assert_one_extent(cert, 4)
        assert cert.counts == {
            "objects_checked": 19,
            "positions_checked": 95,
            "products_checked": 57,
            "diamond_cancellations": 3,
        }
        assert cert.first_failure == {
            "check": "complex",
            "object": "2,1,1",
            "position": -3,
            "nonzero_entries": [[0, 0, "-2"]],
        }

    def test_dropped_arrow_fails_the_complex(self, monkeypatch):
        monkeypatch.setattr(resolution, "_arrows_into", mutated_arrows("drop", 1, 0))
        cert = verify_resolution(P(1), 4)
        assert_one_extent(cert, 4)
        assert cert.counts == {
            "objects_checked": 19,
            "positions_checked": 95,
            "products_checked": 57,
            "diamond_cancellations": 3,
        }
        assert cert.first_failure == {
            "check": "complex",
            "object": "2,1,1",
            "position": -3,
            "nonzero_entries": [[0, 0, "-1"]],
        }

    def test_dropped_arrow_fails_exactness(self, monkeypatch):
        # the dropped arrow leaves the deepest position, where no product
        # can see it
        monkeypatch.setattr(resolution, "_arrows_into", mutated_arrows("drop", 0, 1))
        cert = verify_resolution(P(1), 4)
        assert_one_extent(cert, 4)
        assert cert.counts == {
            "objects_checked": 19,
            "positions_checked": 95,
            "products_checked": 57,
            "diamond_cancellations": 6,
        }
        assert cert.first_failure == {
            "check": "exactness",
            "object": "1,1,1,1,1",
            "position": -4,
            "dim": 1,
            "rank_out": 0,
            "rank_in": 0,
            "cohomology": 1,
            "expected": 0,
        }

    def test_reversed_strata_fail_exactness(self, monkeypatch):
        # position -depth then holds the base itself, generated in the
        # wrong internal degree: the base object's chain has one component
        # there and no map in or out
        original = resolution._strata_rows
        monkeypatch.setattr(resolution, "_strata_rows", lambda *args: original(*args)[::-1])
        for xi, depth in [(P(1), 3), (P(2, 1), 4), (EMPTY, 5), (P(3, 1), 2)]:
            cert = verify_resolution(xi, depth)
            assert cert.first_failure == {
                "check": "exactness",
                "object": format_partition(xi.rows),
                "position": -depth,
                "dim": 1,
                "rank_out": 0,
                "rank_in": 0,
                "cohomology": 1,
                "expected": 0,
            }


def mutated_members(kind):
    """``_members_at`` with, at every object with two or more members, the
    xi_r + 1 option of the first free row dropped (``"drop"``), or xi added
    where it is not a member (``"add"``)."""

    def wrapped(xi, mu):
        members = _members_at(xi, mu)
        if kind == "drop" and len(members) > 1:
            # the product varies the first free row slowest, larger option
            # first: the members taking xi_r + 1 there are the first half
            return members[len(members) // 2 :]
        if kind == "add" and members and xi not in members:
            return members + [xi]
        return members

    return wrapped


class TestRowRuleMutants:
    """A wrong row rule fails the verifier and the strip-built assembly,
    each at the object recorded here."""

    def test_dropped_option_fails_exactness(self, monkeypatch):
        monkeypatch.setattr(resolution, "_members_at", mutated_members("drop"))
        xi = P(2, 1)
        cert = verify_resolution(xi, 3)
        assert_one_extent(cert, 3)
        assert cert.first_failure == {
            "check": "exactness",
            "object": "3,1",
            "position": 0,
            "dim": 1,
            "rank_out": 0,
            "rank_in": 0,
            "cohomology": 1,
            "expected": 0,
        }
        assert assembly_mismatch(build_resolution(xi, 3)) == {
            "object": "3,1",
            "components": ((), (), (), (0,)),
            "expected": ((), (), (0,), (0,)),
        }

    def test_added_member_fails_the_complex(self, monkeypatch):
        monkeypatch.setattr(resolution, "_members_at", mutated_members("add"))
        xi = P(2, 1)
        cert = verify_resolution(xi, 3)
        assert_one_extent(cert, 3)
        assert cert.first_failure == {
            "check": "complex",
            "object": "2,1,1,1",
            "position": -2,
            "nonzero_entries": [[0, 0, "-1"]],
        }
        assert assembly_mismatch(build_resolution(xi, 3)) == {
            "object": "2,1,1,1",
            "components": ((), (3,), (2,), (0,)),
            "expected": ((), (3,), (2,), ()),
        }


def per_object_complex(complex_):
    """``verify_complex`` without sharing: every object's products formed
    afresh.  (counts, first_failure) in the order and with the locator that
    ``verify_complex`` returns: the counts cover every object, and the
    locator is the first failing one."""
    depth = complex_.depth
    counts = {"products_checked": 0, "diamond_cancellations": 0}
    first_failure = None
    for mu, chain in zip(complex_.objects, complex_.chains):
        counts["products_checked"] += depth - 1
        for offset, low in sorted(chain.maps.items()):
            high = chain.maps.get(offset + 1)
            if high is None:
                continue
            nonzero, two_term_zeros = _compose(high, low)
            counts["diamond_cancellations"] += two_term_zeros
            if nonzero and first_failure is None:
                first_failure = {
                    "object": format_partition(mu),
                    "position": offset - depth,
                    "nonzero_entries": sorted(
                        [list(key) + [str(val)] for key, val in nonzero.items()]
                    ),
                }
    return counts, first_failure


def per_object_exactness(complex_):
    """``verify_exactness`` without sharing: ranks, cohomology and Euler
    number recomputed at every object."""
    depth = complex_.depth
    positions_checked = 0
    first_failure = None
    for mu, chain in zip(complex_.objects, complex_.chains):
        at_base = mu == complex_.xi.rows
        dims = [len(cell) for cell in chain.components]
        positions_checked += len(dims)
        ranks_out = [0] * (depth + 1)
        for offset, matrix in chain.maps.items():
            ranks_out[offset] = rank(matrix)
        for offset, dim in enumerate(dims):
            position = offset - depth
            rank_in = ranks_out[offset - 1] if offset else 0
            expected = 1 if position == 0 and at_base else 0
            cohomology = dim - ranks_out[offset] - rank_in
            if cohomology != expected and first_failure is None:
                first_failure = {
                    "object": format_partition(mu),
                    "position": position,
                    "dim": dim,
                    "rank_out": ranks_out[offset],
                    "rank_in": rank_in,
                    "cohomology": cohomology,
                    "expected": expected,
                }
        euler = (-1) ** depth * (sum(dims[::2]) - sum(dims[1::2]))
        expected_euler = 1 if at_base else 0
        if euler != expected_euler and first_failure is None:
            first_failure = {
                "object": format_partition(mu),
                "check": "euler",
                "value": euler,
                "expected": expected_euler,
            }
    counts = {"objects_checked": len(complex_.objects), "positions_checked": positions_checked}
    return counts, first_failure


def assert_matches_per_object(complex_):
    for verify, oracle in (
        (verify_complex, per_object_complex),
        (verify_exactness, per_object_exactness),
    ):
        assert verify(complex_) == oracle(complex_)


class TestSharedChains:
    """Objects with the same members share one chain, which each verifier
    checks once; the per-object loops above are the oracle."""

    @pytest.mark.parametrize("xi", BENCH_BASES)
    def test_shared_path_matches_per_object_loops(self, xi):
        assert_matches_per_object(build_resolution(xi, 8))

    @pytest.mark.parametrize("kind", ["drop", "add"])
    def test_row_rule_mutants_match_per_object_loops(self, kind, monkeypatch):
        monkeypatch.setattr(resolution, "_members_at", mutated_members(kind))
        complex_ = build_resolution(P(2, 1), 3)
        assert not verify_resolution(P(2, 1), 3).passed
        assert_matches_per_object(complex_)

    def test_equal_members_share_one_chain(self):
        complex_ = build_resolution(P(1), 4)
        assert _members_at((1,), (2, 1)) == _members_at((1,), (3, 1))
        assert chain_at(complex_, P(2, 1)) is chain_at(complex_, P(3, 1))
        assert _members_at((1,), (2, 1)) != _members_at((1,), (2, 2))
        assert chain_at(complex_, P(2, 1)) is not chain_at(complex_, P(2, 2))
        # every object without members holds the one empty chain
        empty = {id(chain) for chain in complex_.chains if not any(chain.components)}
        assert len(empty) == 1

    def test_bench_sweep_chain_count(self):
        nonempty = distinct = 0
        for xi in BENCH_BASES:
            complex_ = build_resolution(xi, 8)
            chains = [chain for chain in complex_.chains if any(chain.components)]
            nonempty += len(chains)
            distinct += len({id(chain) for chain in chains})
            by_members = {}
            for mu, chain in zip(complex_.objects, complex_.chains):
                members = tuple(_members_at(xi.rows, mu))
                assert by_members.setdefault(members, chain) is chain
            assert len(by_members) == len({id(chain) for chain in complex_.chains})
        assert (nonempty, distinct) == (2505, 768)

    def test_forged_object_fails_alone(self):
        # (2,1), (3,1) and (4,1) share one chain over (1) at depth 4; a forged
        # chain at (3,1) fails there, and the earlier (2,1) still passes
        complex_ = build_resolution(P(1), 4)
        shared = chain_at(complex_, P(3, 1))
        assert chain_at(complex_, P(2, 1)) is shared is chain_at(complex_, P(4, 1))
        assert shared.maps[3].entries == {(0, 0): 1, (0, 1): -1}

        flipped = dict(shared.maps)
        flipped[3] = IntMatrix(1, 2, {(0, 0): 1, (0, 1): 1})
        broken = with_chain(complex_, P(3, 1), shared._replace(maps=flipped))
        assert verify_complex(broken)[1] == {
            "object": "3,1",
            "position": -2,
            "nonzero_entries": [[0, 0, "2"]],
        }
        assert_matches_per_object(broken)

        dropped = {offset: m for offset, m in shared.maps.items() if offset != 3}
        broken = with_chain(complex_, P(3, 1), shared._replace(maps=dropped))
        assert verify_complex(broken)[1] is None
        assert verify_exactness(broken)[1] == {
            "object": "3,1",
            "position": -1,
            "dim": 2,
            "rank_out": 0,
            "rank_in": 1,
            "cohomology": 1,
            "expected": 0,
        }
        assert_matches_per_object(broken)

        # an equal copy is another object, checked again, and passes
        copy = shared._replace()
        assert copy == shared and copy is not shared
        unchanged = with_chain(complex_, P(3, 1), copy)
        assert verify_complex(unchanged)[1] is None
        assert verify_exactness(unchanged)[1] is None
        assert_matches_per_object(unchanged)

    def test_dump_lists_every_object_of_a_shared_chain(self):
        xi, depth = P(2, 1), 5
        complex_ = build_resolution(xi, depth)
        matrices = verify_resolution(xi, depth, dump_matrices=True).details["matrices"]
        expected = {}
        shared_entries = 0
        first_holder = {}
        for mu, chain in zip(complex_.objects, complex_.chains):
            holder = first_holder.setdefault(id(chain), mu)
            for offset in chain.maps:
                members = [
                    [Partition(complex_.strata[k][n]) for n in chain.components[k]]
                    for k in (offset + 1, offset)
                ]
                expected[f"{offset - depth}@{format_partition(mu)}"] = slow_matrix(
                    *members
                ).to_text()
                shared_entries += holder != mu
        assert shared_entries
        assert len(matrices) == len(expected)
        assert matrices == expected


# verify resolution --xi 1 --depth 3 --dump-matrices --format json, as
# printed by the assembly on Partitions with the rational matrix
DUMP_XI_1_DEPTH_3 = {
    "schema_version": 3,
    "tool_version": "0.1.0",
    "command": "verify resolution",
    "parameters": {"xi": "1", "depth": 3},
    "verdict": "pass",
    "counts": {
        "objects_checked": 12,
        "positions_checked": 48,
        "products_checked": 24,
        "diamond_cancellations": 3,
    },
    "first_failure": None,
    "details": {
        "matrices": {
            "-3@1,1,1,1": "1 1 1\n1 1 -1",
            "-3@2,1,1": "2 1 2\n1 1 -1\n2 1 1",
            "-2@1,1,1": "1 1 1\n1 1 1",
            "-2@2,1": "2 1 2\n1 1 1\n2 1 1",
            "-2@2,1,1": "1 2 2\n1 1 1\n1 2 1",
            "-2@2,2": "1 1 1\n1 1 1",
            "-2@3,1": "2 1 2\n1 1 1\n2 1 1",
            "-1@1,1": "1 1 1\n1 1 -1",
            "-1@2": "1 1 1\n1 1 1",
            "-1@2,1": "1 2 2\n1 1 1\n1 2 -1",
            "-1@3": "1 1 1\n1 1 1",
            "-1@3,1": "1 2 2\n1 1 1\n1 2 -1",
            "-1@4": "1 1 1\n1 1 1",
        },
    },
    "elapsed_ms": 0,
}


def test_matrix_dump_is_unchanged(capsys):
    argv = "verify resolution --xi 1 --depth 3 --dump-matrices --format json".split()
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    zeroed = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    # byte for byte, key order included
    assert zeroed == json.dumps(DUMP_XI_1_DEPTH_3, indent=2) + "\n"


@pytest.mark.parametrize("xi", BENCH_BASES)
def test_bench_gate_counts(xi):
    """The counts the benchmark gate demands of each base at depth 8, so a
    drift fails the suite before it fails the benchmark."""
    workloads = load_bench_workloads()
    depth = workloads.RESOLUTION_DEPTH
    assert (workloads.RESOLUTION_MAX_BASE, depth) == (5, 8)
    cert = verify_resolution(xi, depth)
    assert cert.passed
    assert cert.counts == workloads.expected_resolution(xi.rows, depth)
