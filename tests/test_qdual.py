import random

import pytest

from youngquiver import qdual
from youngquiver.config import DEFAULT_BOUNDS, BoundExceededError
from youngquiver.partitions import (
    contains,
    format_partition,
    partition_rows,
    partition_rows_up_to,
    skew_classify,
    strip_tops,
    transpose,
)
from youngquiver.qdual import (
    RelationSpace,
    _first_dimension_failure,
    build_quadratic_dual,
    dual_hom_dim,
    verify_lattice_dual,
    verify_quadratic_duality,
    verify_self_duality,
)
from youngquiver.quiver import hom_dim_C, hom_dim_Cprime_mod_J

from oracles import (
    chain_dim_bareiss,
    chain_rows,
    kernel_basis,
    load_bench_workloads,
    path_count_relation_dimension,
    saturated_chains,
    two_term_corank,
    widened,
    with_relation_spaces,
)

def subdiagrams(lam):
    return [mu for mu in partition_rows_up_to(sum(lam)) if contains(lam, mu)]


def annihilator_presentation(presentation):
    """The presentation whose relation spaces are the annihilators of the
    given ones: quadratic duality applied once more, on the relations."""
    relations = {
        pair: RelationSpace(rel.mids, tuple(kernel_basis(rel.vectors, len(rel.mids))))
        for pair, rel in presentation.relations.items()
    }
    return with_relation_spaces(presentation, relations)


def chain_dim_union_find(mu, lam, presentation):
    """The chain oracle: paths modulo the ideal, ranked by the signed
    union-find (every relation vector of the real presentations has at most
    two terms)."""
    return two_term_corank(*chain_rows(mu, lam, presentation))


def with_relations(presentation, changed):
    """The presentation with the relation spaces of some pairs replaced."""
    return with_relation_spaces(presentation, {**presentation.relations, **changed})


def dense_first_failure(presentation, expected_dim, check, expected_key):
    """The dense expected side: every pair |mu| <= |lam|, scanned lam, then
    mu, in object order, with ``expected_dim`` of the transposed pair from
    ``skew_classify``; returns the pairs checked and the first mismatch."""
    transposed = {p: transpose(p) for p in presentation.objects}
    pairs_checked = 0
    for lam in presentation.objects:
        for mu in presentation.objects:
            if sum(mu) > sum(lam):
                break
            computed = presentation.walk(mu).get(lam, 0)
            expected = expected_dim(transposed[mu], transposed[lam])
            pairs_checked += 1
            if computed != expected:
                return pairs_checked, {
                    "check": check,
                    "pair": [format_partition(mu), format_partition(lam)],
                    "dual_dim": computed,
                    expected_key: expected,
                }
    return pairs_checked, None


# the expected sides of verify_self_duality and verify_lattice_dual: the rook
# flag of the strip enumeration and the dense oracle's hom dimension
EXPECTED_SIDES = {
    "vertical": (False, hom_dim_C, "dimension", "transposed_hom_dim"),
    "rook": (True, hom_dim_Cprime_mod_J, "lattice_dual_dimension", "expected"),
}


def both_expected_sides(presentation, side):
    rook, expected_dim, check, expected_key = EXPECTED_SIDES[side]
    return (
        _first_dimension_failure(presentation, rook, check, expected_key),
        dense_first_failure(presentation, expected_dim, check, expected_key),
    )


@pytest.fixture(scope="module")
def presentation():
    return build_quadratic_dual(7)


@pytest.fixture(scope="module")
def lattice_presentation():
    return build_quadratic_dual(7, of_lattice=True)


@pytest.fixture(scope="module")
def presentation8():
    return build_quadratic_dual(8)


class TestRelationSpaces:
    def test_column_pair_no_relation(self, presentation):
        rel = presentation.relations[((1,), (1, 1, 1))]
        assert len(rel.mids) == 1 and rel.vectors == ()

    def test_row_pair_full_relation(self, presentation):
        rel = presentation.relations[((1,), (3,))]
        assert len(rel.mids) == 1 and rel.vectors == ((1,),)

    def test_diamond_anticommutativity_line(self, presentation):
        rel = presentation.relations[((1,), (2, 1))]
        assert len(rel.mids) == 2 and len(rel.vectors) == 1
        (vector,) = rel.vectors
        assert vector[0] == vector[1] != 0  # the sum of the two dual paths

    def test_three_case_table_everywhere(self, presentation):
        for (mu, lam), rel in presentation.relations.items():
            sk = skew_classify(mu, lam)
            if sk.has_column_pair:
                assert len(rel.mids) == 1 and rel.vectors == ()
            elif sk.has_row_pair:
                assert len(rel.mids) == 1 and rel.vectors == ((1,),)
            else:
                assert len(rel.mids) == 2 and rel.vectors == ((1, 1),)

    @pytest.mark.parametrize("of_lattice", [False, True])
    def test_expected_dimension_matches_path_count_through_size_ten(self, of_lattice):
        # every contained pair two nodes apart is a relation pair
        relations = build_quadratic_dual(10, of_lattice=of_lattice).relations
        assert len(relations) == 410
        for mu, lam in relations:
            expected = qdual._expected_relations(mu, lam)
            assert len(expected) == path_count_relation_dimension(mu, lam)
            assert all(len(row) == len(saturated_chains(mu, lam)) for row in expected)

    def test_one_table_through_size_ten(self):
        # both presentations: the keys of an independent row-tuple scan, lam
        # then mu, and as mids the middle diagrams of the chains across each
        # pair, top row first
        keys = [
            (mu, lam)
            for lam in partition_rows_up_to(10)
            if sum(lam) >= 2
            for mu in partition_rows(sum(lam) - 2)
            if contains(lam, mu)
        ]
        assert len(keys) == 410
        tables = [build_quadratic_dual(10, of_lattice=flag).relations for flag in (False, True)]
        assert [list(table) for table in tables] == [keys, keys]
        for pair in keys:
            mids = tuple(chain[1] for chain in saturated_chains(*pair))
            assert [table[pair].mids for table in tables] == [mids, mids], pair

    def test_lattice_relations_always_full_image(self, lattice_presentation):
        for rel in lattice_presentation.relations.values():
            assert rel.vectors == ((1,) * len(rel.mids),)

    @pytest.mark.parametrize("of_lattice", [False, True])
    def test_relations_have_at_most_two_terms(self, of_lattice):
        # the chain oracle ranks relation rows with the union-find, which
        # takes rows with at most two terms
        presentation = build_quadratic_dual(8, of_lattice=of_lattice)
        for side in (presentation, annihilator_presentation(presentation)):
            for rel in side.relations.values():
                assert len(rel.mids) <= 2
                for vector in rel.vectors:
                    assert sum(1 for coeff in vector if coeff) <= 2


class TestDualHomDimensions:
    def test_identity(self, presentation):
        assert dual_hom_dim((2, 1), (2, 1), presentation) == 1

    def test_degree_two_cases(self, presentation):
        assert dual_hom_dim((1,), (1, 1, 1), presentation) == 1
        assert dual_hom_dim((1,), (3,), presentation) == 0
        assert dual_hom_dim((1,), (2, 1), presentation) == 1

    def test_degree_three_with_row_pair(self, presentation):
        # (2,2)\(1) holds a same-row pair in row 2, so the dual hom dies;
        # the transposed-category side computes the same answer independently
        computed = dual_hom_dim((1,), (2, 2), presentation)
        assert computed == hom_dim_C(transpose((1,)), transpose((2, 2)))
        assert computed == 0

    def test_row_strip_target(self, presentation):
        assert dual_hom_dim((2,), (4,), presentation) == 0
        assert dual_hom_dim((1,), (1, 1, 1, 1), presentation) == 1

    def test_not_contained(self, presentation):
        assert dual_hom_dim((2,), (1, 1), presentation) == 0

    def test_bound(self, presentation):
        with pytest.raises(BoundExceededError):
            dual_hom_dim((1,), (8,), presentation)
        with pytest.raises(BoundExceededError):
            build_quadratic_dual(DEFAULT_BOUNDS.max_qdual_size + 1)

    def test_closed_form_vertical_strips(self, presentation):
        # computed from paths-modulo-relations; compared against the strip rule
        for lam in partition_rows_up_to(6):
            for mu in subdiagrams(lam):
                sk = skew_classify(mu, lam)
                expected = 0 if sk.has_row_pair else 1
                assert dual_hom_dim(mu, lam, presentation) == expected


class TestChainOracle:
    @pytest.mark.parametrize("of_lattice", [False, True])
    def test_walk_matches_chains_through_size_nine(self, of_lattice):
        presentation = build_quadratic_dual(9, of_lattice=of_lattice)
        pairs = 0
        for lam in partition_rows_up_to(9):
            for mu in partition_rows_up_to(sum(lam)):
                pairs += 1
                assert dual_hom_dim(mu, lam, presentation) == chain_dim_union_find(
                    mu, lam, presentation
                ), (mu, lam)
        assert pairs == 5614

    @pytest.mark.parametrize("of_lattice", [False, True])
    @pytest.mark.parametrize(
        "vectors, largest",
        [
            (((3, 5, -1),), 1),  # one rescaled three-term line
            (((3, 5, -1), (1, 2, -1)), 1),  # kills both paths of every diamond
            ((), 6),  # no diamond relation: dimensions above 1
            (((1, 0, 0),), 1),  # a zero coefficient: only the left path dies
        ],
    )
    def test_widened_relations_match_bareiss(self, of_lattice, vectors, largest):
        presentation = widened(build_quadratic_dual(6, of_lattice=of_lattice), vectors)
        dims = [
            (dual_hom_dim(mu, lam, presentation), chain_dim_bareiss(mu, lam, presentation))
            for lam in partition_rows_up_to(6)
            for mu in subdiagrams(lam)
        ]
        assert all(walked == oracle for walked, oracle in dims)
        assert max(walked for walked, _ in dims) >= largest

    def test_walk_is_memoized_per_bottom(self, presentation):
        first = presentation.walk((1,))
        assert presentation.walk((1,)) is first
        assert set(first) == {
            lam for lam in partition_rows_up_to(7) if dual_hom_dim((1,), lam, presentation)
        }


class TestStripExpectedSide:
    @pytest.mark.parametrize("rook", [False, True])
    def test_strip_tops_match_skew_classify_through_size_ten(self, rook):
        objects = partition_rows_up_to(10)
        for mu in objects:
            expected = set()
            for lam in objects:
                sk = skew_classify(mu, lam)
                if sk.contained and not sk.has_row_pair and not (rook and sk.has_column_pair):
                    expected.add(lam)
            tops = strip_tops(mu, 10, rook)
            assert len(tops) == len(expected) and set(tops) == expected, mu

    @pytest.mark.parametrize("of_lattice", [False, True])
    @pytest.mark.parametrize("side", ["vertical", "rook"])
    def test_matches_dense_scan_through_size_ten(self, of_lattice, side):
        # the presentation checked against the other side's rule fails,
        # which exercises the failure locator on every size
        passing = of_lattice == (side == "rook")
        for max_size in range(11):
            presentation = build_quadratic_dual(max_size, of_lattice=of_lattice)
            strips, dense = both_expected_sides(presentation, side)
            assert strips == dense, max_size
            assert (strips[1] is None) == (passing or max_size < 2)

    @pytest.mark.parametrize("of_lattice", [False, True])
    def test_mutants_match_dense_scan(self, of_lattice):
        base = build_quadratic_dual(7, of_lattice=of_lattice)
        side = "rook" if of_lattice else "vertical"
        rng = random.Random("strip-expected-side")
        full = [pair for pair, rel in base.relations.items() if rel.vectors]
        diamonds = [pair for pair in full if len(base.relations[pair].mids) == 2]
        dropped = [
            with_relations(base, {pair: RelationSpace(base.relations[pair].mids, ())})
            for pair in rng.sample(full, 8)
        ]
        # some of these pass: a sign can often be absorbed into a generator
        differences = [
            with_relations(base, {pair: RelationSpace(base.relations[pair].mids, ((1, -1),))})
            for pair in rng.sample(diamonds, 8)
        ]
        others = [widened(base), widened(base, ()), annihilator_presentation(base)]
        failed = []
        for mutant in dropped + differences + others:
            strips, dense = both_expected_sides(mutant, side)
            assert strips == dense
            failed.append(strips[1] is not None)
        assert all(failed[:8]) and any(failed[8:16]) and failed[16:] == [False, True, True]


class TestSelfDuality:
    def test_certificate_passes(self):
        counts, first_failure = verify_self_duality(6)
        assert first_failure is None
        assert counts["pairs_checked"] > 0
        assert counts["diamonds_checked"] > 0
        assert counts["relation_pairs_checked"] > 0

    def test_trivial_range(self):
        counts, first_failure = verify_self_duality(2)
        assert first_failure is None
        assert counts["pairs_checked"] > 0

    def test_sign_twist_locator(self, monkeypatch):
        # the arrow-sign products of every diamond made to commute: the
        # presentation is untouched, the twisted difference leaves its span
        original = qdual.path_signs

        def commuting(bottom, r1, r2):
            left, right = original(bottom, r1, r2)
            return left, -right

        monkeypatch.setattr(qdual, "path_signs", commuting)
        counts, first_failure = verify_self_duality(7)
        assert counts == {
            "pairs_checked": 1230,
            "relation_pairs_checked": 90,
            "diamonds_checked": 1,
        }
        assert first_failure == {
            "check": "sign_twist",
            "diamond": ["1", "1,1", "2", "2,1"],
            "signs": [-1, -1],
        }

    def test_anticommuting_c_diamond_fails_relation_cases(self, monkeypatch):
        # C's diamonds made to anticommute: the dual's relation becomes the
        # difference of the two paths, a sign every dimension absorbs
        original = qdual._c_relations

        def anticommuting(mu, lam, n_paths, of_lattice):
            return ((1, 1),) if n_paths == 2 else original(mu, lam, n_paths, of_lattice)

        monkeypatch.setattr(qdual, "_c_relations", anticommuting)
        counts, first_failure = verify_self_duality(7)
        assert counts == {
            "pairs_checked": 1230,
            "relation_pairs_checked": 8,
            "diamonds_checked": 0,
        }
        assert first_failure == {
            "check": "relation_cases",
            "pair": ["1", "2,1"],
            "vectors": [[-1, 1]],
            "expected": [[1, 1]],
        }

    @pytest.mark.parametrize(
        "pair,relation_pairs",
        [(((1,), (2, 1)), 8), (((2,), (3, 1)), 33)],
    )
    def test_relation_cases_locator(self, monkeypatch, presentation, pair, relation_pairs):
        # a diamond's relation made the difference of its two paths: every
        # dimension survives, the span is not the table's
        mutant = with_relations(
            presentation, {pair: RelationSpace(presentation.relations[pair].mids, ((1, -1),))}
        )
        monkeypatch.setattr(qdual, "build_quadratic_dual", lambda *args, **kwargs: mutant)
        counts, first_failure = verify_self_duality(7)
        assert counts == {
            "pairs_checked": 1230,
            "relation_pairs_checked": relation_pairs,
            "diamonds_checked": 0,
        }
        assert first_failure == {
            "check": "relation_cases",
            "pair": [format_partition(pair[0]), format_partition(pair[1])],
            "vectors": [[1, -1]],
            "expected": [[1, 1]],
        }

    @pytest.mark.parametrize(
        "pair,vectors",
        [
            # a column pair given a zero vector, which the walk drops too
            (((1,), (1, 1, 1)), ((0,),)),
            # a diamond given a second, zero vector
            (((1,), (2, 1)), ((1, 1), (0, 0))),
        ],
    )
    def test_zero_vectors_add_no_relation(self, monkeypatch, presentation, pair, vectors):
        # the relation table compares spans, and a zero vector spans nothing
        mutant = with_relations(
            presentation, {pair: RelationSpace(presentation.relations[pair].mids, vectors)}
        )
        monkeypatch.setattr(qdual, "build_quadratic_dual", lambda *args, **kwargs: mutant)
        assert verify_self_duality(7) == (
            {"pairs_checked": 1230, "relation_pairs_checked": 90, "diamonds_checked": 34},
            None,
        )

    def test_three_term_relations_get_a_verdict(self, monkeypatch, presentation):
        # a three-term line over (left, right, left) is 2 left + 5 right: it
        # keeps every dimension, and the relation table compares its span
        # over the two distinct mids
        mutant = widened(presentation)
        monkeypatch.setattr(qdual, "build_quadratic_dual", lambda *args, **kwargs: mutant)
        counts, first_failure = verify_self_duality(7)
        assert counts["relation_pairs_checked"] == 8
        assert first_failure == {
            "check": "relation_cases",
            "pair": ["1", "2,1"],
            "vectors": [[2, 5]],
            "expected": [[1, 1]],
        }

    def test_repeated_mid_is_one_column(self, monkeypatch, presentation):
        # over (left, right, left) the vector (0, 1, 1) is left + right, the
        # anticommutativity line itself: the twist reads its mids from the
        # relation space, so the repeated left mid is one column and passes
        mutant = widened(presentation, ((0, 1, 1),))
        monkeypatch.setattr(qdual, "build_quadratic_dual", lambda *args, **kwargs: mutant)
        assert verify_self_duality(7) == (
            {"pairs_checked": 1230, "relation_pairs_checked": 90, "diamonds_checked": 34},
            None,
        )

    def test_dimension_match_exhaustive(self, presentation):
        for lam in partition_rows_up_to(7):
            for mu in partition_rows_up_to(sum(lam)):
                assert dual_hom_dim(mu, lam, presentation) == hom_dim_C(
                    transpose(mu), transpose(lam)
                )


class TestLatticeDual:
    def test_certificate_passes(self):
        counts, first_failure = verify_lattice_dual(6)
        assert first_failure is None
        assert counts["lattice_pairs_checked"] > 0

    def test_examples(self, lattice_presentation):
        assert dual_hom_dim((1,), (2, 1), lattice_presentation) == 1
        assert dual_hom_dim((1,), (3,), lattice_presentation) == 0
        assert dual_hom_dim((1,), (1, 1, 1), lattice_presentation) == 0

    def test_lattice_dual_dimension_locator(self, monkeypatch):
        # a column pair's path killed in the incidence category too: the
        # lattice dual then has C^!'s dimensions, which are not rook strips
        original = qdual._c_relations
        monkeypatch.setattr(
            qdual, "_c_relations", lambda mu, lam, n_paths, _: original(mu, lam, n_paths, False)
        )
        assert verify_lattice_dual(7) == (
            {"lattice_pairs_checked": 8},
            {
                "check": "lattice_dual_dimension",
                "pair": ["0", "1,1"],
                "dual_dim": 1,
                "expected": 0,
            },
        )

    def test_rook_strip_rule(self, lattice_presentation):
        for lam in partition_rows_up_to(6):
            for mu in subdiagrams(lam):
                assert dual_hom_dim(mu, lam, lattice_presentation) == (
                    hom_dim_Cprime_mod_J(transpose(mu), transpose(lam))
                )


class TestBeyondDefaultRange:
    def test_full_sweep_at_size_eight(self, presentation8):
        # one size past the default sweep
        for lam in partition_rows_up_to(8):
            for mu in subdiagrams(lam):
                assert dual_hom_dim(mu, lam, presentation8) == hom_dim_C(
                    transpose(mu), transpose(lam)
                )


class TestKoszulNumericalCriterion:
    def test_hilbert_series_inverse(self, presentation8):
        # H_C(t) H_{C!}(-t) = 1 (Beilinson-Ginzburg-Soergel 1996, 2.11): over
        # every interval mu <= nu <= lam, the alternating sum of hom_dim_C(mu, nu)
        # times the dual dimension of (nu, lam) is 1 if mu == lam, else 0.
        # Neither transpose nor Bareiss rank enters.
        intervals = {lam: subdiagrams(lam) for lam in partition_rows_up_to(8)}
        dual = {
            (nu, lam): dual_hom_dim(nu, lam, presentation8)
            for lam, below in intervals.items()
            for nu in below
        }
        for lam, below in intervals.items():
            for mu in below:
                total = sum(
                    (-1) ** (sum(nu) - sum(mu)) * hom_dim_C(mu, nu) * dual[(nu, lam)]
                    for nu in below
                    if contains(nu, mu)
                )
                assert total == (1 if mu == lam else 0), (mu, lam)


class TestInvolution:
    def test_double_dual_returns_original_dimensions(self):
        presentation = build_quadratic_dual(6)
        double = annihilator_presentation(presentation)
        for lam in partition_rows_up_to(6):
            for mu in partition_rows_up_to(sum(lam)):
                assert dual_hom_dim(mu, lam, double) == hom_dim_C(mu, lam)

    def test_annihilator_dimensions_complementary(self):
        presentation = build_quadratic_dual(5)
        double = annihilator_presentation(presentation)
        for pair, rel in presentation.relations.items():
            assert len(rel.vectors) + len(double.relations[pair].vectors) == len(rel.mids)


class TestCombinedCertificate:
    def test_passes_and_merges_counts(self):
        cert = verify_quadratic_duality(5)
        assert cert.passed
        assert "pairs_checked" in cert.counts
        assert "lattice_pairs_checked" in cert.counts
        assert cert.details is None


def test_bench_gate_counts():
    """The counts the benchmark gate demands of the ``qdual`` workload, so a
    drift fails the suite before it fails the benchmark."""
    workloads = load_bench_workloads()
    assert workloads.QDUAL_SIZE == 8
    cert = verify_quadratic_duality(workloads.QDUAL_SIZE)
    assert cert.passed
    assert cert.counts == workloads.expected_qdual(workloads.QDUAL_SIZE)
