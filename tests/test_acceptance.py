"""Acceptance battery: the package's exit criteria, each run at its full
size bound and time budget, every check exact (tolerance zero).  Each test
prints one verdict line regardless of capture mode."""

import time
from math import comb

from youngquiver.cli import SWEEPS, main
from youngquiver.partitions import Partition, format_partition, partitions_of, partitions_up_to
from youngquiver.quiver import hom_dim_C, quiver_slice
from youngquiver.signs import added_node_sign
from youngquiver.symgroup import induction_multiplicity

P = lambda *rows: Partition(tuple(rows))


def _report(capsys, number: int, name: str, started: float, budget: float) -> float:
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        print(
            f"ACCEPTANCE criterion {number} ({name}): "
            f"PASS in {elapsed:.2f}s (budget {budget:.0f}s)"
        )
    return elapsed


def _battery_run(target: str):
    """The single default-battery run of ``target``: (arguments, certificate)."""
    sweep = SWEEPS[target]
    (args,) = sweep.battery
    return args, sweep.driver(*args)


def test_criterion_1_quiver_arrows_from_representation_theory(capsys):
    budget = 60.0
    started = time.perf_counter()
    (n_max, direct_n_max), certificate = _battery_run("morita")
    assert certificate.passed, certificate.first_failure
    # the sweep covers every pair; spot-check the coverage numbers
    expected_pairs = sum(
        len(partitions_of(n)) * len(partitions_of(n + 1)) for n in range(n_max + 1)
    )
    assert certificate.counts["character_pairs"] == expected_pairs
    assert certificate.counts["direct_pairs"] == sum(
        len(partitions_of(n)) * len(partitions_of(n + 1)) for n in range(direct_n_max + 1)
    )
    elapsed = _report(capsys, 1, "quiver arrows, characters + idempotent ranks", started, budget)
    assert elapsed < budget


def test_criterion_2_induction_equals_pieri(capsys):
    budget = 120.0
    started = time.perf_counter()
    pairs = 0
    for n in range(5):
        for mu in partitions_of(n):
            for m in range(1, 4):
                for lam in partitions_of(n + m):
                    assert induction_multiplicity(mu.rows, m, lam.rows) == hom_dim_C(
                        mu.rows, lam.rows
                    ), (str(mu), m, str(lam))
                    pairs += 1
    assert pairs > 0
    elapsed = _report(capsys, 2, f"character multiplicities = strip rule on {pairs} triples", started, budget)
    assert elapsed < budget


def test_criterion_3_sign_assignment(capsys):
    budget = 30.0
    started = time.perf_counter()
    (max_size,), certificate = _battery_run("signs")
    assert certificate.passed, certificate.first_failure
    # exhaustive: a bottom diagram with d distinct part lengths has d + 1
    # addable nodes, so C(d + 1, 2) diamonds
    assert certificate.counts["diamonds_checked"] == sum(
        comb(len(set(b.rows)) + 1, 2) for b in partitions_up_to(max_size - 2)
    )
    assert certificate.counts["partitions_checked"] == len(partitions_up_to(min(max_size, 8)))
    # every addition order up to size 8, one per standard tableau: the
    # involution numbers I(n) = I(n-1) + (n-1) I(n-2) summed over n <= 8
    involutions = [1, 1]
    for n in range(2, min(max_size, 8) + 1):
        involutions.append(involutions[-1] + (n - 1) * involutions[-2])
    assert certificate.counts["orders_checked"] == sum(involutions) == 1116
    elapsed = _report(capsys, 3, "diamond anticommutativity + growth agreement", started, budget)
    assert elapsed < budget


def test_criterion_4_linear_resolutions(capsys):
    budget = 120.0
    started = time.perf_counter()
    sweep = SWEEPS["resolution"]
    for xi, depth in sweep.battery:
        certificate = sweep.driver(xi, depth)
        assert certificate.passed, (str(xi), certificate.first_failure)
        assert certificate.details["linear"]
    runs = f"{len(sweep.battery)} bases at depth {depth}"
    elapsed = _report(capsys, 4, f"complex + exactness + linearity, {runs}", started, budget)
    assert elapsed < budget


def test_criterion_5_quadratic_self_duality(capsys):
    budget = 60.0
    started = time.perf_counter()
    _, certificate = _battery_run("qdual")
    assert certificate.passed, certificate.first_failure
    assert certificate.counts["relation_pairs_checked"] > 0
    assert certificate.counts["diamonds_checked"] > 0
    assert certificate.counts["lattice_pairs_checked"] > 0
    elapsed = _report(capsys, 5, "dual dims + relation cases + sign twist + lattice dual", started, budget)
    assert elapsed < budget


def test_criterion_6_idempotent_system(capsys):
    budget = 60.0
    started = time.perf_counter()
    (n_max,), certificate = _battery_run("idempotents")
    assert certificate.passed, certificate.first_failure
    assert certificate.counts["idempotents_checked"] == len(partitions_up_to(n_max))
    elapsed = _report(capsys, 6, "central idempotents + symmetrizers through degree 5", started, budget)
    assert elapsed < budget


# every arrow label on the lattice up to size four, frozen from the closed
# form and hand-checked via the growth procedure
LATTICE_SIGNS = {
    ("0", "1"): 1,
    ("1", "1,1"): -1,
    ("1", "2"): 1,
    ("1,1", "1,1,1"): 1,
    ("1,1", "2,1"): 1,
    ("2", "2,1"): 1,
    ("2", "3"): 1,
    ("1,1,1", "1,1,1,1"): -1,
    ("1,1,1", "2,1,1"): 1,
    ("2,1", "2,1,1"): -1,
    ("2,1", "2,2"): 1,
    ("2,1", "3,1"): 1,
    ("3", "3,1"): -1,
    ("3", "4"): 1,
}


def test_criterion_7_truncated_lattice_rendering(capsys):
    budget = 5.0
    started = time.perf_counter()
    slice_ = quiver_slice(4)
    # 1+1+2+3+5 diagrams and 1+2+4+7 covering arrows between sizes 0..4
    assert len(slice_.nodes) == 12
    assert len(slice_.arrows) == 14
    names = [format_partition(rows) for rows in slice_.nodes]
    labels = {
        (names[source], names[target]): added_node_sign(slice_.nodes[source], r)
        for source, target, r in slice_.arrows
    }
    assert labels == LATTICE_SIGNS
    # the CLI emits the same content
    code = main(["quiver", "--max-size", "4", "--signs"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nodes: 12" and lines[1] == "arrows: 14"
    assert "1 -> 1,1 [-1]" in lines
    assert "2,1 -> 2,1,1 [-1]" in lines
    elapsed = _report(capsys, 7, "truncated lattice with sign labels", started, budget)
    assert elapsed < budget
