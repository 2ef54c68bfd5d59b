"""Benchmark workloads: which sweeps run, in which order, and the counts
each certificate must report.

Expected counts come from closed forms computed here with a partition
generator of the benchmark's own, so the gate does not trust the package's
enumeration.  The one count without a closed form, the number of diamond
cancellations in a resolution, is kept as a table recorded from a passing
run.
"""

import random
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Callable

WORKLOADS = ("qdual", "resolution", "symgroup")
# qdual and symgroup are exhaustive sweeps that ignore the seed
SEEDED = ("resolution",)

QDUAL_SIZE = 8
RESOLUTION_MAX_BASE = 5
RESOLUTION_DEPTH = 8
SYMGROUP_N = 5
SYMGROUP_DIRECT_N = 3

# diamond_cancellations of verify_resolution(xi, 8), keyed by the rows of xi.
DIAMOND_CANCELLATIONS = {
    "0": 0, "1": 28, "2": 49, "1,1": 49, "3": 64, "2,1": 198, "1,1,1": 64,
    "4": 74, "3,1": 305, "2,2": 85, "2,1,1": 305, "1,1,1,1": 74,
    "5": 80, "4,1": 377, "3,2": 320, "3,1,1": 474, "2,2,1": 320,
    "2,1,1,1": 377, "1,1,1,1,1": 80,
}


@cache
def _partitions(n: int, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n with parts at most cap, as weakly decreasing tuples."""
    cap = n if cap is None else cap
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in _partitions(n - first, first)
    )


def _up_to(n: int) -> list[tuple[int, ...]]:
    return [p for k in range(n + 1) for p in _partitions(k)]


def _label(rows: tuple[int, ...]) -> str:
    return ",".join(map(str, rows)) or "0"


def _contains(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def expected_qdual(max_size: int) -> dict:
    below = [len(_up_to(k)) for k in range(max_size + 1)]
    pairs = sum(len(_partitions(k)) * below[k] for k in range(max_size + 1))
    relation_pairs = sum(
        1
        for k in range(2, max_size + 1)
        for lam in _partitions(k)
        for mu in _partitions(k - 2)
        if _contains(lam, mu)
    )
    # a diagram with d distinct part lengths has d + 1 addable nodes
    diamonds = sum(comb(len(set(b)) + 1, 2) for b in _up_to(max_size - 2))
    return {
        "pairs_checked": pairs,
        "relation_pairs_checked": relation_pairs,
        "diamonds_checked": diamonds,
        "lattice_pairs_checked": pairs,
    }


def expected_resolution(xi: tuple[int, ...], depth: int) -> dict:
    objects = len(_up_to(sum(xi) + depth))
    return {
        "objects_checked": objects,
        "positions_checked": objects * (depth + 1),
        "products_checked": objects * (depth - 1),
        "diamond_cancellations": DIAMOND_CANCELLATIONS[_label(xi)],
    }


def expected_branching(n: int, direct_n: int) -> dict:
    def pairs(top: int) -> int:
        return sum(len(_partitions(k)) * len(_partitions(k + 1)) for k in range(top + 1))

    return {"character_pairs": pairs(n), "direct_pairs": pairs(direct_n)}


def expected_idempotents(n: int) -> dict:
    blocks = len(_up_to(n))
    return {"idempotents_checked": blocks, "symmetrizers_checked": blocks}


def work_count(counts: dict) -> int:
    """Checks a certificate performed: counters named *_checked or *_pairs."""
    return sum(v for k, v in counts.items() if k.endswith(("_checked", "_pairs")))


def problems(verdict: str, counts: dict, expected: dict) -> list[str]:
    """Why a certificate fails the gate; empty when it passes."""
    found = []
    if verdict != "pass":
        found.append(f"verdict {verdict!r}")
    if not any(counts.values()):
        found.append("every count is zero")
    if counts != expected:
        found.append(f"counts {counts} != expected {expected}")
    return found


@dataclass(frozen=True)
class Item:
    """One sweep call: a certificate key, the call, and its expected counts."""

    key: str
    call: Callable
    expected: dict


class Workload:
    """The items of each sweep.  Calls look the sweep function up on its
    module at call time, so a traced run sees the rebound names."""

    def __init__(self, name: str, seed: int, yq, sweep: int = 0) -> None:
        self.name = name
        # each sweep of a run, in its own process, draws its own order
        self.rng = random.Random(f"{seed}/{sweep}")
        if name == "qdual":
            self.items = [
                Item(
                    f"qdual({QDUAL_SIZE})",
                    lambda: yq.qdual.verify_quadratic_duality(QDUAL_SIZE),
                    expected_qdual(QDUAL_SIZE),
                )
            ]
        elif name == "resolution":
            # every base of size <= 5, in an order drawn from the seed; a
            # subset would make sweep time depend on the seed, because one
            # base costs more than ten times another
            self.items = [
                Item(
                    f"resolution({_label(rows)};{RESOLUTION_DEPTH})",
                    lambda xi=yq.Partition(rows): yq.resolution.verify_resolution(
                        xi, RESOLUTION_DEPTH
                    ),
                    expected_resolution(rows, RESOLUTION_DEPTH),
                )
                for rows in _up_to(RESOLUTION_MAX_BASE)
            ]
        elif name == "symgroup":
            self.items = [
                Item(
                    f"branching({SYMGROUP_N},{SYMGROUP_DIRECT_N})",
                    lambda: yq.cli.verify_branching(SYMGROUP_N, SYMGROUP_DIRECT_N),
                    expected_branching(SYMGROUP_N, SYMGROUP_DIRECT_N),
                ),
                Item(
                    f"idempotents({SYMGROUP_N})",
                    lambda: yq.cli.verify_idempotent_system(SYMGROUP_N),
                    expected_idempotents(SYMGROUP_N),
                ),
            ]
        else:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

    def sweep(self) -> list[Item]:
        if self.name in SEEDED:
            return self.rng.sample(self.items, len(self.items))
        return list(self.items)
