"""Size bounds for the factorial-scale computations.

Everything here is exact arithmetic, so cost explodes combinatorially with
the inputs.  Every expensive operation checks an explicit bound and raises
``BoundExceededError`` instead of truncating silently.  That is a
``UsageError``, the one class of bad input, which the CLI reports on one
line with exit code 2.  The slowest inputs the defaults admit are the rungs
of ``cli.FRONTIER``, which ``scripts/run_frontier.py`` runs and times.

A JSON config file can override the defaults; its path is taken from the
``YOUNGQUIVER_CONFIG`` environment variable (keys matching ``Bounds`` field
names).  Every fault of that file, from bytes that are not UTF-8 to a value
that is not a non-negative integer, raises a ``UsageError`` that names it.
"""

import json
import os
from typing import NamedTuple

ENV_CONFIG_PATH = "YOUNGQUIVER_CONFIG"


class UsageError(ValueError):
    """Bad input: an option, partition or config value the command cannot
    run with, raised where that input is checked."""


class BoundExceededError(UsageError):
    """A requested computation exceeds the configured size bound."""


class Bounds(NamedTuple):
    # partitions_of, quiver slices, the signs sweep, a resolution's |xi| + depth
    max_partition_size: int = 30
    # group algebra elements of S_n; 7 is opt-in via config override
    max_group_degree: int = 6
    # idempotent-rank computations happen inside C[S_{n+1}], one product per
    # double coset of the symmetrizers' full Young stabilizers, none for a
    # coset whose signs prove its row zero
    max_direct_hom_degree: int = 5
    # character-pairing multiplicities, bound on n+m
    max_induction_degree: int = 12
    # the largest diagram of the quadratic dual's presentation
    max_qdual_size: int = 18


DEFAULT_BOUNDS = Bounds()


def check_bound(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise BoundExceededError(f"{what} {value} exceeds configured bound {limit}")


def load_bounds(path: str | None = None) -> Bounds:
    """Bounds from the JSON file at ``path``, by default the one that
    ``YOUNGQUIVER_CONFIG`` names; the defaults if there is none."""
    path = os.environ.get(ENV_CONFIG_PATH) if path is None else path
    if not path:
        return DEFAULT_BOUNDS
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise UsageError(f"cannot parse {path} as UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"{path} must hold a JSON object of bound names and values")
    if unknown := set(raw) - set(Bounds._fields):
        raise UsageError(f"unknown bound names in {path}: {sorted(unknown)}")
    for name, value in raw.items():
        # bool is a subclass of int, but true/false is not a size
        if type(value) is not int:
            raise UsageError(f"bound {name} in {path} must be an integer, got {value!r}")
        if value < 0:
            raise UsageError(f"bound {name} in {path} must be non-negative, got {value}")
    return DEFAULT_BOUNDS._replace(**raw)
