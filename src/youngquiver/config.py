"""Size bounds for the factorial-scale computations.

Everything here is exact arithmetic, so cost explodes combinatorially with
the inputs.  Every expensive operation checks an explicit bound and raises
``BoundExceededError`` instead of truncating silently.  The slowest inputs
the defaults admit are the rungs of ``cli.FRONTIER``, which
``scripts/run_frontier.py`` runs and times.

A JSON config file can override the defaults; its path is taken from the
``YOUNGQUIVER_CONFIG`` environment variable (keys matching ``Bounds`` field
names).
"""

import json
import os
from typing import NamedTuple

ENV_CONFIG_PATH = "YOUNGQUIVER_CONFIG"


class BoundExceededError(ValueError):
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
    """Bounds from a JSON file, falling back to defaults.

    With no explicit ``path``, the ``YOUNGQUIVER_CONFIG`` environment
    variable is consulted; if it is unset the defaults are returned.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH)
    if not path:
        return DEFAULT_BOUNDS
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"{path} must hold a JSON object of bound names and values")
    unknown = set(raw) - set(Bounds._fields)
    if unknown:
        raise ValueError(f"unknown bound names in {path}: {sorted(unknown)}")
    for name, value in raw.items():
        # bool is a subclass of int, but true/false is not a size
        if type(value) is not int:
            raise ValueError(f"bound {name} in {path} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"bound {name} in {path} must be non-negative, got {value}")
    return DEFAULT_BOUNDS._replace(**raw)
