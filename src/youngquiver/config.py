"""Size bounds for the factorial-scale computations.

Everything here is exact arithmetic, so cost explodes combinatorially with
the inputs.  Every expensive operation checks an explicit bound and raises
``BoundExceededError`` instead of truncating silently.  Defaults are chosen
so the default battery (``scripts/run_all_checks.py``) takes well under a
second, and the slowest input each bound admits finishes in seconds.

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
    # Wall times are 3 fresh CLI runs each (1 for the opt-in --n 7) on 2
    # shared vCPUs (Python 3.11), as in the ROADMAP table "Where time goes now".
    # partitions_of, quiver slices, the signs sweep; verify signs --max-size 30
    # takes 0.42-0.48 s and quiver --max-size 30 --signs --format json
    # 0.53-0.54 s.
    # It is also the one bound on a resolution: |xi| + depth at most this.
    # verify resolution --xi 5,4,3,2,1,1,1 --depth 13, the slowest input it
    # admits (timed over all 1,212 bases of size <= 17 at depth 30 - |xi|),
    # takes 0.34-0.48 s, as does (5,4,3,2,1,1,1,1) at depth 12; table betti
    # on it takes 0.24-0.28 s
    max_partition_size: int = 30
    # group algebra elements of S_n; 7 is opt-in via config override.
    # verify idempotents --n 6 takes 0.50-0.74 s and --n 7 27.6 s, almost all
    # of it Young symmetrizer products
    max_group_degree: int = 6
    # idempotent-rank computations happen inside C[S_{n+1}], one product per
    # double coset of the symmetrizers' full Young stabilizers, none for a
    # coset whose signs prove its row zero; verify morita --n 11 --direct-n 5,
    # the slowest input this bound admits, takes 1.3-1.8 s, of which the 77
    # degree-5 ranks are 0.9-1.1 s in process
    max_direct_hom_degree: int = 5
    # character-pairing multiplicities, bound on n+m; verify morita --n 11
    # --direct-n 4 takes 0.79-0.89 s, about 0.5 s of it the 9,215 pairings
    max_induction_degree: int = 12
    # verify qdual --max-size 18 takes 5.0-6.6 s and table dualdims
    # --max-size 18 3.0-4.2 s
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
