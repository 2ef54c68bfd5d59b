"""Exact-arithmetic toolkit for the Young-lattice presentation of the
category of injections between finite sets.

The lattice-with-relations description, the diamond sign assignment, the
linear resolutions of the simple modules, and the quadratic self-duality
are all machine-verified here, and the quiver description is independently
cross-checked by brute-force symmetric group algebra.
"""

from ._version import __version__
from .partitions import Partition

__all__ = ["__version__", "Partition"]
