"""The benchmark tracer rebinds fixed module-level names of the package
(``perfbench/tracing.py`` ``ROOTS`` and ``LAYERS``).  Installing it here
makes a deleted or rebound traced name fail the test suite, not only the
benchmark run.  It runs in a subprocess so that the rebinding does not leak
into other tests."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import youngquiver.cli
from tracing import Tracer
Tracer().install("youngquiver")
"""


def test_every_traced_name_is_rebound():
    result = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
