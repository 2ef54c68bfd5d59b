"""The benchmark tracer rebinds fixed module-level names of the package
(``perfbench/tracing.py`` ``ROOTS`` and ``LAYERS``).  Installing it here
makes a deleted or rebound traced name fail the test suite, not only the
benchmark run.  It runs in a subprocess so that the rebinding does not leak
into other tests.  One traced symgroup sweep then pins what the bench's
``symgroup.multiply`` term-pair counter reads: the length of each factor's
``terms``."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

INSTALL = """
import json
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import youngquiver.cli
from tracing import Tracer
tracer = Tracer()
tracer.install("youngquiver")
assert youngquiver.cli.verify_branching(2, 2).passed
assert youngquiver.cli.verify_idempotent_system(3).passed
print(json.dumps(tracer.summary(1)))
"""


def test_every_traced_name_is_rebound():
    result = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["cli.verify_branching.calls"] == 1
    assert summary["cli.verify_idempotent_system.calls"] == 1
    assert summary["symgroup.multiply.calls"] > 0
    assert summary["symgroup.multiply.term_pairs"] > 0
