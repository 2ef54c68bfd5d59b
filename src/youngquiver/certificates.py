"""Machine-readable verdicts for verification sweeps.

A certificate records what was swept, how much of it, the verdict, and a
minimal reproducer on failure.  Serialization is deterministic: given the
same inputs and tool version, everything except ``elapsed_ms`` is
byte-identical between runs.
"""

import json
import time

from ._version import __version__

SCHEMA_VERSION = 1


class Certificate:
    __slots__ = ("command", "parameters", "verdict", "counts", "first_failure", "details",
                 "elapsed_ms")

    def __init__(
        self,
        started: float,
        command: str,
        parameters: dict,
        counts: dict,
        first_failure: dict | None = None,
        details: dict | None = None,
    ) -> None:
        """Certificate of a sweep that began at ``started``, a
        ``time.perf_counter()`` reading.  The verdict is ``pass`` exactly
        when there is no ``first_failure``, and a pass must have counted
        something."""
        self.elapsed_ms = int((time.perf_counter() - started) * 1000)
        if first_failure is None and not any(counts.values()):
            raise ValueError("passing certificate must report a nonzero count")
        self.command = command
        self.parameters = parameters
        self.verdict = "pass" if first_failure is None else "fail"
        self.counts = counts
        self.first_failure = first_failure
        self.details = details

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "command": self.command,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "counts": self.counts,
            "first_failure": self.first_failure,
        }
        if self.details is not None:
            out["details"] = self.details
        out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)
