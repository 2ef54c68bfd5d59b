#!/usr/bin/env python3
"""Run each rung of ``youngquiver.cli.FRONTIER``, the slowest input each
bound admits, as a fresh ``python -m youngquiver`` process with ``src`` on
``PYTHONPATH`` and the rung's config, never an inherited one, as
``YOUNGQUIVER_CONFIG``.  A rung passes when it exits 0 with nothing on
stderr within 120 s; a failing rung's line ends with ``exit N`` or
``timeout``.  Takes no options; exits 1 if any rung fails."""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from youngquiver import cli
from youngquiver.config import ENV_CONFIG_PATH


def main() -> int:
    failures, started = 0, time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        config_path = pathlib.Path(tmp, "bounds.json")
        env = {**os.environ, "PYTHONPATH": str(SRC), ENV_CONFIG_PATH: str(config_path)}
        for argv, config in cli.FRONTIER:
            config_path.write_text(json.dumps(config or {}), encoding="utf-8")
            command = [sys.executable, "-m", "youngquiver", *argv]
            rung_started = time.perf_counter()
            try:
                result = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                                        stderr=subprocess.PIPE, text=True, timeout=120)
                sys.stderr.write(result.stderr)
                passed = result.returncode == 0 and not result.stderr
                outcome = f"exit {result.returncode}"
            except subprocess.TimeoutExpired:
                passed, outcome = False, "timeout"
            failures += not passed
            line = f"{time.perf_counter() - rung_started:5.1f} s  {' '.join(argv)}"
            print(f"PASS  {line}" if passed else f"FAIL  {line}  {outcome}", flush=True)
    total = time.perf_counter() - started
    print(f"\n{len(cli.FRONTIER)} rungs, {failures} failures, {total:.1f} s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
