#!/usr/bin/env python3
"""Run the full default verification battery and write one certificate per
sweep into ./certificates/ (or the directory given as the first argument).

The battery is the ``battery`` of each entry of ``youngquiver.cli.SWEEPS``.
A target with several runs (resolution, one per base partition) writes one
file per run, named after its first argument.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from youngquiver.cli import SWEEPS


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "certificates")
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    certificates = []
    for target, sweep in SWEEPS.items():
        for args in sweep.battery:
            name = target
            if len(sweep.battery) > 1:
                name += "_" + str(args[0]).replace(",", "-")
            certificates.append((name, sweep.driver(*args)))

    failures = 0
    for name, certificate in certificates:
        path = out_dir / f"{name}.json"
        path.write_text(certificate.to_json() + "\n", encoding="utf-8")
        status = certificate.verdict.upper()
        if not certificate.passed:
            failures += 1
        print(f"{status:4}  {name:24}  {certificate.elapsed_ms:6d} ms  -> {path}")

    total = time.perf_counter() - started
    print(f"\n{len(certificates)} sweeps, {failures} failures, {total:.1f}s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
