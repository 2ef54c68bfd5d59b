"""One sweep of one workload in one fresh, single-threaded process.

Imports the package from the checkout's ``src``, builds the workload's
inputs, then runs one sweep.  Prints one JSON object: set-up time, the
sweep's time and per-certificate timings, certificate sizes and counts,
and the process's peak resident set size.  Set-up and sweep times are
given as wall seconds and as reference seconds (see ``speed.py``);
per-certificate times are wall time.  With ``--spans`` the layer functions
are traced; with ``--setup-only`` it stops after the inputs are built.

    python3 perfbench/worker.py --workload qdual --seed 1 --sweep 0
"""

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()
ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweep", type=int, default=0,
                        help="the sweep's index in its run; with the seed it draws the order")
    parser.add_argument("--spans", help="trace the sweep and write its spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import youngquiver
    import youngquiver.cli  # noqa: F401  loads qdual and resolution too

    source = Path(youngquiver.__file__).resolve().parent
    if source != ROOT / "src" / "youngquiver":
        raise SystemExit(f"imported youngquiver from {source}, not from this checkout")

    from speed import SpeedProbe, rescale_now
    from workloads import Workload, work_count

    workload = Workload(args.workload, args.seed, youngquiver, args.sweep)
    setup_wall_s = perf_counter() - START
    setup = {"setup_s": rescale_now(setup_wall_s), "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.run_id = args.sweep
        tracer.install("youngquiver")

    cert_ms, cert_bytes, checks, records = [], 0, 0, []
    probe = SpeedProbe()
    probe.start()
    try:
        sweep_start = perf_counter()
        for item in workload.sweep():
            t0 = perf_counter()
            certificate = item.call()
            size = len(certificate.to_json())
            cert_ms.append((perf_counter() - t0) * 1000)
            cert_bytes += size
            checks += work_count(certificate.counts)
            records.append({"key": item.key, "verdict": certificate.verdict,
                            "counts": certificate.counts, "expected": item.expected})
            del certificate
        wall_s = perf_counter() - sweep_start
    finally:
        probe.stop()
    sweep = {"verdict_s": probe.rescale(wall_s), "wall_s": wall_s, "cert_ms": cert_ms,
             "cert_bytes": cert_bytes, "checks": checks, "certificates": records}

    result = {
        **setup,
        "sweep": sweep,
        "speed_probe": probe.summary(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(1)
        result["bindings"] = tracer.bindings
        tracer.write(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
