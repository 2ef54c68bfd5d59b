"""youngquiver benchmark: time to verdict on three exact sweeps.

    python3 perfbench/run.py --workload qdual --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A run is a closed loop of sweeps for
``--seconds``, each sweep in a fresh single-threaded worker process
(``worker.py``), because one process can run every sweep faster or slower
than the next.  Set-up time is the median over several fresh processes
that import the package and build the inputs.  Times are in reference
seconds: wall time rescaled by a speed probe (``speed.py``) to a fixed
machine speed; the report gives wall time beside them.  Every
certificate's verdict and counts are checked against the expected values
in ``workloads.py``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run is split in halves,
the first as above and the second in one traced worker, and the object
holds the per-layer metrics and the tracing overhead.  The lines above it are a readable report, and
the full results go to ``perfbench/out/``.  Exit code 0 means every certificate
passed the gate; 1 means one failed; 2 means the benchmark could not run.
See README.md in this directory for every metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from speed import REF_PROBE_S  # noqa: E402
from workloads import SEEDED, WORKLOADS, problems  # noqa: E402

SETUP_PROCESSES = 15
# a sweep takes under 10 s on the machine the benchmark was written on
WORKER_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "checks_per_s": "1/s",
    "cert_bytes": "bytes",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(args: argparse.Namespace, *extra: str) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish: {' '.join(command)}") from exc
    if done.returncode != 0:
        raise BenchError(f"worker failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def _sweep_workers(args: argparse.Namespace, seconds: float, traced: bool = False) -> dict:
    """One-sweep workers, one after another, until ``seconds`` have passed.
    Traced workers write their spans to ``perfbench/out/``, one file each."""
    workers = []
    start = perf_counter()
    while not workers or perf_counter() - start < seconds:
        extra = ["--sweep", str(len(workers))]
        if traced:
            extra += ["--spans", str(OUT / f"{args.workload}-spans-{len(workers)}.bin")]
        workers.append(_worker(args, *extra))
    probes = [w["speed_probe"] for w in workers]
    run = {
        "sweeps": [w["sweep"] for w in workers],
        "workers": len(workers),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "speed_probe": {
            "probes": sum(p["probes"] for p in probes),
            "probe_us_median": statistics.median(p["probe_us_median"] for p in probes),
            "probe_us_min": min(p["probe_us_min"] for p in probes),
            "probe_us_max": max(p["probe_us_max"] for p in probes),
        },
    }
    if traced:
        run["layers"] = {name: statistics.fmean(w["layers"][name] for w in workers)
                         for name in workers[0]["layers"]}
        run["bindings"] = workers[0]["bindings"]
    return run


def _setup(args: argparse.Namespace) -> list[dict]:
    # the first process compiles bytecode, which users pay once, not per run
    _worker(args, "--setup-only")
    return [_worker(args, "--setup-only") for _ in range(SETUP_PROCESSES)]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _environment(args: argparse.Namespace, plain: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "seed": args.seed,
        "seed_used": args.workload in SEEDED,
        "run_seconds": args.seconds,
        "sweeps": len(plain["sweeps"]),
        "sweep_workers": plain["workers"],
        "setup_processes": SETUP_PROCESSES,
    }


def _gate(sweeps: list[dict]) -> tuple[int, int, list[str]]:
    """Certificates attempted and failed, with the first few reasons."""
    attempted = failed = 0
    reasons = []
    for sweep in sweeps:
        for cert in sweep["certificates"]:
            attempted += 1
            found = problems(cert["verdict"], cert["counts"], cert["expected"])
            if found:
                failed += 1
                reasons.append(f"{cert['key']}: {'; '.join(found)}")
    return attempted, failed, reasons[:5]


def _outcomes(sweeps: list[dict]) -> dict:
    """Verdict and counts per certificate key; every sweep must agree."""
    seen: dict = {}
    for sweep in sweeps:
        for cert in sweep["certificates"]:
            outcome = (cert["verdict"], cert["counts"])
            first = seen.setdefault(cert["key"], outcome)
            if first != outcome:
                raise BenchError(f"{cert['key']}: sweeps disagree: {first} vs {outcome}")
    return seen


def _percentile(samples: list[float], q: int) -> float | None:
    """The q-th percentile when at least ten samples lie beyond it."""
    if len(samples) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _end_to_end(setup: list[dict], run: dict) -> tuple[dict, dict]:
    sweeps = run["sweeps"]
    verdict = statistics.median(s["verdict_s"] for s in sweeps)
    cert_ms = [ms for s in sweeps for ms in s["cert_ms"]]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "verdict_s": verdict,
        "checks_per_s": sweeps[0]["checks"] / verdict,
        "cert_bytes": statistics.median(s["cert_bytes"] for s in sweeps),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    extra = {
        "setup_samples": len(setup),
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setup),
        "verdict_samples": len(sweeps),
        "verdict_wall_s": statistics.median(s["wall_s"] for s in sweeps),
        "speed_probe": run["speed_probe"],
        "cert_samples": len(cert_ms),
        "cert_p50_ms": _percentile(cert_ms, 50),
        "cert_p90_ms": _percentile(cert_ms, 90),
    }
    return metrics, extra


def _report(metrics: dict, extra: dict, attempted: int, failed: int) -> list[str]:
    n = extra["cert_samples"]

    def pct(q: int) -> str:
        value = extra[f"cert_p{q}_ms"]
        if value is None:
            return f"n/a  ({n} certificates; needs {1000 // (100 - q)} or more)"
        return f"{value:.3f} ms  (of {n} certificates)"

    probe = extra["speed_probe"]
    return [
        f"setup_s       {metrics['setup_s']:.4f} s"
        f"  (median of {extra['setup_samples']} fresh processes;"
        f" wall time {extra['setup_wall_s']:.4f} s)",
        f"verdict_s     {metrics['verdict_s']:.4f} s"
        f"  (median of {extra['verdict_samples']} sweeps, one per process;"
        f" wall time {extra['verdict_wall_s']:.4f} s)",
        f"speed probe   median {probe['probe_us_median']:.1f} us, reference"
        f" {REF_PROBE_S * 1e6:.0f} us  ({probe['probes']} probes, range"
        f" {probe['probe_us_min']:.1f} to {probe['probe_us_max']:.1f} us)",
        f"checks_per_s  {metrics['checks_per_s']:.1f} 1/s",
        f"cert_p50_ms   {pct(50)}",
        f"cert_p90_ms   {pct(90)}",
        f"cert_bytes    {metrics['cert_bytes']:.0f} bytes per sweep",
        f"peak_rss_mb   {metrics['peak_rss_mb']:.1f} MiB",
        f"failed_share  {failed / attempted:.4f}  ({failed} of {attempted} certificates)",
    ]


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/sweep"
    if name.endswith((".rank_per_row", ".overhead")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes/sweep"
    return "count/sweep"


def _trace(args, seconds: float, plain: dict) -> tuple[dict, list[str], dict]:
    OUT.mkdir(exist_ok=True)
    traced = _sweep_workers(args, seconds, traced=True)
    if _outcomes(traced["sweeps"]) != _outcomes(plain["sweeps"]):
        raise BenchError("the traced run's verdicts or counts differ from the untraced run's")
    layers = dict(traced["layers"])
    overhead = (statistics.median(s["verdict_s"] for s in traced["sweeps"])
                / statistics.median(s["verdict_s"] for s in plain["sweeps"]))
    layers["trace.overhead"] = overhead
    lines = [f"trace.overhead  {overhead:.3f}  (traced verdict_s / untraced verdict_s)",
             f"spans written to {OUT.relative_to(ROOT)}/{args.workload}-spans-<sweep>.bin"]
    for name in sorted(layers):
        if name.endswith(".calls"):
            layer = name[: -len(".calls")]
            lines.append(f"  {layer:42} calls/sweep {layers[name]:>11.1f}"
                         f"  self {layers[layer + '.self_s']:.4f} s/sweep")
    return layers, lines, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        if not (ROOT / "src" / "youngquiver" / "__init__.py").is_file():
            raise BenchError(f"no package source under {ROOT / 'src' / 'youngquiver'}")
        setup = _setup(args)
        # a traced run splits its time between untraced and traced sweeps
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = _sweep_workers(args, seconds)
        end_to_end, extra = _end_to_end(setup, plain)
        runs = [plain]
        if args.trace:
            layers, trace_lines, traced = _trace(args, seconds, plain)
            runs.append(traced)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed, reasons = _gate([sweep for run in runs for sweep in run["sweeps"]])
    env = _environment(args, plain)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
             f"  trace {args.trace}",
             "env  " + "  ".join(f"{k} {v}" for k, v in env.items())]
    lines += _report(end_to_end, extra, attempted, failed)
    if args.trace:
        lines += trace_lines
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in layers.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in end_to_end.items()}
    lines += [f"FAILED {reason}" for reason in reasons]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record = {"environment": env, "result": result, "extra": extra, "runs": runs}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
