"""Machine speed probe: rescales wall time to a fixed reference speed.

The shared host this benchmark was written on changes the speed of a
single-threaded Python process by up to 2x, in phases that last from
seconds to minutes, so a 30 s run sees a different mix of phases each
time.  The probe times a fixed task from the standard library (``Fraction``
sums and a small dict, much like the package's own inner loops) every
``INTERVAL_S`` of wall time, from a ``SIGALRM`` handler in the measured
process itself.  A stretch of wall time ``t`` with probe times ``p_i``
inside it is reported as ``(t - sum p_i) * mean(REF_PROBE_S / p_i)``: the
seconds the same work would take on a machine where the task takes
``REF_PROBE_S``.  The task never calls the package, so a change to the
package cannot move the reference.

A stretch too short for the timer, such as set-up, is rescaled by probes
run back to back right after it.  Those find the task's code and data in
the caches and take about half as long as probes from the timer, which
run amid a sweep's data, so they have their own reference time,
``REF_WARM_PROBE_S``.
"""

import signal
import statistics
from time import perf_counter

# the probe task's time at the reference speed, from the timer and back to back
REF_PROBE_S = 250e-6
REF_WARM_PROBE_S = 125e-6
INTERVAL_S = 0.02
WARM_PROBES = 16


def probe_task():
    from fractions import Fraction

    table = {}
    total = Fraction(0)
    for i in range(60):
        table[(i, i & 7, "k")] = i * 31 % 17
        total += Fraction(i, 7)
    return sorted(table.values()), total


def _timed_probe() -> float:
    t0 = perf_counter()
    probe_task()
    return perf_counter() - t0


def rescale_now(wall_s: float) -> float:
    """Reference seconds for ``wall_s`` of wall time that has just ended."""
    _timed_probe()  # the first call imports and warms the task
    times = [_timed_probe() for _ in range(WARM_PROBES)]
    return wall_s * statistics.fmean(REF_WARM_PROBE_S / p for p in times)


class SpeedProbe:
    """Probe times, in order, from a timer that runs while it is started."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.times.append(_timed_probe())

    def start(self) -> None:
        _timed_probe()  # the first call imports and warms the task
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, wall_s: float) -> float:
        """Reference seconds for ``wall_s`` of wall time, the time the probe
        was started.  The probes are not counted as its work."""
        if not self.times:
            return rescale_now(wall_s)
        work_s = wall_s - sum(self.times)
        return work_s * statistics.fmean(REF_PROBE_S / p for p in self.times)

    def summary(self) -> dict:
        if not self.times:
            return {"probes": 0}
        return {"probes": len(self.times),
                "probe_us_median": statistics.median(self.times) * 1e6,
                "probe_us_min": min(self.times) * 1e6,
                "probe_us_max": max(self.times) * 1e6}
