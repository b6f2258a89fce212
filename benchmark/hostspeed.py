"""Host speed, sampled while a job runs, so that its times can be rescaled.

The measuring machine is a shared virtual machine.  The same job in the same
process ran anywhere from 1x to 1.8x as long a few seconds apart, and whole
sets of runs ran 1.5x slower for tens of minutes; CPU time tracked wall time,
so the slowdown is in how fast instructions run, not in waiting.  Raw wall
seconds then spread past any useful bound.

``SpeedProbe`` runs a fixed pure-Python kernel from a SIGALRM handler every
``INTERVAL_S`` of wall time, in the job's own thread, so it samples the speed
the job itself gets, at the moments the job runs.  A time measured under the
probe is reported at the reference speed:

    t_ref = (t_wall - t_probe) * REFERENCE_PROBE_S / mean(probe samples)

``t_probe`` is the time spent in the probe itself.  The mean, not the median,
of the samples: the job's wall time is the integral of the slowdown over the
job, and evenly spaced samples estimate its mean.  ``REFERENCE_PROBE_S`` is
about the kernel's time when the machine is not slowed, so reference seconds
read close to wall seconds in a quiet period.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_PROBE_S = 300e-6


def _kernel() -> int:
    # the integer, dict and loop work that the jobs' Python code does
    x, table = 0, {}
    for i in range(1500):
        x = (x * 1103515245 + i) & 0x1FFFFFFFFFFFFFFF
        table[i & 255] = x
    return x


class SpeedProbe:
    """Samples the kernel's time every ``INTERVAL_S`` while the block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.inside_s = sum(self.samples)
        if not self.samples:  # a block shorter than one interval
            self._tick()

    def speed(self) -> float:
        """Reference speed over the block's mean speed; above 1 is faster."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)

    def net(self, wall_s: float) -> float:
        """Wall seconds of the block without the probe's own samples."""
        return wall_s - self.inside_s

    def to_reference(self, wall_s: float) -> float:
        """Wall seconds that include the block, at the reference speed."""
        return self.net(wall_s) * self.speed()
