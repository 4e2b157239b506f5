"""The host's speed, measured by a fixed loop between the benchmark's calls.

On a shared host the speed of a core drifts, by up to 1.5x over minutes,
and one run of the benchmark lasts about half a minute, so two runs of
the same code at different moments differ by that much in every timing.
The loop below runs no code of the program.  A sample is the fastest of
three passes, which leaves out a pass that another process interrupted.
Taken about twice a second through a run, the mean of the samples
follows the host's speed over the run.  The benchmark multiplies its
end-to-end timings by ``scale``, so that they read as on a host where a
sample takes ``REFERENCE_S``.
"""

import statistics
import time

REFERENCE_S = 0.005     # a sample on a 2-vCPU x86-64 host at a typical moment
EVERY_S = 0.5           # time between two samples during timed calls


def _pass_s():
    t = time.perf_counter()
    s = 0
    for i in range(33_000):
        s += (i * i) % 7
    d = {}
    for i in range(7_000):
        d[i % 1000] = d.get(i % 1000, 0) + i
    return time.perf_counter() - t


def sample():
    """Seconds of the fastest of three passes of the fixed loop, now."""
    return min(_pass_s() for _ in range(3))


def scale(samples):
    """Factor that takes a time measured during ``samples`` to the
    reference host."""
    return REFERENCE_S / statistics.fmean(samples)
