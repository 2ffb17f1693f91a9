"""Machine-speed gauge: the benchmark's times are quoted at a reference speed.

The benchmark host is a shared 2-core VM whose speed drifts by up to 50%
between runs a minute apart, with CPU time drifting as much as wall time
(this is throughput lost to neighbours, not time spent descheduled).  A
fixed kernel that runs no nhscatter code, timed in the same process every
``INTERVAL_S`` seconds and right after any longer op, measures that drift:
each op latency ``t`` is reported as ``t * REFERENCE_S / c``, with ``c`` the
mean kernel time around the op.

The kernel does the two kinds of work that dominate the workloads: numpy
calls on small matrices in a Python loop, and building rows of floats and
formatting them as CSV text.  Over 20-second windows of a 4-minute run
alternating the kernel with sweep, evolve and verify/classify calls, scaling
by it cut the quartile spread of the op times from 8-12% to 3-6%.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.007  # typical kernel time on the host described in README.md
INTERVAL_S = 0.5
REPEATS = 3

_SMALL = np.eye(4) * 2.0 + 0.1


def kernel() -> int:
    for _ in range(200):
        np.linalg.inv(_SMALL) @ _SMALL
    rows = [[i * 0.1, i, i * 1e-3, -i * 2.5, 1.0 / (i + 1)] for i in range(800)]
    return len("\n".join(",".join(f"{v:.17g}" for v in row) for row in rows))


def kernel_seconds() -> float:
    """Median duration of ``REPEATS`` kernel runs."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedGauge:
    """Rescales measured durations to the reference machine speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> float:
        self.samples.append(kernel_seconds())
        self._last = perf_counter()
        return self.samples[-1]

    def refresh(self) -> None:
        """Take a new kernel sample if the last one is older than ``INTERVAL_S``."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, seconds: float, since: int = -1) -> float:
        """``seconds`` at the reference speed, using the mean of the samples
        from index ``since`` on (the sample before an op and any taken after it)."""
        recent = self.samples[since:]
        return seconds * REFERENCE_S * len(recent) / sum(recent)
