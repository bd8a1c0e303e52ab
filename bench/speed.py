"""Machine-speed sampling, so that load from other tenants does not read as a
change of the program.

On a shared 2-core sandbox the speed of our core swings by up to 1.8x, in
stretches of a fraction of a second to half a minute (most likely work on the
sibling hardware thread): the same 76 HPDIs took 4.9 s in one run and 8.6 s
in the next.  While a pass runs, a timer signal every ``SAMPLE_EVERY_S`` runs a fixed
reference kernel (small-array NumPy calls from Python, like the program's own
hot loops) and records how long it took.  A measured interval is reported as

    seconds x REFERENCE_S / mean(kernel time sampled within the interval)

that is, in seconds at the reference speed.  The mean is taken over windows
of ``WINDOW`` consecutive samples, each window contributing its median: a
sample that lands on a preemption or a garbage collection costs the kernel
a hundred times its length but the program only its share of 20 ms, so
single samples must not count, while a change of speed that lasts a window
must.  The raw seconds stay in the ``info`` line of every run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.02
# Sets the scale of the reported seconds only: about the kernel time sampled
# during a typical pass on the 2-core sandbox the benchmark was written on, so
# that reported seconds read close to that sandbox's wall-clock seconds.
REFERENCE_S = 35e-6
# Samples per window, about half a second; the two speed levels of the
# sandbox mostly last longer than that.
WINDOW = 25

_X = np.linspace(1.0, 30.0, 14)


def _kernel() -> np.ndarray:
    x = _X
    for _ in range(8):
        x = np.log(x + 1.0) + 1.0 / x
    return x


class SpeedProbe:
    """Samples the reference kernel on a timer between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.costs: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        _kernel()
        self.costs.append(time.perf_counter() - begin)
        self.stamps.append(begin)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def scale(self, begin: float, end: float) -> float:
        """REFERENCE_S over the mean of window medians of the kernel time
        sampled in [begin, end]; an interval too short to hold a sample takes
        every sample so far."""
        if not self.costs:
            self._sample(None, None)
        costs = [c for t, c in zip(self.stamps, self.costs) if begin <= t <= end] or self.costs
        windows = [costs[i:i + WINDOW] for i in range(0, len(costs), WINDOW)]
        if len(windows) > 1 and len(windows[-1]) < WINDOW // 2:
            tail = windows.pop()
            windows[-1] += tail
        return REFERENCE_S / statistics.fmean(statistics.median(w) for w in windows)

    def seconds(self, begin: float, end: float) -> float:
        return (end - begin) * self.scale(begin, end)
