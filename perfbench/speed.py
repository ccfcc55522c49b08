"""Machine-speed sampling, so that times can be stated at one reference
speed of the machine.

On a shared machine the speed a process gets changes from one fraction of
a second to the next: another tenant on the same physical core slows the
package's numpy-heavy code by up to 2.5x, and the share of time spent in
that slow state differs from minute to minute.  Raw times of the same work
therefore spread by 15-50 % across runs, however long each run is.

`SpeedProbe` runs a fixed reference kernel (independent of the package)
every `PERIOD` seconds from a SIGALRM handler and records when each run
started and ended.  `SpeedModel.adjusted(a, b)` is the time from a to b
with the kernel's own runs removed and each stretch scaled by K_REF / k,
where k is the duration of the nearest kernel run and K_REF the kernel's
duration on an unloaded core of the machine the benchmark was written on
(a 2 GHz Xeon).  Only ratios between runs on one machine mean anything;
K_REF merely keeps the numbers close to raw times on a quiet machine.
Of the kernels tried, a sort-and-transform of a frequency grid (the shape
of the stability check's contour refinement) tracked both the exact and
the weak-coupling evaluations best: their time over the kernel's varied
by 5-6 % (standard deviation over 2.5 s windows) while their raw times
varied by 13-16 %.
"""

from __future__ import annotations

import bisect
import math
import signal
from time import perf_counter

import numpy as np

PERIOD = 0.05
K_REF = 1.65e-3

_POINTS = np.random.default_rng(0).standard_normal(12000)


def kernel() -> None:
    """Fixed reference work shaped like the package's hot paths (the
    contour refinement of the stability check): merge and sort a grid of
    frequencies, then vectorised complex arithmetic on it."""
    for _ in range(2):
        grid = np.unique(np.concatenate([_POINTS, _POINTS[::2] + 0.5]))
        z = np.exp(1j * grid)
        np.angle(z[1:] / z[:-1]).sum()


class SpeedProbe:
    """Runs the reference kernel every PERIOD s while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def start(self) -> None:
        # one run outside the handler first: the handler may interrupt an
        # import, so the kernel must not trigger numpy's lazy imports there
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def record(self) -> dict:
        return {"starts": self.starts, "ends": self.ends}


class SpeedModel:
    """Speed-adjusted durations from the samples of one or more probes.

    Time outside kernel runs is cut into pieces: each gap between two
    kernel runs is split at its midpoint, each half taking the scale
    K_REF / k of the kernel run it touches; time before the first run and
    after the last takes that run's scale.  `_elapsed(t)` is the adjusted
    time from the first kernel run to t, so a duration is a difference.
    """

    def __init__(self, records: list[dict]):
        pairs = sorted((s, e) for r in records for s, e in zip(r["starts"], r["ends"]))
        self.kernel = [e - s for s, e in pairs]
        if not pairs:
            return
        scale = [K_REF / k for k in self.kernel]
        self._first = (pairs[0][0], scale[0])
        self._lo, self._hi, self._scale, self._cum = [], [], [], [0.0]
        for k in range(1, len(pairs)):
            mid = 0.5 * (pairs[k - 1][1] + pairs[k][0])
            self._add(pairs[k - 1][1], mid, scale[k - 1])
            self._add(mid, pairs[k][0], scale[k])
        self._add(pairs[-1][1], math.inf, scale[-1])

    def _add(self, lo: float, hi: float, scale: float) -> None:
        self._lo.append(lo)
        self._hi.append(hi)
        self._scale.append(scale)
        self._cum.append(self._cum[-1] + (hi - lo) * scale)

    def _elapsed(self, t: float) -> float:
        start, scale = self._first
        if t < start:
            return (t - start) * scale
        i = bisect.bisect_right(self._lo, t) - 1
        if i < 0:  # inside the first kernel run
            return 0.0
        return self._cum[i] + (min(t, self._hi[i]) - self._lo[i]) * self._scale[i]

    def adjusted(self, a: float, b: float) -> float:
        """Duration of [a, b] without kernel runs, at reference speed; the
        raw duration when there are no samples."""
        if not self.kernel:
            return b - a
        return self._elapsed(b) - self._elapsed(a)
