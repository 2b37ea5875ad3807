"""A clock that reads time at a fixed reference speed of the processor.

On a shared machine other tenants slow this process's core by up to about
1.7x, in phases of a tenth of a second to several seconds that come and go
independently on each core. A job of a few seconds spans many phases, so its
wall time says as much about the neighbours as about the program, and no
statistic over a handful of repeats undoes that.

`SpeedClock` tracks the core's current speed from inside the process: every
INTERVAL_S a SIGALRM handler times `kernel`, a fixed piece of pure-Python
work of the same kind as revaudit's (Fraction arithmetic, tuple keys, dict
updates, a sort). `now()` advances by the wall time elapsed outside the
handler, scaled by REF_NS over the median of the last three kernel times.
A job that takes 1.6x longer because the core ran 1.6x slower reads the same
on this clock, while a job that does more work reads longer. The handler's
own time is left out of the readings.

REF_NS sets the unit only. It is the kernel's time, between calls into
revaudit, on an uncontended core of the machine the baseline was measured on
(Intel Xeon, Python 3.11.7), so there readings are close to the wall time of
an uncontended run.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import Counter, deque
from fractions import Fraction

INTERVAL_S = 0.005
REF_NS = 100_000


def kernel():
    acc, table = Fraction(0), {}
    for i in range(1, 12):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        key = (i % 13, i % 5)
        table[key] = table.get(key, Fraction(0)) + f
    return acc, tuple(sorted(table.items()))


class WallClock:
    """The plain wall clock, with SpeedClock's interface."""

    def sample(self) -> None:
        pass

    def now(self) -> float:
        return time.perf_counter_ns()


class SpeedClock:
    """Install with `start()`, read with `now()` (ns at reference speed) and
    remove with `stop()`. It owns SIGALRM, so only one may run at a time, in
    the main thread. `sample()` may also be called directly, to take a fresh
    speed reading just before a job."""

    def __init__(self) -> None:
        self._virtual = 0.0
        self._mark = time.perf_counter_ns()
        self._recent: deque[int] = deque(maxlen=3)
        self._scale = 1.0
        self._seq = 0
        self._previous = None
        # Samples per slowdown (kernel time over REF_NS, in tenths).
        self.slowdown: Counter = Counter()

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter_ns()
        self._virtual += (start - self._mark) * self._scale
        kernel()
        took = time.perf_counter_ns() - start
        self._recent.append(took)
        self._scale = REF_NS / statistics.median(self._recent)
        self.slowdown[round(took / REF_NS, 1)] += 1
        self._mark = time.perf_counter_ns()
        self._seq += 1

    def start(self) -> None:
        if self._previous is not None:
            raise RuntimeError("speed clock already started")
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        for _ in range(3):
            self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def now(self) -> float:
        # A sample that lands while the sum is formed changes `_seq`; read
        # again, so that `_virtual`, `_mark` and `_scale` belong together.
        while True:
            seq = self._seq
            value = self._virtual + (time.perf_counter_ns() - self._mark) * self._scale
            if seq == self._seq:
                return value

    def slowdown_shares(self) -> dict[str, float]:
        """Share of samples at each slowdown, to show how contended a run was."""
        total = sum(self.slowdown.values()) or 1
        return {f"{k:.1f}": n / total for k, n in sorted(self.slowdown.items())}
