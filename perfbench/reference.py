"""Machine speed, sampled all through a run, to report times at a fixed speed.

The benchmark's machine is a shared virtual machine whose speed swings by
more than a factor of two within a minute: a fixed block of pure-Python
work took from 14 to 34 ms on one 2-CPU host, and CPU time swings with wall
time, so neither is steady enough for a regression bound.  While a run
measures, :class:`SpeedSampler` times a small fixed block (``block``) from
a SIGALRM handler every ``INTERVAL_S`` of wall time.  A measured interval
then loses the handler time spent inside it, and is scaled by ``BLOCK_MS``
over the mean block time sampled in and next to it: times are reported in
milliseconds of a machine on which the block takes exactly ``BLOCK_MS``.
The block is sparse polynomial arithmetic on dicts of exponent tuples, like
the package's hot loops, and it belongs to the benchmark, so a change to the
package cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

BLOCK_MS = 1.0      # the scale: one block counts as this many ms
INTERVAL_S = 0.05   # wall time between two samples
WARM_UP = 20        # untimed blocks first: the first calls in a process run cold


def block() -> int:
    """Product of two fixed 30-term polynomials, coefficients mod 101."""
    a = {(i, i * 7 % 13, i % 5): i for i in range(30)}
    b = {(i % 9, i, i * 3 % 11): i + 1 for i in range(30)}
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = (out.get(key, 0) + c1 * c2) % 101
    return len(out)


class SpeedSampler:
    """Times :func:`block` every ``INTERVAL_S`` while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []     # sample start times, increasing
        self.durations: list[float] = []
        self._previous = None
        for _ in range(WARM_UP):
            block()

    def sample(self, *_signal_args) -> None:
        # a collection inside the block would charge it for the package's heap
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            block()
            duration = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.starts.append(start)
        self.durations.append(duration)

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _range(self, start: float, end: float) -> tuple:
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def net(self, start: float, end: float) -> float:
        """Wall seconds in [start, end] not spent taking samples."""
        lo, hi = self._range(start, end)
        return end - start - sum(self.durations[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end].

        Uses the samples taken inside the interval and the nearest one on
        each side: the speed changes within tenths of a second, so wider
        windows track it worse.
        """
        lo, hi = self._range(start, end)
        lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return BLOCK_MS / 1e3 / (sum(self.durations[lo:hi]) / (hi - lo))
