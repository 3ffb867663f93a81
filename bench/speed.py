"""The speed of the machine while a run measures, from a fixed reference.

On a shared host the same pure-Python code runs up to three quarters
slower for tens of seconds at a time, and even its best time over such
a stretch moves with it.  The reference below is a small search of the
same kind as the library's (tuples of pebble counts, a set of seen
states, list and tuple building) that does not use the library, so a
change to the library never changes its time.  It is sampled between
the operations, one sample per ``EVERY_SECONDS``, and the mean of the
samples around an operation tells how fast the machine ran while it
ran; its time is scaled by ``REF_SECONDS`` over that mean, which gives
the time the same work takes on a machine that runs the reference in
``REF_SECONDS``, close to its mean on a 2.1 GHz Xeon vCPU.  The mean
follows the work's own time better than the median or the best sample
does, because the slow stretches come in bursts of a few milliseconds
that an operation sits through in proportion to their share of time,
and samples near the operation follow it better than those of a whole
pass.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_SECONDS = 6e-4
EVERY_SECONDS = 0.01
WINDOW = 0.02


def reference(n: int = 7, size: int = 14) -> int:
    """Every configuration reachable by pebbling moves from ``size``
    pebbles on one vertex of the n-cycle; returns how many there are."""
    seen = set()
    stack = [(size,) + (0,) * (n - 1)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        for u in range(n):
            if state[u] >= 2:
                for x in ((u - 1) % n, (u + 1) % n):
                    nxt = list(state)
                    nxt[u] -= 2
                    nxt[x] += 1
                    stack.append(tuple(nxt))
    return len(seen)


class SpeedProbe:
    """Times of the reference around timed work.

    ``after(start, end)`` follows each timed piece of work: it takes the
    samples due, one per ``EVERY_SECONDS`` since the first sample, so a
    long piece gets as many right after it as its length calls for, and
    notes the piece.  ``scales()`` then gives each piece the factor
    ``REF_SECONDS`` over the mean of the samples taken within ``WINDOW``
    seconds of it or right after it.
    """

    def __init__(self):
        self.mids: list[float] = []
        self.times: list[float] = []
        self.pieces: list[tuple[float, float, int]] = []
        self._start = None

    def sample(self, force: bool = True) -> None:
        clock = time.perf_counter
        if self._start is None:
            self._start = clock()
        due = int((clock() - self._start) / EVERY_SECONDS) + 1
        while force or len(self.times) < due:
            force = False
            start = clock()
            reference()
            end = clock()
            self.mids.append((start + end) / 2)
            self.times.append(end - start)

    def after(self, start: float, end: float) -> None:
        self.sample(force=False)
        self.pieces.append((start, end, len(self.times)))

    def scales(self) -> list[float]:
        prefix = [0.0]
        for t in self.times:
            prefix.append(prefix[-1] + t)
        out = []
        for start, end, taken in self.pieces:
            lo = bisect.bisect_left(self.mids, start - WINDOW)
            hi = max(bisect.bisect_right(self.mids, end + WINDOW), taken)
            if hi <= lo:
                lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
            out.append(REF_SECONDS * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out

    def mean(self) -> float:
        return statistics.fmean(self.times)


class NullProbe:
    """No speed samples: times are left as measured."""

    def sample(self, force: bool = True) -> None:
        pass

    def after(self, start: float, end: float) -> None:
        pass

    def scales(self) -> list[float]:
        return []

    def mean(self) -> float:
        return REF_SECONDS
