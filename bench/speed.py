"""Host speed reference for the benchmark's timings.

The benchmark host is shared: on the 2-vCPU machine where the baseline was
taken, a fixed pure-Python loop ran anywhere from 20 to 37 times a second,
holding one speed for 5-30 s at a time, and the two vCPUs drifted
independently.  Raw wall times of the same work therefore differed by up to
50 % between runs.  To take that drift out, the benchmark keeps all its
processes on one CPU and runs a fixed reference kernel on it beside the
measured work, every INTERVAL_S on a timer signal, and scales each measured
time, less the kernel runs inside it, by NOMINAL_S over the median kernel
time within WINDOW_S of it.  A time
reported by the benchmark is thus "seconds on a host where the kernel takes
1 ms".  Changes to the program move it exactly as they move raw time; the
kernel is benchmark code and does not change with the program.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import signal
import statistics
import time

NOMINAL_S = 0.001
INTERVAL_S = 0.1
WINDOW_S = 1.0


def kernel() -> int:
    """Fixed work resembling the solvers' inner loops: integer bit
    arithmetic, set membership and a bounded heap."""
    heap: list[tuple[int, int]] = []
    seen = set()
    x = 12345
    for _ in range(1000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        m = x & 0xFFFFF
        if m not in seen:
            seen.add(m)
            heapq.heappush(heap, (-(m & 1023), m))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(seen)


class SpeedLog:
    """Reference samples of one process in time order, as [start, seconds
    taken in all, seconds of the timed kernel run].  Each sample runs the
    kernel twice and times the second run, so that the caches the measured
    work left behind do not slow the reading."""

    def __init__(self, samples: list | None = None) -> None:
        self.samples = samples if samples is not None else []
        self._starts: list[float] = []

    def sample(self, _signum=None, _frame=None) -> None:
        """Take one sample; also the timer signal's handler."""
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.samples.append([t0, t2 - t0, t2 - t1])

    def _index(self) -> list[float]:
        if len(self._starts) != len(self.samples):
            self._starts = [s for s, _, _ in self.samples]
        return self._starts

    def scaled(self, t0: float, dt: float) -> float:
        """The time of an operation that started at t0 and took dt, less the
        kernel runs that interrupted it, scaled to NOMINAL_S."""
        starts = self._index()
        i, j = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t0 + dt)
        own = dt - sum(d for _, d, _ in self.samples[i:j])
        return own * self.scale(t0, t0 + dt)

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median kernel time of the samples started
        within WINDOW_S of [t0, t1], or else of the nearest one each side."""
        self._index()
        i = bisect.bisect_left(self._starts, t0 - WINDOW_S)
        j = bisect.bisect_right(self._starts, t1 + WINDOW_S)
        if i == j:
            i, j = max(i - 1, 0), min(j + 1, len(self._starts))
        return NOMINAL_S / statistics.median(d for _, _, d in self.samples[i:j])


@contextlib.contextmanager
def sampling(log: SpeedLog):
    """Sample into ``log`` on entry, every INTERVAL_S while the block runs,
    and on exit.  Only the process being timed samples: a sample taken while
    another process runs on the CPU would count that process's time."""
    log.sample()
    previous = signal.signal(signal.SIGALRM, log.sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield log
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        log.sample()
