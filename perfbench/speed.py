"""The machine's speed, sampled during a run with a fixed piece of work.

On a shared host the same Python code runs up to twice as slowly for
minutes at a time.  Raw wall times then differ between runs by more than any
useful bound, whatever the benchmark does.  So the runner times a fixed
piece of interpreter work (reference_work) every SAMPLE_EVERY_S of wall
time, and scales each op's latency by NOMINAL_S / (the reference's time
around that op).  An interval timer's signal takes the samples in the
main thread, inside long ops as well as between ops; their time is taken
out of the op's latency.  Times are thus reported at the speed of the
reference machine, where reference_work took NOMINAL_S; the raw times are
printed beside them.

The reference does what coda's hot paths do: it builds small `__slots__`
objects that hash tuples of their children, and fills a dict.  It does
not touch the coda package, and it runs with the cyclic garbage collector
off, so neither a change to coda nor the collector's state (thresholds,
frozen or tracked objects, which coda may change) moves it.  A change to
the collector's policy moves the ops but not the reference: judge it on
the raw figures too.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter
from typing import List, Tuple

# reference_work's time on the reference machine (Python 3.11, 2-core x86
# virtual machine, shared with other tenants) in its fast state.
NOMINAL_S = 0.0005
SAMPLE_EVERY_S = 0.1  # of wall time between two samples
WINDOW_S = 1.0  # samples this far (in wall time) around an op set its speed


class _Node:
    __slots__ = ("left", "right", "key")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.key = hash((left, right))


def reference_work() -> int:
    memo = {}
    nodes: List[_Node] = []
    for i in range(600):
        n = _Node(() if i & 1 else (i,), tuple(nodes[-2:]))
        nodes.append(n)
        memo[n.key & 255] = n
    return len(memo)


def sample() -> float:
    """Seconds one run of reference_work takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    t = perf_counter()
    reference_work()
    took = perf_counter() - t
    if enabled:
        gc.enable()
    return took


def scale_of(samples: List[float]) -> float:
    """NOMINAL_S over the median of some samples."""
    return NOMINAL_S / statistics.median(samples)


class Speedometer:
    """Reference samples taken every SAMPLE_EVERY_S by SIGALRM while the
    meter is entered, placed on the perf_counter axis.

    A sample runs in the main thread at the next bytecode boundary, so no
    thread or process runs beside the ops.  Like any call, it raises
    RecursionError when it lands at the very edge of the recursion limit;
    only the ops above the limits, which raise it anyway, get there.
    `stolen` sums the seconds the samples took; the caller subtracts its
    growth over an op from the op's latency.
    """

    def __init__(self):
        self.at: List[float] = []  # perf_counter when each sample was taken
        self.took: List[float] = []
        self.stolen = 0.0

    def _take(self, *_signal) -> None:
        t = perf_counter()
        self.took.append(sample())
        self.at.append(t)
        self.stolen += perf_counter() - t

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._take()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def scale(self, start: float, end: float) -> float:
        """The scale for an op that ran from `start` to `end`: from the
        samples within WINDOW_S of it, or the nearest one on each side when
        a long call into C held the signal back that long."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), hi + 1
        return scale_of(self.took[lo:hi])

    def scaled(self, spans: List[Tuple[float, float, float]]) -> List[float]:
        """Scaled latencies of ops given as (start, end, latency)."""
        return [d * self.scale(s, e) for s, e, d in spans]
