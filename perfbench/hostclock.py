"""Host time in reference-host seconds.

The benchmark's host is a few vCPUs of a shared machine whose speed
changes from second to second: a fixed pure-Python loop timed back to
back for seven minutes had a quartile spread of 28% over 1 s windows
and still 10-13% over 30 s windows, with slow episodes lasting a few
seconds.  A run's raw times follow the host, not the program.

:class:`HostClock` samples the host's speed while the benchmark runs.
A timer signal interrupts the main thread every :data:`PERIOD` seconds
and runs :func:`probe`, a fixed mix of interpreter arithmetic and list
reads, timed by the thread's CPU clock (so waiting for the GIL or for
the scheduler does not count).  A timed *span* records its host
seconds minus the probes run inside it; :meth:`HostClock.seconds`
scales them by ``REFERENCE_PROBE_S`` over the mean probe time from
``WINDOW`` seconds before the span to ``WINDOW`` seconds after it.  On
a host as fast as the reference host the two readings agree; on a host
running 30% slow the raw span reads 30% long and the probe with it, and
the scaled span does not.  The probe touches nothing of the program, so
a program that gets slower reads slower.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

clock = time.perf_counter

#: seconds between probes (about 1% of the host's time goes to them)
PERIOD = 0.1
#: probes this far before and after a span count for it (seconds)
WINDOW = 1.0
#: a span with fewer probes in its window uses this many nearest ones
MIN_PROBES = 5
#: thread-CPU seconds of :func:`probe` on the reference host when it
#: runs at full speed (see perfbench/README.md)
REFERENCE_PROBE_S = 0.00085

_TABLE = list(range(1 << 16))
_STEPS = [random.Random(0).randrange(1 << 16) for __ in range(1 << 14)]


def probe() -> int:
    """A fixed piece of interpreter work: arithmetic and scattered list
    reads over a table of a few MiB."""
    total = 0
    for step in _STEPS:
        total += _TABLE[step] * step % 7
    return total


@dataclass(frozen=True)
class Span:
    """One timed phase: its start and end on the host clock, and its
    host seconds with the probes inside it taken out."""

    start: float
    end: float
    host_seconds: float


class HostClock:
    """Probes the host's speed while it runs; times spans."""

    def __init__(self) -> None:
        #: (start, thread-CPU seconds) of every probe
        self.probes: List[Tuple[float, float]] = []
        #: host seconds spent in probes so far
        self.spent = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        start = clock()
        cpu = time.thread_time()
        probe()
        self.probes.append((start, time.thread_time() - cpu))
        self.spent += clock() - start

    def mark(self) -> Tuple[float, float]:
        """The start of a span whose end :meth:`since` takes."""
        return clock(), self.spent

    def since(self, mark: Tuple[float, float]) -> Span:
        start, spent = mark
        end = clock()
        return Span(start, end, end - start - (self.spent - spent))

    def timed(self, fn: Callable[[], object]) -> Tuple[object, Span]:
        """Collect garbage, then run ``fn`` as one span."""
        gc.collect()
        mark = self.mark()
        result = fn()
        return result, self.since(mark)

    def seconds(self, span: Span) -> float:
        """``span`` in reference-host seconds."""
        if not self.probes:
            raise RuntimeError("the host clock took no probe; start() it first")
        near = [cpu for start, cpu in self.probes
                if span.start - WINDOW <= start <= span.end + WINDOW]
        if len(near) < MIN_PROBES:
            middle = (span.start + span.end) / 2
            nearest = sorted(self.probes, key=lambda p: abs(p[0] - middle))
            near = [cpu for __, cpu in nearest[:MIN_PROBES]]
        return span.host_seconds * REFERENCE_PROBE_S / statistics.fmean(near)


#: the clock every timed phase of a run reads
CLOCK = HostClock()
