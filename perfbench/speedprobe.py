"""Reference-speed probe: times in CPU seconds at a fixed reference speed.

The shared host this benchmark was built on runs pure-Python code at speeds
up to 1.8x apart, changing within tens of milliseconds and in phases of
seconds to minutes, while the program stays the same; now and then it also
stops the process for milliseconds.  Raw wall times then measure the host
more than the program.  Two corrections, both from inside the measured
process, take it out:

- `clock` is the main thread's CPU time.  The timed part runs on that one
  thread and never waits, so its CPU time is its wall time less the stops.
  (The process's CPU clock will not do: while a process-wide timer such as
  the probe's is armed, Linux advances it only at scheduler ticks.)
- Every INTERVAL_S of CPU time, a SIGPROF handler runs `reference()`, a
  fixed piece of work, and records when it started and ended.
  `Timeline.span(a, b)` converts the interval [a, b] of `clock` into
  nanoseconds at reference speed: the probe time inside the interval is
  left out, and every stretch between two probes is scaled by NOMINAL_NS
  over the time the neighbouring probes took.

A stretch that ran while `reference()` took twice NOMINAL_NS counts half.
The host slows interpreted Python more than numpy's C loops, so
`reference()` mixes the two, as the workloads do: code that slows with the
host as that mix does reads the same in fast and slow phases, and code
that leans further one way is corrected too little or too much.  The
handler runs between bytecodes of the main thread, so a long C call delays
it but is never interrupted.
"""
from __future__ import annotations

import atexit
import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
NOMINAL_NS = 800_000  # reference() on the 2-vCPU machine of README.md, fast phase

clock = time.thread_time_ns


_MATRIX = np.arange(36.0).reshape(6, 6) / 7


def reference() -> int:
    """Fixed work: dict stores and big-int arithmetic in the interpreter,
    then small numpy products like those of the numeric solve."""
    table = {}
    x = 1
    for i in range(1200):
        table[i & 1023] = i * 3
        x = (x * 1103515245 + 12345) % (1 << 61)
    a = _MATRIX
    for i in range(60):
        a = a * 0.5 + np.outer(a[:, i % 6], a[i % 6, :]) @ a.T * 1e-3
    return x


class Probe:
    """Runs reference() every INTERVAL_S of CPU time from start() to stop()."""

    def __init__(self):
        self.marks: list[tuple[int, int]] = []
        self._busy = False

    def _run(self, *_):
        if self._busy:
            return
        self._busy = True
        start = clock()
        reference()
        self.marks.append((start, clock()))
        self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._run)
        self._run()
        # disarmed on every way out, or a late SIGPROF kills the exiting process
        atexit.register(signal.setitimer, signal.ITIMER_PROF, 0)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> "Timeline":
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._run()
        return Timeline(self.marks)


class Timeline:
    """Intervals of `clock` converted to reference-speed nanoseconds."""

    def __init__(self, marks: list[tuple[int, int]]):
        self.starts = [start for start, _ in marks]
        self.ends = [end for _, end in marks]
        took = [end - start for start, end in marks]
        # one probe is short and can be hit by a single hiccup: smooth over three
        self.took = [statistics.median(took[max(0, i - 1):i + 2]) for i in range(len(took))]
        # factor of the stretch after probe i; the last one runs on to +inf
        self.after = [2 * NOMINAL_NS / (self.took[i] + self.took[min(i + 1, len(took) - 1)])
                      for i in range(len(took))]
        # reference-speed time at the start of each probe, from the first one
        self.at_start = [0.0]
        for i in range(1, len(marks)):
            gap = self.starts[i] - self.ends[i - 1]
            self.at_start.append(self.at_start[-1] + gap * self.after[i - 1])

    def _at(self, t: int) -> float:
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:  # before the first probe: its factor holds
            return (t - self.starts[0]) * NOMINAL_NS / self.took[0]
        if t <= self.ends[i]:
            return self.at_start[i]
        return self.at_start[i] + (t - self.ends[i]) * self.after[i]

    def span(self, a: int, b: int) -> float:
        """Reference-speed nanoseconds of the work done from a to b."""
        return self._at(b) - self._at(a)

    def probe_ms(self) -> float:
        """Median time reference() took, in ms; NOMINAL_NS / 1e6 at reference speed."""
        return statistics.median(self.took) / 1e6


class RawTimeline:
    """The identity: for runs without the probe (the traced runs)."""

    @staticmethod
    def span(a: int, b: int) -> float:
        return float(b - a)

    @staticmethod
    def probe_ms():
        return None
