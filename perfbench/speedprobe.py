"""Host speed, measured next to the work, to take the shared host's noise out
of the benchmark's times.

The benchmark's host shares its cores with other machines' work, and its
speed changes within seconds: a fixed `Fraction` loop takes anywhere from
1× to 1.7× its unloaded time, in spells of a few seconds, and the krall6
work slows down with it.  Medians over whole repetitions cannot remove
that, so `SpeedProbe` times a fixed loop (pure standard library, no krall6
code) on a daemon thread every `INTERVAL_S` seconds while the work runs,
and `normalised` scales each stretch of the work between two probes by
`REFERENCE_S / (the probe time at that moment)`.  The result is the time
the work would take on the reference host with no other load: the unit is
still seconds, and a change that makes krall6 slower or faster moves it by
the same share as the raw time.

Each stretch uses the median of the five probes around it, so a single
probe that a garbage collection or a thread switch lengthened does not
count.  The probe holds the GIL for well under a millisecond per
`INTERVAL_S`, so it costs the work under 1%.

Set-up is too short for a probe thread: `probe_time` runs a few probe loops
right after it, and the set-up time is scaled by their median.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from fractions import Fraction

INTERVAL_S = 0.1
# The probe loop's time on an unloaded vCPU of the reference host
# (2-vCPU x86-64 VM, CPython 3.11).
REFERENCE_S = 0.0004
WINDOW = 2  # probes on each side in the median for one stretch


def probe_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i * i + 1)
    return total


def probe_time() -> float:
    """Median time of a few probe loops run now, on the calling thread."""
    times = []
    for _ in range(9):
        start = time.perf_counter()
        probe_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Probe the host's speed on a daemon thread from `start` to `stop`."""

    def __init__(self):
        # (wall clock, process CPU clock, probe duration), taken as each probe starts
        self.samples: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        while True:
            wall, cpu = time.perf_counter(), time.process_time()
            probe_loop()
            self.samples.append((wall, cpu, time.perf_counter() - wall))
            if self._stop.wait(INTERVAL_S):
                return

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def normalised(self, clock: int, start: float, end: float) -> float:
        """Scale the span `start`..`end` of a clock (0: wall, 1: process CPU)
        to the reference host's unloaded speed."""
        cuts = [s[clock] for s in self.samples]
        durations = [s[2] for s in self.samples]
        inside = [k for k, cut in enumerate(cuts) if start < cut < end]
        bounds = [start] + [cuts[k] for k in inside] + [end]
        # each stretch is timed by the last probe before it (the first probe if none)
        owners = [max(bisect.bisect_right(cuts, start) - 1, 0)] + inside
        return sum(
            (upto - since) * REFERENCE_S / statistics.median(durations[max(k - WINDOW, 0):k + WINDOW + 1])
            for since, upto, k in zip(bounds, bounds[1:], owners)
        )
