"""Host-speed correction for call times on shared cores.

On the shared 2-core host the benchmark was defined on, the same
pure-Python work ran up to 70% slower from one second to the next, each
core on its own, and the share of slow seconds changed over minutes.  Wall
time of a call then said more about the host than about gbei.

`SpeedProbe` runs a fixed pure-Python kernel, which imports nothing from
gbei, in a background thread of the measuring process every PERIOD_S, and
`adjust` scales a call's wall time by the host speed measured during the
call:

    adjusted = wall * mean(KERNEL_REF_S / kernel time of each sample)

With samples evenly spaced in time, that is the integral of the speed
over the call: the work done, counted in seconds at the reference speed,
where the kernel takes KERNEL_REF_S.  A change to gbei moves the wall
time and not the kernel, so it moves the adjusted time by the same share.

The kernel runs for less than the switch interval, so it holds the GIL
from start to end and a sample times only the kernel.
`pin_to_current_cpu` keeps the process, and so the probe and the calls,
on one core.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

# speed changes within a second: sampling every 20 ms rather than 50 ms cut
# the spread of repeated identical calls from 12% to 8%
PERIOD_S = 0.02
# a fixed scale near the kernel's time: run medians of the kernel ranged from
# 0.53 to 0.91 ms on the host above (x86-64 Xeon at 2.0 GHz, CPython 3.11)
KERNEL_REF_S = 0.0009
KERNEL_BITS = 12
SWITCH_INTERVAL_S = 0.02


def kernel() -> int:
    """Lowest-bit peeling over masks, with list and bytearray lookups
    indexed by them.  Compared with small dicts and tuples, a walk over a
    large list, and a sparse integer elimination, its time tracked
    repeated identical verify, invariants and corpus calls as closely as
    the best of them (see README.md)."""
    table = [0] * (1 << KERNEL_BITS)
    flags = bytearray(1 << KERNEL_BITS)
    for t in range(1, 1 << KERNEL_BITS, 6):
        rest = t
        count = 0
        while rest:
            low = rest & -rest
            rest ^= low
            count += table[t ^ low]
        table[t] = count & 7
        flags[t] = count & 1
    return sum(flags)


def pin_to_current_cpu() -> int | None:
    """Bind this process to the core it runs on; None where that is not
    possible."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        cpu = int(fields[36])
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (OSError, ValueError, IndexError, AttributeError):
        return None


class SpeedProbe:
    """Kernel samples (midpoint, seconds), one every PERIOD_S while the
    probe is entered.  Read them with `speed` and `adjust` after it exits."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = perf_counter()
            kernel()
            end = perf_counter()
            self.at.append((start + end) / 2)
            self.took.append(end - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._previous_interval)

    def speed(self, start: float, end: float) -> float:
        """Mean speed, KERNEL_REF_S over the kernel time, of the samples
        taken in [start, end] and of the nearest sample on each side."""
        lo = max(0, bisect_left(self.at, start) - 1)
        hi = min(len(self.at), bisect_right(self.at, end) + 1)
        if lo >= hi:
            raise RuntimeError("the speed probe took no samples")
        return statistics.fmean(KERNEL_REF_S / k for k in self.took[lo:hi])

    def adjust(self, wall_s: float, start: float, end: float) -> float:
        """Wall time at the reference speed: the time the call would have
        taken had every moment of it run at the reference speed."""
        return wall_s * self.speed(start, end)
