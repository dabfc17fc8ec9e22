"""Machine-speed calibration.

The vCPUs of a shared virtual machine change speed by up to 1.8x, in
phases from under a second to minutes, and CPU time drifts with wall time.
So a round measures the speed while it works: every PERIOD_S a timer
signal makes the working thread run one slice of a fixed pure-Python loop,
which uses nothing from the program.  A call's time at reference speed is
its measured time, less the slices run inside it, scaled by REFERENCE_S
over the mean slice time during the call.  A change to the program moves
the call's time, not the slices'.

The slices run in the working thread itself: slices timed by a sampling
thread, which runs on whichever vCPU is free, did not follow the working
thread's speed.

The loop does the kind of work the program spends its time on: small
integer products reduced mod a prime, list indexing and dictionary updates.
"""

from __future__ import annotations

import signal
import time

# The median slice time on the machine the baseline in README.md was
# measured on.  It only sets the scale of the reported seconds.
REFERENCE_S = 0.010
SLICE_REPEATS = 80  # about 10 ms
PERIOD_S = 0.2  # so the slices cost a round about 5 %

_P = 1_000_003
_F = [(i * 7919 + 3) % _P for i in range(24)]
_G = [(i * 104_729 + 5) % _P for i in range(24)]


def loop_s() -> float:
    """Seconds one slice of the loop takes now."""
    t0 = time.perf_counter()
    seen: dict = {}
    for _ in range(SLICE_REPEATS):
        out = [0] * (len(_F) + len(_G) - 1)
        for i, a in enumerate(_F):
            for j, b in enumerate(_G):
                out[i + j] = (out[i + j] + a * b) % _P
        for k, v in enumerate(out):
            seen[v & 255] = seen.get(v & 255, 0) + k
    return time.perf_counter() - t0


class Meter:
    """Runs a slice every PERIOD_S in the main thread between start and stop.

    A process has one interval timer, and a forked child does not inherit
    it: a pool worker starts a Meter of its own.
    """

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, signum, frame):
        self.slices.append((time.perf_counter(), loop_s()))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def split(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds of [t0, t1] outside slices, mean slice time in it).

        A slice runs whole between two bytecodes of the thread, so it lies
        inside [t0, t1] or outside.  An interval too short to hold a slice
        takes the latest slice's time.
        """
        inside = [s for start, s in self.slices if t0 <= start <= t1]
        recent = inside or [s for _, s in self.slices[-1:]] or [loop_s()]
        return t1 - t0 - sum(inside), sum(recent) / len(recent)


def at_reference(seconds: float, speed_s: float) -> float:
    """`seconds` measured while a slice took `speed_s`, at reference speed."""
    return seconds * REFERENCE_S / speed_s
