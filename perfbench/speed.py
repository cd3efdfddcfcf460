"""Machine-speed calibration.

The speed of a small shared virtual machine drifts: a fixed input can run
1.7 times as long a few seconds later, in CPU time as well as wall time, and
both of its CPUs drift together (the mean time of a reference task on one
CPU and on the other, in half-second bins, correlate at 0.93).  So while
the benchmark runs, a sampler process on the other CPU times a fixed
reference task (Fraction elimination in pure Python, like the program's own
arithmetic, and independent of reflext) every INTERVAL_S, and each timed
call is scaled to the speed at which one task takes REFERENCE_S:

    reference seconds = measured seconds * REFERENCE_S / mean task time during the call

A change to reflext moves the measured time and leaves the task alone, so it
moves the reference seconds by the same share.  The sampler keeps one CPU
busy for a few percent of the time and shares no memory with the benchmark.

    python3 -m perfbench.speed   # the sampler: ticks until its stdin closes,
                                 # then prints its ticks as JSON
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Seconds one task takes at the reference speed: about its time on the
# 2-vCPU x86_64 virtual machine with Python 3.11.7 where the benchmark was
# written, so reference seconds read close to seconds there.
REFERENCE_S = 0.0003

INTERVAL_S = 0.005
# a call's speed is the mean over the tasks started during it and this long
# before and after it, so a short call still sees several
WINDOW_S = 0.1

_N = 4


def reference_task() -> Fraction:
    """Gauss-Jordan elimination of a fixed 4x4 rational matrix; returns its
    determinant so that the work cannot be skipped."""
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(_N)] for i in range(_N)]
    det = Fraction(1)
    for c in range(_N):
        pivot = a[c][c]
        det *= pivot
        for r in range(_N):
            if r != c and a[r][c]:
                f = a[r][c] / pivot
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def scale(seconds: float, task_seconds: float) -> float:
    """`seconds` measured while one task took `task_seconds`, in reference seconds."""
    return seconds * REFERENCE_S / task_seconds


class Sampler:
    """The sampler process, as a context manager.  After it has exited,
    `reference(t0, t1)` converts a call timed with time.perf_counter from
    t0 to t1 meanwhile (perf_counter is the system's monotonic clock, shared
    by both processes)."""

    def __init__(self, cwd: str):
        self.cwd = cwd
        self.starts: list[float] = []
        self.tasks: list[float] = []
        self._proc = None

    def __enter__(self) -> "Sampler":
        env = dict(os.environ, PYTHONPATH=self.cwd)
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.speed"], cwd=self.cwd, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("the speed sampler did not start")
        return self

    def __exit__(self, exc_type, *exc) -> None:
        ticks = self._stop()
        if exc_type is None:
            if not ticks:
                raise RuntimeError("the speed sampler recorded nothing")
            self.starts = [t for t, _ in ticks]
            self.tasks = [d for _, d in ticks]

    def _stop(self):
        proc, self._proc = self._proc, None
        try:
            out, _ = proc.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return []
        return json.loads(out) if proc.returncode == 0 and out.strip() else []

    def reference(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval [t0, t1]."""
        lo = min(bisect.bisect_left(self.starts, t0 - WINDOW_S), len(self.starts) - 1)
        hi = max(bisect.bisect_left(self.starts, t1 + WINDOW_S), lo + 1)
        return scale(t1 - t0, statistics.fmean(self.tasks[lo:hi]))


def main() -> None:
    """Time one task every INTERVAL_S until stdin closes; print the ticks
    (start, seconds) as JSON."""
    reference_task()
    ticks = []
    print("ready", flush=True)
    while True:
        t = time.perf_counter()
        reference_task()
        ticks.append((t, time.perf_counter() - t))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break  # stdin is readable only at its end
    json.dump(ticks, sys.stdout)


if __name__ == "__main__":
    main()
