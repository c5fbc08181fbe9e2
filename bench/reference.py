"""The machine's speed, measured beside every operation.

Each vCPU of this VM switches, every fraction of a second to every few
seconds, between a fast and a slow speed, at which the same loop takes 1.5
to 1.9 times as long, and the share of time spent in each drifts over
minutes (bench/README.md).  Raw wall times of the same work therefore
spread more than any useful bound.  The workload process is pinned to one
CPU, and between operations, outside their timing, it times a reference:
work of the benchmark's own that slows down as the measured work does.
Every operation's wall time is multiplied by the reference's REFERENCE_S
over its time around the operation: time metrics read as wall time on a
machine on which the reference takes exactly REFERENCE_S.

Two references are used.  `Loop`, for work done in the workload process,
is a fixed loop of Python run in that process.  It allocates no container
and runs with the collector paused, so it never runs the cyclic collector
over the program's objects.  A program change that slows every line of
Python in its process (a tracing hook, a busy thread) would slow the loop
too and be hidden; the traced run's `machine.slowdown`, the median of
the reference's time over REFERENCE_S, shows such a change.  `Spawn`, for the `cli`
calls, which are fresh processes whose time is mostly interpreter start-up,
is a fresh isolated interpreter that runs `pass`; the Python loop does not
track the speed of process start-up.  It never imports the program.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time

_SEQ = [((i * 7919) % 9 - 4) or 1 for i in range(300)]


def _loop(out, counts):
    # Free reduction and dict updates on a fixed input, the kind of work
    # the program does, in containers made before the timing.
    for _ in range(10):
        out.clear()
        for c in _SEQ:
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
            counts[c] += 1
    return len(out)


class Loop:
    """A fixed loop of Python in the measured process."""

    REFERENCE_S = 0.0004
    EVERY_S = 0.005  # least measured time between two samples

    def sample(self):
        """The loop's time now, in seconds: the median of three runs."""
        out, counts = [], dict.fromkeys(range(-4, 5), 0)
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                _loop(out, counts)
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        times.sort()
        return times[1]


class Spawn:
    """A fresh isolated interpreter that runs `pass` and exits."""

    REFERENCE_S = 0.05
    EVERY_S = 0.0

    def sample(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
        return time.perf_counter() - t0


def pin():
    """Keep this process, and the processes it starts, on one CPU, so that
    the reference runs where the measured work runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scaled(seconds, sample_s, reference_s):
    """Wall time measured while the reference took sample_s, at the
    reference speed."""
    return seconds * reference_s / sample_s
