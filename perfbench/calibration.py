"""In-run calibration against a fixed reference kernel.

The host this benchmark was built on (a 2-core x86 VM) is shared, and
co-tenants slow its CPU in phases that last from seconds to minutes and
that the guest cannot see (no steal time, no other runnable process). One
churn input, run over and over in one process for 60 s, took from 1.5 to
2.7 s per round: an interquartile spread of 27% on identical work. Phases
that long cannot be averaged out inside a run.

So the worker times :func:`reference` between slices of each run and
after each set-up, and reports wall times scaled by ``REFERENCE_S /
reference time``: seconds at the reference kernel's nominal speed. Over
the same 60 s the calibrated round times spread by 7%.

The kernel is plain bytecode over a few kilobytes, timed warm: an
untimed pass first brings it into cache, so whatever the program left in
the caches cannot slow the timed passes, and a change to the program
cannot move the kernel. (A kernel probing a large table cold read 2.5 to
4 times its stand-alone time inside a run, depending on the workload's
working set.) On quiet rounds it reads inside a run what it reads alone.
"""

from __future__ import annotations

import random
import time

__all__ = ["REFERENCE_S", "reference"]

#: the reference kernel's time in a quiet phase of the 2-core x86 VM the
#: benchmark was built on (Python 3.11), so that calibrated seconds read
#: about as wall seconds there; it only sets the scale of the figures
REFERENCE_S = 0.00025

_rng = random.Random(20071004)


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b


_SMALL = [_Obj(_rng.random(), 1) for _ in range(300)]


def _compute() -> int:
    hits = 0
    for _ in range(8):
        for obj in _SMALL:
            hits += obj.b
    for i in range(3000):
        hits += i * i % 7
    return hits


def reference() -> float:
    """Wall seconds of one warm pass of the fixed reference kernel (the
    median of three, after an untimed one)."""
    _compute()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _compute()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]
