"""Times in reference seconds, to take the machine's speed out of a run.

On a shared machine the same pure-Python work can take up to twice as long
from one second to the next, as other tenants load the cores and caches.
Those swings last seconds, so they move whole runs and would swamp any
change to the program. The clock therefore runs a fixed calibration kernel
(dict, tuple and small-object work, as tablink does, and no tablink code)
right before and right after each timed operation, never during it, and
scales the operation's wall time by REFERENCE_S over the kernel's mean time
around it. A reference second is a second on a machine where the kernel
takes REFERENCE_S. The kernel runs with the garbage collector off, so that
its time depends on the machine and not on the heap the timed code left
behind. perfbench/README.md gives the check that a known change to the
timed code comes through at its full size.

Raw wall times are kept next to the scaled ones in every result file.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass

REFERENCE_S = 1e-3


@dataclass(frozen=True)
class _Key:
    kind: str
    num: int


_WORDS = ("Measles virus", "spike  protein", "the of strain", "Gene X") * 8


def kernel() -> int:
    counts: dict = {}
    rows = []
    for i in range(240):
        key = _Key("item", i % 61)
        counts[key] = counts.get(key, 0) + 1
        rows.append((-(i % 7), i * 0.5, key.num))
        for word in _WORDS[i % len(_WORDS)].lower().split():
            counts[word] = counts.get(word, 0) + 1
    rows.sort()
    return len(counts) + len(rows)


def kernel_seconds(repeats: int = 2) -> float:
    """Median wall time of ``repeats`` kernel runs (of two, their mean)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    mid = len(times) // 2
    return times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2


def cpus_kernel_seconds(repeats: int = 5) -> float:
    """Median kernel time over ``repeats`` runs on each CPU this process may
    use. The calling thread visits the CPUs in turn and ends allowed on all
    of them again, so that children it starts afterwards are not pinned."""
    if not hasattr(os, "sched_setaffinity"):
        return kernel_seconds(repeats)
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times += [kernel_seconds(1) for _ in range(repeats)]
    finally:
        os.sched_setaffinity(0, allowed)
    times.sort()
    mid = len(times) // 2
    return times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2


class Clock:
    """Times operations in raw and in reference seconds. Consecutive
    operations share the calibration between them."""

    def __init__(self, repeats: int = 2):
        self.repeats = repeats
        for _ in range(20):   # warm the kernel's code and allocator
            kernel()
        self._last = kernel_seconds(repeats)

    def time(self, fn, *args, **kwargs):
        """(result, raw seconds, reference seconds) of ``fn(*args)``."""
        before = self._last
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - start
            self._last = kernel_seconds(self.repeats)
        return result, raw, raw * REFERENCE_S * 2 / (before + self._last)
