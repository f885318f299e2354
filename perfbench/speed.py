"""Times at a fixed reference speed of the machine.

The benchmark was written on a 2-vCPU shared virtual machine whose speed
drifts: the same pure-Python loop runs up to twice as slow for seconds to
minutes at a time, when neighbours load the host.  Fastest-of statistics do
not escape a slow spell that covers a whole run, and a single call of half
a second never runs entirely in a quiet moment.

So every timed step runs between reference loops: a fixed pure-Python loop
of dict and tuple work, like the library's.  A slow spell slows the step and
the loops around it alike, so the step's time over the loops' time stays
put while both drift.  That ratio times REF_LOOP_S, the loop's time on the
quiet machine, is the step's time in seconds at the quiet machine's speed.
A change to the library moves the step and not the loops, and shows in full.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable

# fastest time of reference_loop() over 30 s on the 2-vCPU Intel Xeon
# (2.1 GHz) virtual machine the benchmark was written on, Python 3.11
REF_LOOP_S = 0.0040
LOOPS_PER_SIDE = 3


def reference_loop() -> int:
    seen: dict[tuple[int, int], int] = {}
    for i in range(16_000):
        key = (i * 7919 % 4099, i & 7)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def loop_seconds() -> list[float]:
    out = []
    for _ in range(LOOPS_PER_SIDE):
        start = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - start)
    return out


def scale(before: list[float], after: list[float]) -> float:
    """What takes a time measured between these loops to the reference
    speed: REF_LOOP_S over the median of the loops."""
    return REF_LOOP_S / statistics.median(before + after)


def around(fn: Callable, *args: Any) -> tuple[Any, float]:
    """Run fn(*args) between reference loops; its result and the scale."""
    before = loop_seconds()
    out = fn(*args)
    return out, scale(before, loop_seconds())
