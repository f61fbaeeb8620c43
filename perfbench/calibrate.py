"""CPU-speed calibration for the CPU-bound workloads.

The benchmark runs on shared virtual machines whose CPU speed swings by up
to 2x for minutes at a time as other tenants' load comes and goes: the same
Python work takes 31 ms in one minute and 60 ms in the next, in CPU time as
well as wall time. Left alone, that swing would bury any change to ppc in
the CPU-bound workloads.

So between units of CPU-bound work the benchmark times a fixed piece of
pure-Python reference work, and scales each unit's time by REFERENCE_S
over the mean reference time just before and just after it. A time
reported this way is the unit's time at the reference CPU speed; on a
machine running at that speed the scaled and the measured time agree. The
reference work uses no ppc code, so a change to ppc cannot move it. Runs
print the mean scale. The same scaling applies to setup_s.
"""

from __future__ import annotations

import math
import re
import time

# The reference work's time at the reference speed: about its time on the
# 2-vCPU machine the baseline was taken on, when that machine was quiet.
REFERENCE_S = 0.003

_WORD = re.compile(r"\b[a-z]+\b")
_TEXT = "alpha beta gamma delta $x$ = 17, and so on. " * 40


def reference_work() -> int:
    """A fixed mix of what ppc's CPU paths do: slicing, splitting, regex,
    dicts, and float arithmetic over freshly built lists."""
    counts: dict[str, int] = {}
    n = 0
    for i in range(200):
        words = _TEXT[i % 900 : i % 900 + 40].split()
        key = words[0] if words else ""
        counts[key] = counts.get(key, 0) + 1
        n += len(_WORD.findall(_TEXT, i % 700, i % 700 + 60))
    for j in range(2):
        xs = [math.exp(-(i + j) * 1e-4) for i in range(1500)]
        ys = [min(max(x, 0.9), 1.1) * 0.5 for x in xs]
        n += int(sum(ys))
    return n + len(counts)


def reference_time() -> float:
    """Seconds the reference work takes now."""
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


def scales(refs: list) -> list:
    """Per unit, REFERENCE_S over the mean reference time on either side of it.

    `refs` holds the reference time taken before each unit and one taken
    after the last, so it is one longer than the list of units.
    """
    return [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
