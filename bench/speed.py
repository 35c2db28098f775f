"""Machine-speed reference for the end-to-end times.

The shared two-CPU host the benchmark was tuned on changes speed by up to a
factor of two within seconds to minutes, and process CPU time slows down
with it, so raw times from two runs of the same code differ by more than
any useful bound.  A fixed pure-Python kernel, which uses nothing from
parajet, is therefore timed after every sample (outside the sample's timed
span).  Each sample's wall and CPU time is multiplied by REFERENCE_MS over
the kernel's median time in the WINDOW probes around that sample: the
result is the time the sample would take on a machine where the kernel
takes REFERENCE_MS.  A change to the program moves these scaled times as it
moves the raw ones; a change in the machine's speed moves the kernel as
well and cancels out.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from typing import Dict, List, Tuple

# About the kernel's median wall and CPU time on the reference machine
# (Python 3.11.7, 2 CPUs); it only sets the scale of the reported times.
REFERENCE_MS = 10.0
# probes whose median scales one sample: three before it, its own, three after
WINDOW = 7

# The kernel's data: a few megabytes of big rationals read in a fixed random
# order, so that, like the program, it runs out of the caches rather than in
# them, and a neighbour that contends for the caches slows both alike.
_rng = random.Random(12345)
POOL = [Fraction(_rng.getrandbits(120) + 1, _rng.getrandbits(120) + 1) for _ in range(30000)]
ORDER = [_rng.randrange(len(POOL)) for _ in range(1000)]
del _rng


def kernel() -> Dict[Tuple[int, int], int]:
    """Fixed work in the program's own idiom: rational products and tuple-keyed dicts."""
    pool, order = POOL, ORDER
    table: Dict[Tuple[int, int], int] = {}
    for n, i in enumerate(order):
        x = pool[i] * pool[order[n - 1]] + pool[order[n - 2]]
        key = (i % 53, n % 47)
        table[key] = table.get(key, 0) + x.numerator.bit_length() * x.denominator.bit_length()
    return table


class SpeedProbe:
    """Kernel timings in run order, and the scale factors they give."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []

    def measure(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)

    def _factor(self, times: List[float], i: int) -> float:
        lo = max(0, min(i - WINDOW // 2, len(times) - WINDOW))
        return REFERENCE_MS * 1e-3 / statistics.median(times[lo : lo + WINDOW])

    def wall_factor(self, i: int) -> float:
        """Scale for the wall time of the sample followed by probe ``i``."""
        return self._factor(self.wall, i)

    def cpu_factor(self, i: int) -> float:
        return self._factor(self.cpu, i)
