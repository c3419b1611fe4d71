"""Host-speed calibration: a fixed kernel timed between solves.

The benchmark runs on shared hosts whose single-thread speed drifts by up to
1.5x over minutes (other tenants on the same cores and caches), and every
solve time drifts with it, CPU time as much as wall time. To keep that drift
out of the reported times, a fixed kernel is timed between solves, about
every ``EVERY_S`` seconds (after a long solve, once per ``EVERY_S`` it took,
up to ``MAX_BURST`` times). It mixes the pipeline's kinds of work:
tuple-keyed dict updates and lookups (the sequence gathers), many small
numpy calls (per-call overhead) and a symmetric eigen- and singular-value
decomposition (the PSD and rank checks). The lookups go in random order
through a table larger than a core's L2 cache: small solves slowed with
cache contention from other tenants that a kernel with a cache-resident
working set did not see. On a 2-core Xeon VM, over stretches of 3 to 20 s,
the table cut the spread of 1 ms solves' calibrated times from 0.07-0.13 to
0.04-0.09 and raised that of 0.1 s solves from 0.03-0.06 to 0.05-0.09. The median kernel time of a run over
``REFERENCE_S`` is the run's slowdown; a reported time is the measured time
divided by it, i.e. the time on a host where the kernel takes
``REFERENCE_S``. The kernel calls no package code, so a change to the package
moves the reported times and not the divisor.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import time

import numpy as np

# median kernel time on one core of a 2-core 2.1 GHz Xeon VM with
# OpenBLAS on one thread; it only fixes the unit of the reported times
REFERENCE_S = 0.0215
EVERY_S = 0.4
MAX_BURST = 8
WINDOW_S = 1.0
WARMUP = 3

_DICT_STEPS = 15_000
_SMALL_CALLS = 3_000
_MATRIX_SIZE = 200
_TABLE_SIDE = 40  # the table has 40^3 tuple keys, about 8 MB
_LOOKUPS = 10_000


class HostSpeed:
    """Times the kernel between solves and turns raw times into reported ones."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((_MATRIX_SIZE, _MATRIX_SIZE))
        self._matrix = a + a.T
        self._vector = rng.standard_normal(12)
        side = range(_TABLE_SIDE)
        self._table = {key: 0.5 * k for k, key in enumerate(itertools.product(side, side, side))}
        keys = list(self._table)
        self._lookups = [keys[int(k)] for k in rng.integers(len(keys), size=_LOOKUPS)]
        self.at: list[float] = []  # midpoint of each timing, perf_counter seconds
        self.samples: list[float] = []  # kernel time of each timing
        for _ in range(WARMUP):
            self._kernel()
        self._last = time.perf_counter()

    def _kernel(self) -> float:
        start = time.perf_counter()
        table: dict[tuple[int, int, int], float] = {}
        for i in range(_DICT_STEPS):
            key = (i % 7, i % 11, i % 13)
            table[key] = table.get(key, 0.0) + 0.5 * i
        big = self._table
        total = 0.0
        for key in self._lookups:
            total += big[key]
        v = self._vector
        for _ in range(_SMALL_CALLS):
            total += float(np.dot(v, v))
        np.linalg.eigvalsh(self._matrix)
        np.linalg.svd(self._matrix, compute_uv=False)
        return time.perf_counter() - start

    def sample(self) -> None:
        """Time the kernel once."""
        took = self._kernel()
        self._last = time.perf_counter()
        self.at.append(self._last - took / 2)
        self.samples.append(took)

    def maybe_sample(self) -> None:
        """Time the kernel once per ``EVERY_S`` seconds since the last time."""
        gap = time.perf_counter() - self._last
        for _ in range(min(MAX_BURST, int(gap / EVERY_S))):
            self.sample()

    def slowdown(self) -> float:
        """Median kernel time of the run over ``REFERENCE_S``."""
        return statistics.median(self.samples) / REFERENCE_S

    def slowdown_over(self, start: float, end: float) -> float:
        """Mean kernel time around [start, end] over ``REFERENCE_S``.

        The timings taken within ``max(WINDOW_S, end - start)`` before or
        after the interval count, so a long solve is set against as long a
        stretch of the host on each side; with none there, the nearest one.
        """
        pad = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        if lo == hi:
            mid = (start + end) / 2
            k = min(max(lo, 1), len(self.at) - 1)
            lo, hi = (k - 1, k) if mid - self.at[k - 1] < self.at[k] - mid else (k, k + 1)
        return statistics.fmean(self.samples[lo:hi]) / REFERENCE_S
