"""The host's speed, read from a fixed reference kernel between operations.

On a shared host the same instructions run at speeds that drift by tens of
percent over seconds to minutes, as other tenants' work comes and goes, and
process CPU time does not remove that.  A sample runs a fixed kernel that
uses no aeqslab code and takes its CPU seconds.  The kernel mixes the three
kinds of work the workloads do: a Python loop of small numpy products (as in
evolve's step loop), a dense symmetric eigensolve, and plain interpreter
arithmetic.

The samples cut the process's CPU timeline into pieces.  A piece of measured
work between two samples is rescaled by ``REFERENCE_S`` over the mean of the
two, and reads in seconds of a host that runs the kernel in ``REFERENCE_S``.
Only samples close in time to the work track the speed it ran at, so the
samples are taken between operations and, in a long operation that calls
back into the benchmark, inside it.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# CPU seconds of one sample on a quiet core of the two-core Xeon host the
# benchmark was written on.  Only its ratio to the samples matters when two
# versions of the package are compared; it keeps the figures near CPU seconds.
REFERENCE_S = 0.14
REPEATS = 5             # kernel runs per sample, about 28 ms each


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)      # the same kernel in every run
        self._small = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self._phases = np.exp(1j * rng.standard_normal((2000, 12)))
        dense = rng.standard_normal((300, 300))
        self._dense = dense + dense.T
        self._kernel()                      # warm-up
        # Per sample: CPU start and end, wall start and end.
        self._starts, self._ends, self._wall_starts, self._wall_ends = [], [], [], []
        self.sample()

    def _kernel(self):
        c = np.ones(12, complex)
        for phase in self._phases:
            c *= phase
            d = self._small @ c
            d *= phase
            c = self._small @ d
            c /= np.abs(c).max()
        np.linalg.eigh(self._dense)
        total = 0
        for i in range(100_000):
            total += i * i % 7
        return total

    def sample(self) -> None:
        wall, start = time.perf_counter(), time.process_time()
        for _ in range(REPEATS):
            self._kernel()
        self._ends.append(time.process_time())
        self._wall_ends.append(time.perf_counter())
        self._starts.append(start)
        self._wall_starts.append(wall)

    def cpu_since_sample(self) -> float:
        return time.process_time() - self._ends[-1]

    def sampling(self, cpu, wall) -> tuple:
        """CPU and wall seconds spent sampling inside the intervals ``cpu``
        and ``wall`` (each a (start, end) pair)."""
        def inside(starts, ends, span):
            lo = bisect.bisect_left(starts, span[0])
            hi = bisect.bisect_right(ends, span[1])
            return sum(ends[i] - starts[i] for i in range(lo, hi))

        return (inside(self._starts, self._ends, cpu),
                inside(self._wall_starts, self._wall_ends, wall))

    def rescaled(self, start: float, end: float) -> float:
        """CPU seconds of [start, end], less the samples inside it, at the
        reference speed.  A sample must have ended after ``end``."""
        total = 0.0
        i = bisect.bisect_right(self._ends, start) - 1   # the sample before
        t = start
        while t < end:
            j = i + 1
            speed = (self._ends[i] - self._starts[i] + self._ends[j] - self._starts[j]) / 2
            total += (min(end, self._starts[j]) - t) * REFERENCE_S / speed
            t, i = self._ends[j], j
        return total
