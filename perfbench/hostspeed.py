"""Host speed probe: a fixed piece of work, independent of dxpipe, timed
between the benchmark's timed units.

On a shared host the same code runs up to about 40% slower for minutes at a
time, in CPU time as well as in wall time, because of load the benchmark
cannot see.  The probe slows with it.  The benchmark scales each timed unit
by ``REFERENCE_S / median(probe times around that unit)``, which reports
its time as it would be on a host where the probe takes ``REFERENCE_S``.
A change to dxpipe moves the unit's time and not the probe's, so it shows
in full.

The probe mixes the kinds of work dxpipe does: interpreter loops, a small
matrix product (BLAS, as in the network's convolutions), a sort and
elementwise arithmetic on a small array and on one larger than a core's L2
cache, as a 1024 px radiograph is.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median probe time on an Intel Xeon (Sapphire Rapids class,
# 2.1 GHz base) with nothing else running, single-threaded BLAS.
REFERENCE_S = 3e-3


class HostSpeed:
    """Runs the probe and keeps every time it took."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((96, 96))
        self._image = rng.random((256, 256)).astype(np.float32)
        self._radiograph = rng.random((1024, 1024)).astype(np.float32)
        self._scratch = np.empty_like(self._radiograph)
        self.times: list[float] = []

    def _probe(self) -> float:
        """Seconds taken by one run of the fixed work."""
        start = time.perf_counter()
        total = 0
        for i in range(10000):
            total += i * i
        for _ in range(6):
            self._matrix.dot(self._matrix)
        for _ in range(2):
            np.sort(self._image, axis=0)
            float((self._image[1:, 1:] - self._image[:-1, :-1]).sum())
        np.multiply(self._radiograph, 1.0001, out=self._scratch)
        np.add(self._scratch, self._radiograph, out=self._scratch)
        float(self._scratch.sum())
        return time.perf_counter() - start

    def sample(self, n: int = 1) -> list[float]:
        """Runs the probe ``n`` times; returns the times."""
        times = [self._probe() for _ in range(n)]
        self.times.extend(times)
        return times

    @staticmethod
    def factor(times: list[float]) -> float:
        """Scale factor for a unit timed among these probe times."""
        return REFERENCE_S / statistics.median(times)
