"""A fixed piece of numpy and Python work that gauges the host's speed.

On the 2-vCPU host the benchmark was built on, the same blocks ran 30-90%
faster in some minutes than in others (a fixed numpy SVD loop went from
80-87 to 100-125 calls per second between two sets of runs), so raw wall
times measured the host as much as the program.  The kernel mixes what
risopt's trials spend their time on: interpreted loops over small arrays,
complex products of 16 x 4096 matrices, complex Gaussian sampling, small
SVDs and eigenvalue problems.  It uses numpy only, never risopt, so a
change to risopt does not move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Kernel time, in ms, of the host the normalised metrics are scaled to.
REFERENCE_MS = 10.0


class Kernel:
    """Every array is preallocated or under 64 KB, so a call takes its
    memory from the heap's free lists: with the 1 MB arrays of a first
    draft, a call page-faulted about 2000 times and ran 8 or 17 ms
    depending on what risopt had allocated and freed before it."""

    def __init__(self):
        rng = np.random.default_rng(20251108)
        self.wide = (rng.standard_normal((16, 256))
                     + 1j * rng.standard_normal((16, 256)))
        self.wide_h = np.ascontiguousarray(self.wide.conj().T)
        square = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        self.hermitian = square @ square.conj().T
        self.vectors = [rng.standard_normal(8) for _ in range(300)]
        self.angles = np.empty(256)
        self.scaled = np.empty_like(self.wide)
        self.gram = np.empty((16, 16), dtype=complex)
        self.gauss = np.empty((512, 8))

    def run_once(self) -> float:
        rng = np.random.default_rng(0)
        total = 0.0
        for _ in range(60):
            rng.random(out=self.angles)
            np.multiply(self.wide, np.exp(2j * math.pi * self.angles),
                        out=self.scaled)
            np.matmul(self.scaled, self.wide_h, out=self.gram)
            total += float(np.linalg.svd(self.gram, compute_uv=False)[0])
        for _ in range(12):
            rng.standard_normal(out=self.gauss)
            total += float(np.linalg.svd(self.gauss, compute_uv=False)[0])
        total += float(np.linalg.eigvalsh(self.hermitian)[-1])
        for v in self.vectors:
            total += float(v @ v)
        return total

    def ms(self, calls: int) -> float:
        """Median wall time of calls runs, in ms."""
        samples = []
        for _ in range(calls):
            start = time.perf_counter()
            self.run_once()
            samples.append(time.perf_counter() - start)
        return 1000.0 * statistics.median(samples)
