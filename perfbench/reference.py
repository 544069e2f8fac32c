"""Host-speed reference: a fixed kernel timed next to every execution.

The benchmark shares a loaded host whose speed swings by 15 to 30% over
minutes, for every kind of work at once, so a plain wall time drifts
between runs of the same code by more than a regression bound.  This
kernel does the same kinds of work as gn1d at its size, but none of
gn1d's code: a dense n = 512 matrix filled from bands, its Cholesky
factorization and solves, small-array numpy and FFT calls, and a
pure-Python loop.  An execution's wall time divided by the kernel's time
around it, times REF_NOMINAL_S, is its host-normalised time: what the
execution would take on a host as fast as the baseline host.  A change
to gn1d moves the execution but not the kernel, so the ratio shows it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Median kernel time on the baseline host (2-core Intel Xeon, OpenBLAS
# at one thread).  A fixed scale only: it turns ratios back into seconds.
REF_NOMINAL_S = 0.1

N = 512
BANDS = 5
ROUNDS = 8


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20090913)
        self.bands = rng.uniform(0.1, 0.2, (BANDS, N))
        self.x = rng.standard_normal(N)
        self.k = np.fft.rfftfreq(N, 1.0 / N)

    def _once(self) -> float:
        x, k = self.x, self.k
        acc = 0.0
        for _ in range(ROUNDS):
            dense = np.diag(1.0 + x * x)
            for d in range(1, BANDS):
                band = np.roll(self.bands[d] * x, d)
                dense += np.diag(band[: N - d], d) + np.diag(band[: N - d], -d)
            cho = cho_factor(dense, lower=True)
            w = x
            for _ in range(4):
                w = cho_solve(cho, w)
            for _ in range(20):
                y = np.fft.irfft(1j * k * np.fft.rfft(w), n=N)
                w = 0.5 * (w + y * x) + 0.25 * np.roll(w, 1)
            s = 0
            for i in range(2000):
                s += i * i
            acc += float(w[0]) + s
        return acc

    def time(self) -> float:
        """Wall time of one pass of the kernel, in seconds."""
        start = time.perf_counter()
        self._once()
        return time.perf_counter() - start

    def settled(self, repeats: int = 3) -> float:
        """Median of a few passes, for a process that has just started."""
        return statistics.median(self.time() for _ in range(repeats))
