"""The calibration unit (``cu``): one fixed pure-numpy step, ~1 ms.

Wall-clock on a small shared box drifts by tens of percent within a minute,
and it drifts the same way for the program under test and for any other
numpy code.  So every timed slice is bracketed by this step and reported as
``seconds / cu``.  The step calls no ``repro`` code and must never change:
changing it silently rescales every ``*_cu`` number in the history.

It mixes what the zoo's kernels do — a GEMM into a preallocated output,
im2col-style strided copies, an in-place elementwise op — so that it slows
down and speeds up with them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(20240527)
        self._a = rng.standard_normal((192, 192)).astype(np.float32)
        self._b = rng.standard_normal((192, 192)).astype(np.float32)
        self._c = np.empty((192, 192), np.float32)
        self._x = rng.standard_normal((64, 32, 32)).astype(np.float32)
        self._cols = np.empty((9, 64, 30, 30), np.float32)
        #: every cu measured so far, seconds (for the environment report)
        self.history: list = []

    def step(self) -> None:
        np.matmul(self._a, self._b, out=self._c)
        x, cols = self._x, self._cols
        for k in range(9):
            i, j = divmod(k, 3)
            cols[k] = x[:, i:i + 30, j:j + 30]
        np.maximum(cols, 0.0, out=cols)

    def measure(self, min_seconds: float = 0.1) -> float:
        """Median step time in seconds over at least ``min_seconds``."""
        step, clock = self.step, time.perf_counter
        samples = []
        deadline = clock() + min_seconds
        while True:
            t0 = clock()
            step()
            t1 = clock()
            samples.append(t1 - t0)
            if t1 >= deadline and len(samples) >= 5:
                break
        cu = statistics.median(samples)
        self.history.append(cu)
        return cu

    def median_ms(self) -> float:
        return statistics.median(self.history) * 1e3 if self.history else 0.0
