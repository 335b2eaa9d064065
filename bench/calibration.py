"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core can drift by 20% or more over
minutes while other tenants load it, and a whole run can fall inside a
slow phase.  So the run times a fixed calibration pass between its
batches of calls and scales every time it reports by

    REFERENCE_PASS_S / (mean time of the calibration passes around it)

which expresses each time at a fixed reference machine speed.  The pass
does the kind of work the program does: list-based Cholesky factors and
triangular solves with trig calls in pure Python, and tiny numpy SVDs and
determinants.  It shares no code with the program, so a change to the
program moves the scaled times exactly as it moves the raw ones.  The
raw, unscaled values are kept in the run's report.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# One pass at the reference speed: the pass time in an undisturbed phase
# on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_PASS_S = 0.0019
WINDOW = 3

_N = 4
_G = [[4.0 if i == j else 1.0 / (1 + i + j) for j in range(_N)] for i in range(_N)]
_S = np.array([[0.3, -0.9, 0.0]])


def _cholesky_solve(a, b):
    n = len(a)
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j]
            for k in range(j):
                s -= L[i][k] * L[j][k]
            L[i][j] = math.sqrt(s) if i == j else s / L[j][j]
    y = [0.0] * n
    for i in range(n):
        s = b[i]
        for k in range(i):
            s -= L[i][k] * y[k]
        y[i] = s / L[i][i]
    return y


def _pass():
    acc = 0.0
    for i in range(300):
        t = 0.01 * i
        acc += _cholesky_solve(_G, [math.sin(t), math.cos(t), math.sin(2 * t), 1.0])[0]
    for _ in range(30):
        acc += float(np.linalg.svd(_S, compute_uv=False)[0])
        acc += float(np.linalg.det(_S[:, :1]))
    return acc


class Calibration:
    """Pass times of one run: pass 0 before the first batch of calls, pass
    b + 1 right after batch b."""

    def __init__(self):
        self.times: list[float] = []

    def measure(self):
        t0 = time.perf_counter()
        _pass()
        self.times.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Multiply a time measured anywhere in the run by this."""
        return REFERENCE_PASS_S / statistics.fmean(self.times)

    def local_factor(self, batch: int) -> float:
        """Multiply a time measured in `batch` by this: the mean pass time
        over the WINDOW passes on either side of the batch follows phases
        that last seconds, which a whole-run mean cannot."""
        lo = max(0, batch + 1 - WINDOW)
        return REFERENCE_PASS_S / statistics.fmean(self.times[lo:batch + 1 + WINDOW])
