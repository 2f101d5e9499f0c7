"""Machine-speed references for timing on a shared, noisy host.

On a small shared machine the same work can take half again as long from
one minute to the next, because other jobs contend for the cores and
caches.  The benchmark therefore times a fixed reference next to what it
measures.  The machine's current speed is the reference's nominal time
divided by its measured time, and a time at reference speed is a wall time
multiplied by that speed (a rate is divided by it).  The benchmark reports
times and rates at reference speed and keeps the wall-clock figures beside
them in the result record.

Operations are bracketed by :meth:`Calibration.chunk`, a small
projection-method simulation written here with plain numpy: a double
pendulum, RK4, a pseudo-inverse by SVD and a solve per stage.  It resembles a
projdyn step in instruction mix and memory use, so contention slows both
alike, but it never calls projdyn, so a change to the library cannot move
it.  Its numpy functions are bound when the object is made, so the tracer's
counting wrappers do not slow it.

Set-up is mostly interpreter start and imports, which contention slows more
than computation; its reference is a fresh interpreter importing numpy.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Nominal times of the references.  They fix the scale of every reported
# time; changing them makes results incomparable with earlier ones.
REFERENCE_S = 0.004
REFERENCE_IMPORT_S = 0.10
IMPORT_REFERENCE = "import time, numpy; print(time.monotonic())"
STEPS = 12
DT = 5e-3


class Calibration:
    def __init__(self):
        self.svd = np.linalg.svd
        self.solve = np.linalg.solve
        self.M = np.diag([1.3, 1.3, 0.7, 0.7])
        self.g = np.array([0.0, -9.81 * 1.3, 0.0, -9.81 * 0.7])
        self.eye = np.eye(4)

    def _jacobian(self, q, v):
        x1, y1, x2, y2 = q
        dx1, dy1, dx2, dy2 = v
        A = np.array([[2 * x1, 2 * y1, 0.0, 0.0],
                      [-2 * (x2 - x1), -2 * (y2 - y1), 2 * (x2 - x1), 2 * (y2 - y1)]])
        Adot = np.array([[2 * dx1, 2 * dy1, 0.0, 0.0],
                         [-2 * (dx2 - dx1), -2 * (dy2 - dy1), 2 * (dx2 - dx1),
                          2 * (dy2 - dy1)]])
        return A, Adot

    def _deriv(self, q, v):
        A, Adot = self._jacobian(q, v)
        U, s, Vt = self.svd(A, full_matrices=False)
        r = int(np.count_nonzero(s > 1e-10 * s[0]))
        Apinv = Vt[:r].T @ (U[:, :r] / s[:r]).T
        P = self.eye - Apinv @ A
        P = 0.5 * (P + P.T)
        Lam = -Apinv @ Adot
        Mbar = P @ self.M @ P + (self.eye - P)
        X = self.solve(Mbar, P)
        S = self.eye - self.M @ X
        return v, X @ self.g + S.T @ ((Lam - Lam.T) @ v)

    def chunk(self):
        """Seconds the reference computation takes now."""
        q = np.array([1.0, 0.0, 1.0, -1.0])
        v = np.array([0.0, 1.0, 0.0, 1.0])
        h = DT
        records = []
        t0 = time.perf_counter()
        for i in range(STEPS):
            k1 = self._deriv(q, v)
            k2 = self._deriv(q + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
            k3 = self._deriv(q + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
            k4 = self._deriv(q + h * k3[0], v + h * k3[1])
            q = q + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v = v + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            records.append({"t": i * h, "q": q.copy(), "v": v.copy()})
        return time.perf_counter() - t0

    @staticmethod
    def speed(*chunk_times):
        """Machine speed from reference times taken around an interval."""
        return REFERENCE_S / statistics.fmean(chunk_times)


def spawn_seconds(cmd):
    """Seconds from spawning ``cmd`` until it prints time.monotonic() and exits
    (CLOCK_MONOTONIC, one clock for every process)."""
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def import_seconds():
    """Seconds a fresh interpreter takes to start and import numpy."""
    return spawn_seconds([sys.executable, "-c", IMPORT_REFERENCE])
