"""A fixed reference kernel that measures the machine's current speed.

The shared VMs this benchmark runs on change speed by 20-30% over tens of
seconds (other tenants), and identical work slows or speeds up with them. A
kernel that does the same kind of work as the program (an interpreted loop
of small numpy operations, as in the solver's node visits, plus a few array
sorts and sparse products, as in query building) slows down with it, so
wall time * REF_S / reference time is steady where wall time is not.
The kernel uses numpy and scipy only, never pairsphere, so no change to the
program moves it.

The speed drifts within a round too, so `SpeedClock` samples the kernel at
safe points inside the timed part (after a solve returns, at most every
INTERVAL_S) and rescales each stretch of wall time between two samples by
the mean kernel time at its ends.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# Nominal reference time: normalised figures read as seconds on a machine
# where one reference kernel run takes REF_S (about this VM's median).
REF_S = 0.02
REPEATS = 7
INTERVAL_S = 0.5


def _inputs():
    rng = np.random.default_rng(0)
    n = 400
    rows, cols = rng.integers(0, 2000, size=(2, 16000))
    A = sp.csr_matrix((rng.random(16000), (rows, cols)), shape=(2000, 2000))
    return n, rng.integers(0, n, size=n), rng.integers(0, n, size=n + 16), rng.random(n + 16), rng.random(n), A, rng.random(100_000)


def _kernel(n, memb0, idx, w, u, A, x) -> float:
    memb = memb0.copy()
    acc = 0.0
    for it in range(2000):
        i = it % n
        gain = u[i] * u + np.bincount(memb[idx[i:i + 16]], weights=w[i:i + 16], minlength=n)
        best = int(np.argmax(gain))
        acc += gain[best]
        if gain[best] > 1.0:
            memb[i] = best
    acc += float((A @ A).sum())
    acc += float(np.sort(x)[x.size // 2])
    return acc


def reference_s() -> float:
    """Median time of REPEATS runs of the kernel."""
    inputs = _inputs()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel(*inputs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedClock:
    """Normalised time: wall time * REF_S / kernel time, sampled as it goes.

    `timer` (a tracing.Tracer) gives the wall clock, `timer.now`, and the
    context `timer.untimed` that hides the kernel's own time from it.
    `refs` keeps every kernel time sampled, to show the machine's drift.
    """

    def __init__(self, ref_s: float, timer):
        self.clock = timer.now
        self.pause = timer.untimed
        self.inputs = _inputs()
        self.ref = ref_s
        self.refs = [ref_s]
        self.mark = self.clock()
        self.total = 0.0

    def sample(self) -> None:
        """Close the stretch since the last sample and time the kernel once."""
        now = self.clock()
        with self.pause():
            t0 = time.perf_counter()
            _kernel(*self.inputs)
            ref = time.perf_counter() - t0
        self.total += (now - self.mark) * REF_S / ((self.ref + ref) / 2)
        self.ref = ref
        self.refs.append(ref)
        self.mark = self.clock()

    def maybe_sample(self) -> None:
        if self.clock() - self.mark >= INTERVAL_S:
            self.sample()

    def restart(self) -> None:
        """Start a stretch now; time since the last sample is not counted."""
        self.mark = self.clock()
