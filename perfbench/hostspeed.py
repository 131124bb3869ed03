"""A fixed numpy/Python probe that measures how fast the host runs right now.

On a shared virtual machine the host slows whole multi-second windows by up
to half (other tenants), which moves a run's call times far more than any
change to chaoslab would.  The probe is timed right before every call;
dividing the call time by the probe time cancels most of the host's state,
and multiplying by ``NOMINAL_S`` expresses the result in seconds on a host
where the probe takes exactly ``NOMINAL_S``.  The probe never calls
chaoslab, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.020
REPEATS = 3


class HostSpeedProbe:
    """The kinds of work chaoslab spends its time in, at fixed sizes.

    Matrix products, FFTs of power-of-two and of prime length,
    transcendentals over a 32 MB array (memory-bound, like the kernel
    matrices and the mollified derivative's temporaries) and over a small
    one, bootstrap-style integer draws and interpreted Python.
    """

    def __init__(self):
        gen = np.random.default_rng(0)
        a = gen.random((160, 160))
        z2 = gen.random(1 << 15) + 0j
        zp = gen.random((32, 641)) + 0j
        big = gen.random(1 << 22)
        big_out = np.empty_like(big)
        ys = gen.random(1 << 19)
        self.parts = (
            lambda: a @ a,
            lambda: np.fft.fft(z2),
            lambda: np.fft.fft(zp, axis=1),
            lambda: np.exp(big, out=big_out),
            lambda: np.sin(ys).sum(),
            lambda: np.random.default_rng(1).integers(0, 1000, 50_000).sum(),
            lambda: sum(i * i for i in range(30_000)),
        )

    def seconds(self) -> float:
        """Sum over the parts of the fastest of a few timings of each."""
        total = 0.0
        for part in self.parts:
            best = float("inf")
            for _ in range(REPEATS):
                t = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - t)
            total += best
        return total

    def scale(self) -> float:
        """Factor that turns a wall time measured now into nominal seconds."""
        return NOMINAL_S / self.seconds()
