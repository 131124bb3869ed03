"""Moment norms and the percentile bootstrap shared by every estimate.

The headline quantities of the package are 2n-th root moment norms over
field draws, (E |V|^{2n})^{1/(2n)}.  Their intervals are percentile
bootstraps: 2n-th powers of near-Gaussian functionals are heavy-tailed at
moderate sample counts, so asymptotic-normal intervals are avoided.

Bootstrap contract: the resample indices of one estimate come from the
(seed, BOOTSTRAP, tag) substream of :mod:`rng`, so repeated runs and
parallel schedules reproduce the same interval.  Resamples are drawn in
blocks of rows, each block as one ``integers(0, m, size=(rows, m))`` call;
that walks the Philox stream exactly as rows draws of size m, so the output
does not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng

BOOTSTRAP_RESAMPLES = 500
# resampled values per block: bounds the temporaries to about 1 MB whatever
# the sample size
BOOTSTRAP_BLOCK = 65536


@dataclass
class MomentEstimate:
    n: int
    value: float
    ci: tuple[float, float]
    n_samples: int


def bootstrap_means(x: np.ndarray, seed: int, tag: int) -> np.ndarray:
    """Means of BOOTSTRAP_RESAMPLES resamples of the rows of ``x``.

    ``x`` has shape (m, *rest); the result has shape
    (BOOTSTRAP_RESAMPLES, *rest), one row per resample of the m rows.
    """
    m = len(x)
    gen = rng.substream(seed, rng.BOOTSTRAP, tag)
    out = np.empty((BOOTSTRAP_RESAMPLES,) + x.shape[1:])
    rows = max(1, BOOTSTRAP_BLOCK // x.size)
    for lo in range(0, BOOTSTRAP_RESAMPLES, rows):
        hi = min(lo + rows, BOOTSTRAP_RESAMPLES)
        out[lo:hi] = np.mean(x[gen.integers(0, m, size=(hi - lo, m))], axis=1)
    return out


def moment_norm(values, n: int, seed: int = 0, tag: int = 0) -> MomentEstimate:
    """Plug-in estimate of (E |V|^{2n})^{1/(2n)} with a bootstrap interval."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if n < 1:
        raise ValueError("half-order n must be >= 1")
    m = len(values)
    if m == 0:
        raise ValueError("empty sample")
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ValueError(f"{bad} of {m} sample values are not finite")
    powers = np.abs(values) ** (2 * n)
    point = float(np.mean(powers) ** (1.0 / (2 * n)))
    if np.all(values == 0.0):
        return MomentEstimate(n=n, value=0.0, ci=(0.0, 0.0), n_samples=m)
    boot = bootstrap_means(powers, seed, tag) ** (1.0 / (2 * n))
    lo, hi = np.percentile(boot, [2.5, 97.5])
    lo = min(lo, point)
    hi = max(hi, point)
    return MomentEstimate(n=n, value=point, ci=(float(lo), float(hi)), n_samples=m)
