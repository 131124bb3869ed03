"""Moment norms and the percentile bootstrap shared by every estimate.

The headline quantities of the package are 2n-th root moment norms over
field draws, (E |V|^{2n})^{1/(2n)}.  Their intervals are percentile
bootstraps: 2n-th powers of near-Gaussian functionals are heavy-tailed at
moderate sample counts, so asymptotic-normal intervals are avoided.

Bootstrap contract: one set of estimates (one :func:`moment_norm` or
:func:`bootstrap_means` call) draws its resample indices from one
(seed, BOOTSTRAP, tag) substream of :mod:`rng`, so repeated runs and
parallel schedules reproduce the same intervals bit for bit.  When the
values have several columns (the cells of a study, all read off the same
draws), every column is resampled with the same indices: a paired
bootstrap.  Resamples are drawn in blocks of rows, each block as one
``integers(0, m, size=(rows, m))`` call, which walks the Philox stream
exactly as rows draws of size m; each block is turned into per-row counts
of the m draws, and the resample means are those counts times the values
over m.  So the indices do not depend on the block size, and the means
depend on the block size and the column count through the rounding of the
product only.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import rng

BOOTSTRAP_RESAMPLES = 500
# resample indices per block: bounds the temporaries (the indices, their
# counts) to about 1 MB whatever the sample size and the column count
BOOTSTRAP_BLOCK = 65536


@dataclass
class MomentEstimate:
    n: int
    value: float
    ci: tuple[float, float]
    n_samples: int


def check_integer(name: str, value, low: int) -> None:
    """ValueError, naming the argument, unless ``value`` is an integer of at
    least ``low``: the package's one rule for counts and orders.  A bool is
    an Integral but not a count, and is rejected."""
    if isinstance(value, bool) or not isinstance(value, Integral) \
            or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def bootstrap_means(x: np.ndarray, seed: int, tag: int) -> np.ndarray:
    """Means of BOOTSTRAP_RESAMPLES resamples of the rows of ``x``.

    ``x`` has shape (m, *rest); the result has shape
    (BOOTSTRAP_RESAMPLES, *rest), one row per resample of the m rows.  An
    empty ``x`` raises ValueError before the stream is opened.
    """
    m = len(x)
    if m == 0:
        raise ValueError(f"empty sample: x of shape {np.shape(x)} has no "
                         f"rows to resample")
    flat = x.reshape(m, -1)
    gen = rng.substream(seed, rng.BOOTSTRAP, tag)
    out = np.empty((BOOTSTRAP_RESAMPLES, flat.shape[1]))
    rows = max(1, BOOTSTRAP_BLOCK // m)
    for lo in range(0, BOOTSTRAP_RESAMPLES, rows):
        hi = min(lo + rows, BOOTSTRAP_RESAMPLES)
        pick = gen.integers(0, m, size=(hi - lo, m))
        pick += np.arange(0, pick.size, m)[:, None]  # row r: bins r*m + index
        counts = np.bincount(pick.reshape(-1), minlength=pick.size)
        del pick
        out[lo:hi] = counts.reshape(hi - lo, m).astype(float) @ flat
        del counts  # before the next block's indices exist
    out /= m
    return out.reshape((BOOTSTRAP_RESAMPLES,) + x.shape[1:])


def moment_norm(values, n: int, seed: int = 0, tag: int = 0):
    """Plug-in estimate of (E |V|^{2n})^{1/(2n)} with a bootstrap interval.

    ``values`` holds the draws of V, and the result is one
    :class:`MomentEstimate`.  A (draws, cells) array gives a list of
    estimates, one per column, whose intervals share one set of resamples.
    More than two dimensions raise ValueError.
    """
    check_integer("n", n, 1)
    values = np.asarray(values, dtype=float)
    if values.ndim > 2:
        raise ValueError(f"values must be (draws,) or (draws, cells), got "
                         f"shape {values.shape}")
    single = values.ndim != 2
    table = values.reshape(-1, 1) if single else values
    m = len(table)
    if m == 0:
        raise ValueError("empty sample")
    bad = int(np.count_nonzero(~np.isfinite(table)))
    if bad:
        raise ValueError(f"{bad} of {table.size} sample values are not finite")
    root = 1.0 / (2 * n)
    powers = np.abs(table) ** (2 * n)
    points = [float(np.mean(col) ** root) for col in powers.T]
    if np.all(table == 0.0):
        cis = [(0.0, 0.0)] * len(points)
    else:
        boot = bootstrap_means(powers, seed, tag) ** root
        lo, hi = np.percentile(boot, [2.5, 97.5], axis=0)
        cis = [(float(min(a, p)), float(max(b, p)))
               for a, b, p in zip(lo, hi, points)]
    out = [MomentEstimate(n=n, value=p, ci=ci, n_samples=m)
           for p, ci in zip(points, cis)]
    return out[0] if single else out
