"""Stationary Gaussian field synthesis on periodic lattices, and the
empirical check of the covariance sandwich (Assumption 1).

The target covariance is C(x) = (|x| + eps)^(-alpha) in the anisotropic
metric.  On a periodic lattice the covariance operator is circulant, so its
eigenvalues are the FFT of the covariance at torus lags; sampling is
spectral synthesis, C^{1/2} w = F^{-1} diag(sqrt(lambda)) F w for white
noise w, and is exactly stationary.  :func:`synthesise`, the one periodic
synthesiser, serves both field classes: these fields (multiplier
sqrt(lambda)) and the model fields of :mod:`models` (the stencil FFT).  A
Hermitian multiplier makes the operator A real, so A(w_a + i w_b) = A w_a +
i A w_b: draws 2j and 2j + 1 are the real and imaginary parts of one complex
transform, O(N log N) per pair.  The noise does not depend on the
multiplier, so a block of draws of several spectra on one lattice (a study's
eps grid) draws and transforms its noise once, then pays one product and one
inverse transform per spectrum.  Negative circulant eigenvalues (the
embedding is not always non-negative) are clipped to zero and the clipped
relative mass is reported; the variance entering downstream chaos
coefficients is computed exactly from the clipped spectrum, never estimated.
A draw is one row of the array :func:`sample_field_values` returns, read
with the :class:`Spectrum` it was drawn from.

Physical lags should stay below half the torus period to avoid wrap-around
bias; callers control this through the lattice extent.

The sandwich check estimates the covariance at a lag grid from sample
periodograms; its confidence band is the bootstrap of :mod:`stats`, over
whole draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .geometry import Lattice, metric_many
from .stats import bootstrap_means


SAMPLE_CHUNK = 256  # draws per synthesis block in every sampling loop
_MAX_LAG_FRACTION = 0.5  # of a period: the lag reach of exact_lambda_hat


class InfeasibleEmbeddingError(RuntimeError):
    """Clipped spectral mass exceeded the threshold; enlarge the extent."""


@dataclass(frozen=True)
class CovarianceSpec:
    alpha: float
    epsilon: float
    lambda_const: float = 2.0

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"regularisation scale epsilon must lie in (0, 1), "
                             f"got {self.epsilon!r}")
        if not (1.0 < self.lambda_const < math.inf):
            raise ValueError(f"sandwich constant lambda_const must be finite and "
                             f"exceed 1, got {self.lambda_const!r}")
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"singularity exponent alpha must be positive and "
                             f"finite, got {self.alpha!r}")

    def target(self, lag_metric):
        """Target covariance of the raw field at the given metric lags."""
        return (np.asarray(lag_metric, dtype=float) + self.epsilon) ** (-self.alpha)

    def normalised(self, lags):
        """Covariance (eps / (lags + eps))^alpha of eps^{alpha/2} * field."""
        return (self.epsilon / (lags + self.epsilon)) ** self.alpha


def _torus_lags(lattice: Lattice) -> np.ndarray:
    """Metric distance from the origin at circulant (torus) lags, lattice-shaped."""
    axes = []
    for n_i, step in zip(lattice.shape, lattice.steps):
        k = np.arange(n_i)
        axes.append(np.minimum(k, n_i - k) * step)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(grids, axis=-1)
    return metric_many(pts, lattice.geometry)


@dataclass(frozen=True)
class Spectrum:
    lattice: Lattice
    spec: CovarianceSpec
    eigenvalues: np.ndarray = field(repr=False)
    clipped_mass: float

    @property
    def var_raw(self) -> float:
        """Exact variance of the synthesized raw field."""
        return float(np.mean(self.eigenvalues))

    @property
    def sigma2(self) -> float:
        """Exact variance of the normalised variable eps^{alpha/2} * field."""
        return self.spec.epsilon**self.spec.alpha * self.var_raw

    def covariance(self) -> np.ndarray:
        """Exact synthesized covariance at all torus lags (lattice-shaped)."""
        return np.real(np.fft.ifftn(self.eigenvalues))


def build_spectrum(spec: CovarianceSpec, lattice: Lattice,
                   clip_threshold: float = 0.01) -> Spectrum:
    """Circulant eigenvalues of the target covariance, clipped to >= 0."""
    lags = _torus_lags(lattice)
    cov = spec.target(lags)
    eig = np.real(np.fft.fftn(cov))
    neg = np.clip(-eig, 0.0, None)
    denom = float(np.sum(np.abs(eig)))
    clipped = float(np.sum(neg) / denom) if denom > 0 else 0.0
    if clipped > clip_threshold:
        raise InfeasibleEmbeddingError(
            f"clipped spectral mass {clipped:.3g} exceeds {clip_threshold:.3g}; "
            "enlarge the lattice extent")
    eig = np.clip(eig, 0.0, None)
    return Spectrum(lattice=lattice, spec=spec, eigenvalues=eig,
                    clipped_mass=clipped)


def _draw_indices(indices) -> np.ndarray:
    """Draw indices as a 1-D int64 array; non-integer or negative ones raise."""
    arr = np.asarray(indices)
    if arr.ndim != 1:
        raise ValueError(f"indices must be one-dimensional, got shape {arr.shape}")
    with np.errstate(invalid="ignore"):
        idx = arr.astype(np.int64)
    if not np.array_equal(idx, arr) or np.any(idx < 0):
        raise ValueError("indices must be non-negative integers")
    return idx


def synthesise(multipliers, seed: int, purpose: int, indices):
    """Draws of the real convolutions F^{-1} diag(m) F w, one array of shape
    (len(indices), *m.shape) per Hermitian multiplier m of the sequence
    ``multipliers``, yielded in turn; all multipliers share one shape and
    every one of them convolves the same noise w.

    Draw k is the real part (k even) or the imaginary part (k odd) of the
    transform of w_{2j} + i w_{2j+1}, j = k // 2, with w_k the noise of the
    (seed, purpose, k) substream; one generator is re-keyed from stream to
    stream (``rng.substream_opener``) rather than one built per draw.  The
    pair is fixed by the absolute index, never by the batch: a lone index
    still draws its partner's noise and discards the partner's half.
    Numpy's batched FFT rows do not depend on the rest of the batch, so each
    draw is a function of (seed, purpose, index) alone: batching, order,
    repeats and worker splits cannot change any sample.  Non-integer or
    negative indices raise ValueError.

    The noise is drawn and transformed once; each multiplier then costs one
    product and one in-place inverse transform.  Only the noise transform
    and the latest draws outlive a step: the product buffer is released
    before the draws are yielded, and the last product is taken in place on
    the noise transform, which is released with it.
    """
    idx = _draw_indices(indices)
    shape = multipliers[0].shape
    if any(m.shape != shape for m in multipliers):
        raise ValueError("multipliers must share one lattice shape")
    pairs, row = np.unique(idx // 2, return_inverse=True)
    noise = np.empty((len(pairs),) + shape, dtype=complex)
    open_stream = rng.substream_opener(seed, purpose)
    for j, pair in enumerate(pairs):
        k = 2 * int(pair)
        noise.real[j] = open_stream(k).standard_normal(shape)
        noise.imag[j] = open_stream(k + 1).standard_normal(shape)
    axes = tuple(range(1, len(shape) + 1))
    noise = np.fft.fftn(noise, axes=axes, out=noise)
    part = idx % 2  # 0: real part, 1: imaginary part
    size = math.prod(shape)
    for i, mult in enumerate(multipliers):
        if i < len(multipliers) - 1:
            buf = noise * mult
        else:
            buf, noise = np.multiply(noise, mult, out=noise), None
        buf = np.fft.ifftn(buf, axes=axes, out=buf)
        # (pair, point, part) view: one gather, no half-size temporaries
        out = buf.view(float).reshape(len(pairs), size, 2)[row, :, part]
        del buf
        yield out.reshape((len(idx),) + shape)
        del out  # before the next draws are allocated


def sample_fields(spectra, seed: int, indices):
    """Iterator over the draws C^{1/2} w of each spectrum of ``spectra`` in
    turn, all on one lattice and one noise (:func:`synthesise`): one array of
    shape (len(indices), *lattice.shape) per spectrum, whose row k is a
    function of (seed, indices[k]) alone."""
    return synthesise([np.sqrt(s.eigenvalues) for s in spectra], seed,
                      rng.FIELD, indices)


def sample_field_values(spectrum: Spectrum, seed: int, indices) -> np.ndarray:
    """Draws C^{1/2} w, shape (len(indices), *lattice.shape); row k is a
    function of (seed, indices[k]) alone."""
    return next(sample_fields([spectrum], seed, indices))


@dataclass
class LagEntry:
    lag: float
    c_hat: float
    lo: float
    hi: float
    target: float


@dataclass
class SandwichReport:
    lambda_hat: float
    per_lag: list[LagEntry]
    clipped_mass: float
    n_samples: int
    violations: list[float]


_LAG_COUNT = 48  # log-spaced lags of the sandwich check, before rounding


def _lag_indices(lattice: Lattice) -> list[tuple[int, ...]]:
    """Axis-0 lag multi-indices up to half the period, log-spaced."""
    n0 = lattice.shape[0]
    ks = np.unique(np.round(np.geomspace(1, n0 // 2, _LAG_COUNT)).astype(int))
    out = [(0,) * lattice.geometry.d]
    for k in ks:
        out.append((int(k),) + (0,) * (lattice.geometry.d - 1))
    return out


def verify_assumption1(spectrum: Spectrum, n_samples: int, seed: int = 0,
                       lambda_budget: float | None = None) -> SandwichReport:
    """Empirical two-sided covariance check against the target power law.

    Estimates the covariance at a log-spaced lag grid from sample
    periodograms (averaging over all sites by stationarity), bootstraps a
    confidence band over samples, and reports the smallest sandwich constant
    that covers every tested lag.  With a ``lambda_budget``, lags whose whole
    confidence band falls outside the budgeted sandwich are flagged.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    lat = spectrum.lattice
    shape = lat.shape
    npts = int(np.prod(shape))
    axes_all = tuple(range(1, len(shape) + 1))
    lag_idx = _lag_indices(lat)
    per_sample = np.empty((n_samples, len(lag_idx)))
    for lo in range(0, n_samples, SAMPLE_CHUNK):
        hi = min(lo + SAMPLE_CHUNK, n_samples)
        vals = sample_field_values(spectrum, seed, np.arange(lo, hi))
        fh = np.fft.fftn(vals, axes=axes_all)
        acf = np.real(np.fft.ifftn(np.abs(fh) ** 2, axes=axes_all)) / npts
        for j, li in enumerate(lag_idx):
            per_sample[lo:hi, j] = acf[(slice(None),) + li]
    mean = per_sample.mean(axis=0)
    boot = bootstrap_means(per_sample, seed, 1)
    lo = np.percentile(boot, 2.5, axis=0)
    hi = np.percentile(boot, 97.5, axis=0)
    steps = lat.steps
    entries = []
    lam_hat = 1.0
    violations = []
    for j, li in enumerate(lag_idx):
        pt = np.array([k * s for k, s in zip(li, steps)])
        lagm = metric_many(pt[None, :], lat.geometry)[0]
        target = float(spectrum.spec.target(lagm))
        c_hat = float(mean[j])
        entries.append(LagEntry(lag=float(lagm), c_hat=c_hat, lo=float(lo[j]),
                                hi=float(hi[j]), target=target))
        if c_hat > 0:
            lam_hat = max(lam_hat, c_hat / target, target / c_hat)
        else:
            lam_hat = math.inf
        if lambda_budget is not None:
            inside = (lo[j] <= lambda_budget * target) and \
                     (hi[j] >= target / lambda_budget)
            if not inside:
                violations.append(float(lagm))
    return SandwichReport(lambda_hat=float(lam_hat), per_lag=entries,
                          clipped_mass=spectrum.clipped_mass,
                          n_samples=n_samples, violations=violations)


def exact_lambda_hat(spectrum: Spectrum) -> float:
    """Sandwich constant of the exact synthesized covariance (no sampling).

    Compares at the torus lags whose metric is at most the smallest metric
    reach of the fraction f = _MAX_LAG_FRACTION of a period along one axis,
    min_i (f * n_i * step_i)^(1/s_i).
    """
    lat = spectrum.lattice
    cov = spectrum.covariance()
    lags = _torus_lags(lat)
    target = spectrum.spec.target(lags)
    radius = min((_MAX_LAG_FRACTION * n * step) ** (1.0 / s)
                 for n, step, s in zip(lat.shape, lat.steps, lat.geometry.s))
    mask = lags <= radius
    ratio = cov[mask] / target[mask]
    if np.any(ratio <= 0):
        return math.inf
    return float(max(np.max(ratio), np.max(1.0 / ratio)))
