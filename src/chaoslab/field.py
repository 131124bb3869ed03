"""Stationary Gaussian field synthesis on periodic lattices, and the
empirical check of the covariance sandwich (Assumption 1).

The target covariance is C(x) = (|x| + eps)^(-alpha) in the anisotropic
metric.  A field is synthesised on a torus with the lattice's steps whose
axis lengths are the smallest 5-smooth integers (2^a 3^b 5^c) at or above
the lattice's, so that no transform takes pocketfft's slow prime-length
path, and the lattice is read as the torus's leading window; a lattice that
is already 5-smooth is its own torus.  On the torus the covariance operator
is circulant, so its eigenvalues (a :class:`Spectrum`, torus-shaped) are the
FFT of the covariance at torus lags; sampling is spectral synthesis,
C^{1/2} w = F^{-1} diag(sqrt(lambda)) F w for white noise w, and is exactly
stationary.  A window of a stationary torus field has the torus covariance
at its lags (Dietrich & Newsam, SIAM J. Sci. Comput. 18, 1997), but is not
periodic itself.  Negative circulant eigenvalues (the embedding is not
always non-negative) are clipped to zero and the clipped relative mass is
reported; the variance entering downstream chaos coefficients is computed
exactly from the clipped spectrum, never estimated.  A draw is one
lattice-shaped row of the array :func:`sample_field_values` returns, read
with the :class:`Spectrum` it was drawn from.

:func:`synthesise`, the one periodic synthesiser, serves both field classes:
these fields (multiplier sqrt(lambda), read on the lattice window) and the
model fields of :mod:`models` (the stencil FFT, read whole).  A Hermitian
multiplier makes the operator A real, so A(w_a + i w_b) = A w_a + i A w_b:
draws 2j and 2j + 1 are the real and imaginary parts of one complex
transform, O(N log N) per pair.  The noise does not depend on the
multiplier, so a block of draws of several spectra on one lattice (a study's
eps grid) draws and transforms its noise once, then pays one product and one
inverse transform per spectrum.

Physical lags should stay below half the torus period to avoid wrap-around
bias; callers control this through the lattice extent.

The sandwich check estimates the covariance at a lag grid from the
periodograms of whole torus draws, which are periodic where a window is
not; its confidence band is the bootstrap of :mod:`stats`, over whole draws.
It flags the lags whose band leaves the sandwich of the spectrum's own
budget, :attr:`CovarianceSpec.lambda_const`, by the one sandwich rule that
the exact check :func:`exact_lambda_hat` also applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .geometry import Lattice, metric_many
from .stats import bootstrap_means, check_integer


SAMPLE_CHUNK = 256  # draws per synthesis block in every sampling loop
_MAX_LAG_FRACTION = 0.5  # of a period: the lag reach of exact_lambda_hat


class InfeasibleEmbeddingError(RuntimeError):
    """Clipped spectral mass exceeded the threshold; enlarge the extent."""


@dataclass(frozen=True)
class CovarianceSpec:
    """Target covariance (|x| + epsilon)^(-alpha) and its sandwich budget:
    :func:`verify_assumption1` flags the lags whose confidence band leaves
    [C / lambda_const, lambda_const * C]."""

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


def _fast_length(n: int) -> int:
    """Smallest 5-smooth integer at or above n (n >= 1)."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _torus_lags(lattice: Lattice, shape: tuple[int, ...]) -> np.ndarray:
    """Metric distance from the origin at the circulant lags of the torus of
    ``shape`` with the lattice's steps, torus-shaped."""
    axes = []
    for n_i, step in zip(shape, lattice.steps):
        k = np.arange(n_i)
        axes.append(np.minimum(k, n_i - k) * step)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(grids, axis=-1)
    return metric_many(pts, lattice.geometry)


@dataclass(frozen=True)
class Spectrum:
    """Circulant eigenvalues of the clipped embedding on a torus whose axis
    lengths are the lattice's raised to 5-smooth ones (:func:`_fast_length`),
    torus-shaped; the lattice is the torus's leading window."""

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
        """Exact synthesized covariance at all torus lags (torus-shaped)."""
        return np.real(np.fft.ifftn(self.eigenvalues))


def build_spectrum(spec: CovarianceSpec, lattice: Lattice,
                   clip_threshold: float = 0.01) -> Spectrum:
    """Circulant eigenvalues of the target covariance on the lattice's torus,
    clipped to >= 0; a clipped relative mass above ``clip_threshold``, a
    number in [0, 1], raises :class:`InfeasibleEmbeddingError`."""
    if not (0.0 <= clip_threshold <= 1.0):  # written so that NaN fails it
        raise ValueError(f"clip_threshold must lie in [0, 1], got "
                         f"{clip_threshold!r}")
    torus = tuple(_fast_length(n) for n in lattice.shape)
    lags = _torus_lags(lattice, torus)
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


def synthesise(multipliers, window, seed: int, purpose: int, indices):
    """Draws of the real convolutions F^{-1} diag(m) F w read on a window,
    one array of shape (len(indices), *window) per Hermitian multiplier m of
    the sequence ``multipliers``, yielded in turn; all multipliers share one
    torus shape, every one of them convolves the same noise w on that torus,
    and ``window`` is the shape of the torus's leading corner that is read
    (``m.shape`` reads the whole torus).

    Draw k is the real part (k even) or the imaginary part (k odd) of the
    transform of w_{2j} + i w_{2j+1}, j = k // 2, with w_k the noise of the
    (seed, purpose, k) substream; one generator is re-keyed from stream to
    stream (``rng.substream_opener``) rather than one built per draw.  The
    pair is fixed by the absolute index, never by the batch: a lone index
    still draws its partner's noise and discards the partner's half.
    Numpy's batched FFT rows do not depend on the rest of the batch, so each
    draw is a function of (seed, purpose, index) alone: batching, order,
    repeats and worker splits cannot change any sample.  Non-integer or
    negative indices, no multiplier and a window that does not fit the torus
    raise ValueError.

    The noise is drawn and transformed once; each multiplier then costs one
    product and one in-place inverse transform.  Only the noise transform
    and the latest draws outlive a step: the window is gathered straight
    from the inverse-transform buffer, which is released before the draws
    are yielded, and the last product is taken in place on the noise
    transform, which is released with it.
    """
    idx = _draw_indices(indices)
    if len(multipliers) == 0:
        raise ValueError("need at least one multiplier")
    shape = multipliers[0].shape
    if any(m.shape != shape for m in multipliers):
        raise ValueError("multipliers must share one lattice shape")
    window = tuple(window)
    if len(window) != len(shape) or not all(
            1 <= w <= n for w, n in zip(window, shape)):
        raise ValueError(f"window {window} does not fit the torus {shape}")
    pairs, row = np.unique(idx // 2, return_inverse=True)
    noise = np.empty((len(pairs),) + shape, dtype=complex)
    open_stream = rng.substream_opener(seed, purpose)
    for j, pair in enumerate(pairs):
        k = 2 * int(pair)
        noise.real[j] = open_stream(k).standard_normal(shape)
        noise.imag[j] = open_stream(k + 1).standard_normal(shape)
    axes = tuple(range(1, len(shape) + 1))
    noise = np.fft.fftn(noise, axes=axes, out=noise)
    # (row, window slices, part) on the (pair, *torus, part) view: one
    # gather of the window, no full-torus or half-size temporaries
    gather = (row,) + tuple(slice(w) for w in window) + (idx % 2,)
    for i, mult in enumerate(multipliers):
        if i < len(multipliers) - 1:
            buf = noise * mult
        else:
            buf, noise = np.multiply(noise, mult, out=noise), None
        buf = np.fft.ifftn(buf, axes=axes, out=buf)
        out = buf.view(float).reshape(buf.shape + (2,))[gather]
        del buf
        yield out
        del out  # before the next draws are allocated


def sample_fields(spectra, seed: int, indices):
    """Iterator over the draws C^{1/2} w of each spectrum of ``spectra`` in
    turn, all on one lattice and one noise (:func:`synthesise`): one array of
    shape (len(indices), *lattice.shape) per spectrum, the torus draw's
    leading window, whose row k is a function of (seed, indices[k]) alone.
    No spectrum, or spectra on lattices of different shapes (which may pad
    to one torus), raise ValueError."""
    if len(spectra) == 0:
        raise ValueError("need at least one spectrum")
    window = spectra[0].lattice.shape
    if any(s.lattice.shape != window for s in spectra):
        raise ValueError("spectra must share one lattice shape")
    return synthesise([np.sqrt(s.eigenvalues) for s in spectra], window, seed,
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


def _lag_indices(n0: int, d: int) -> list[tuple[int, ...]]:
    """Axis-0 lag multi-indices up to half the torus period n0, log-spaced."""
    ks = np.unique(np.round(np.geomspace(1, n0 // 2, _LAG_COUNT)).astype(int))
    return [(0,) * d] + [(int(k),) + (0,) * (d - 1) for k in ks]


def _sandwich(cov: np.ndarray, target: np.ndarray) -> float:
    """Smallest lambda >= 1 with target / lambda <= cov <= lambda * target
    at every entry; inf when a covariance entry is not positive."""
    if not np.all(cov > 0):
        return math.inf
    return float(max(1.0, np.max(cov / target), np.max(target / cov)))


def verify_assumption1(spectrum: Spectrum, n_samples: int,
                       seed: int = 0) -> SandwichReport:
    """Empirical two-sided covariance check against the target power law.

    Estimates the covariance at a log-spaced lag grid, up to half the torus
    period, from the periodograms of whole torus draws (averaging over all
    sites by stationarity; a lattice window is not periodic), bootstraps a
    confidence band over samples, and reports the smallest sandwich constant
    that covers every tested lag.  Lags whose whole confidence band falls
    outside the sandwich of the spectrum's budget ``spec.lambda_const`` are
    flagged.  The draws are those of :func:`sample_fields`, read on the
    whole torus.
    """
    check_integer("n_samples", n_samples, 2)
    lat = spectrum.lattice
    spec = spectrum.spec
    torus = spectrum.eigenvalues.shape
    npts = math.prod(torus)
    axes_all = tuple(range(1, len(torus) + 1))
    lag_idx = tuple(np.array(_lag_indices(torus[0], lat.geometry.d)).T)
    mult = [np.sqrt(spectrum.eigenvalues)]
    per_sample = np.empty((n_samples, len(lag_idx[0])))
    for lo in range(0, n_samples, SAMPLE_CHUNK):
        hi = min(lo + SAMPLE_CHUNK, n_samples)
        vals = next(synthesise(mult, torus, seed, rng.FIELD,
                               np.arange(lo, hi)))
        fh = np.fft.fftn(vals, axes=axes_all)
        acf = np.real(np.fft.ifftn(np.abs(fh) ** 2, axes=axes_all)) / npts
        per_sample[lo:hi] = acf[(slice(None),) + lag_idx]
    mean = per_sample.mean(axis=0)
    boot = bootstrap_means(per_sample, seed, 1)
    lo = np.percentile(boot, 2.5, axis=0)
    hi = np.percentile(boot, 97.5, axis=0)
    lags = _torus_lags(lat, torus)[lag_idx]
    # lag by lag, as the golden fixture's targets were taken: one array
    # evaluation can differ from these in the last bit
    target = np.array([spec.target(v) for v in lags])
    lam = spec.lambda_const
    outside = ~((lo <= lam * target) & (hi >= target / lam))  # NaN is outside
    rows = np.column_stack((lags, mean, lo, hi, target)).tolist()
    return SandwichReport(lambda_hat=_sandwich(mean, target),
                          per_lag=[LagEntry(*row) for row in rows],
                          clipped_mass=spectrum.clipped_mass,
                          n_samples=n_samples,
                          violations=lags[outside].tolist())


def exact_lambda_hat(spectrum: Spectrum) -> float:
    """Sandwich constant of the exact synthesized covariance (no sampling).

    Compares at the torus lags whose metric is at most the smallest metric
    reach of the fraction f = _MAX_LAG_FRACTION of a torus period along one
    axis, min_i (f * n_i * step_i)^(1/s_i), n_i the torus's axis lengths.
    """
    lat = spectrum.lattice
    torus = spectrum.eigenvalues.shape
    lags = _torus_lags(lat, torus)
    target = spectrum.spec.target(lags)
    radius = min((_MAX_LAG_FRACTION * n * step) ** (1.0 / s)
                 for n, step, s in zip(torus, lat.steps, lat.geometry.s))
    mask = lags <= radius
    return _sandwich(spectrum.covariance()[mask], target[mask])
