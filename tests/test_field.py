import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from chaoslab import field, rng
from chaoslab.field import (
    CovarianceSpec,
    InfeasibleEmbeddingError,
    build_spectrum,
    exact_lambda_hat,
    sample_field_values,
    sample_fields,
    synthesise,
    verify_assumption1,
)
from chaoslab.geometry import Lattice, ScalingGeometry, build_lattice
from oracles import full_complex_field_values, full_torus_field_values, \
    torus_lag_products

G1 = ScalingGeometry((1.0,))
G2 = ScalingGeometry((2.0, 1.0))


def small_spectrum(alpha=0.6, eps=0.1, n=2048, extent=4.0):
    lat = Lattice(G1, 2 * extent / n, (n,))
    return build_spectrum(CovarianceSpec(alpha=alpha, epsilon=eps), lat)


def test_target_values():
    spec = CovarianceSpec(alpha=0.6, epsilon=0.1)
    assert spec.target(0.0) == pytest.approx(0.1 ** -0.6)
    # normalized covariance of X at lag 0.1: (eps/(lag+eps))^alpha = 0.5^0.6
    norm = 0.1 ** 0.6 * spec.target(0.1)
    assert norm == pytest.approx(0.5 ** 0.6)
    assert norm == pytest.approx(0.659754, abs=1e-6)


def test_sigma2_near_one():
    sp = small_spectrum()
    assert sp.sigma2 == pytest.approx(1.0, rel=1e-3)
    assert sp.clipped_mass < 1e-3


def test_clipping_small_on_double_extent():
    a = small_spectrum(extent=4.0)
    b = small_spectrum(extent=8.0, n=4096)
    assert a.clipped_mass < 1e-3
    assert b.clipped_mass < 1e-3


def test_sampling_deterministic():
    sp = small_spectrum()
    a = sample_field_values(sp, 42, [7])[0]
    b = sample_field_values(sp, 42, [7])[0]
    assert np.array_equal(a, b)
    c = sample_field_values(sp, 42, [8])[0]
    assert not np.array_equal(a, c)


def small_spectrum_2d(alpha=0.6, eps=0.1):
    lat = Lattice(G2, 0.2, (40, 20))
    return build_spectrum(CovarianceSpec(alpha=alpha, epsilon=eps), lat,
                          clip_threshold=1.0)


def test_sampling_batch_matches_single():
    # a lone even or odd index, a split pair and an odd-length range
    sp = small_spectrum()
    for indices in ([3, 9], [4], [7], list(range(3, 10))):
        batch = sample_field_values(sp, seed=5, indices=indices)
        for row, k in enumerate(indices):
            assert np.array_equal(batch[row], sample_field_values(sp, 5, [k])[0])


@pytest.mark.parametrize("indices", [[0], [5], np.arange(0, 7), np.arange(3, 10),
                                     [9, 2, 2, 4]],
                         ids=["0", "5", "arange0to7", "arange3to10", "repeats"])
@pytest.mark.parametrize("spectrum", [small_spectrum, small_spectrum_2d],
                         ids=["d1", "d2"])
def test_sampling_matches_full_complex_oracle(spectrum, indices):
    sp = spectrum()
    got = sample_field_values(sp, seed=4, indices=indices)
    want = full_complex_field_values(sp, 4, indices)
    assert got.shape == want.shape
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_sampling_indices_validated():
    sp = small_spectrum(n=64)
    assert sample_field_values(sp, seed=1, indices=[]).shape == (0, 64)
    sp2 = small_spectrum_2d()
    assert sample_field_values(sp2, seed=1, indices=np.arange(0)).shape == \
        (0, 40, 20)
    for bad in ([0.5], [-1], [2, -1], [[1, 2]], ["a"]):
        with pytest.raises(ValueError):
            sample_field_values(sp, seed=1, indices=bad)


def test_sample_fields_share_one_noise():
    # every spectrum of one call convolves the same noise: each array equals
    # the spectrum drawn alone, and the draws of two spectra differ
    lat = small_spectrum_2d().lattice
    spectra = [build_spectrum(CovarianceSpec(alpha=0.6, epsilon=eps), lat,
                              clip_threshold=1.0) for eps in (0.3, 0.1, 0.3)]
    got = list(sample_fields(spectra, 8, [1, 4, 5, 6]))
    assert len(got) == 3
    for sp, values in zip(spectra, got):
        assert np.array_equal(values, sample_field_values(sp, 8, [1, 4, 5, 6]))
    assert np.array_equal(got[0], got[2])
    assert not np.array_equal(got[0], got[1])


def test_synthesise_holds_only_the_noise_between_draws():
    # while the caller works on one multiplier's draws the generator holds
    # the noise transform (one block of 32 complex pairs) and nothing more,
    # and after the last multiplier it holds nothing: the product buffer is
    # released before every yield, the transform before the last
    sp = small_spectrum(n=512)
    mult = np.sqrt(sp.eigenvalues)
    # one-off imports, before tracing
    next(synthesise([mult], mult.shape, 3, 1, [0]))
    gen = synthesise([mult, 2.0 * mult, 3.0 * mult], mult.shape, 3, 1,
                     np.arange(64))
    held = []
    tracemalloc.start()
    try:
        for _ in range(3):
            values = next(gen)
            held.append(tracemalloc.get_traced_memory()[0] - values.nbytes)
            del values
    finally:
        tracemalloc.stop()
    block = 32 * 512 * 16
    assert block <= held[0] < 1.25 * block
    assert block <= held[1] < 1.25 * block
    assert held[2] < 0.25 * block


@pytest.mark.parametrize("shape", [(64,), (8, 6)], ids=["d1", "d2"])
def test_substream_opener_matches_substream(shape):
    # one re-keyed generator reproduces every (seed, purpose, k) stream bit
    # for bit, in any order and after a stream left half a word buffered
    ks = [0, 1, 2, 7, 6, 2 ** 40, 2 ** 40 + 1, 1]
    for seed in (3, 2 ** 70 + 5):
        open_stream = rng.substream_opener(seed, rng.FIELD)
        for k in ks:
            gen = open_stream(k)
            assert np.array_equal(
                gen.standard_normal(shape),
                rng.substream(seed, rng.FIELD, k).standard_normal(shape)), k
            gen.integers(0, 10, size=3, dtype=np.uint32)
        with pytest.raises(ValueError, match="non-negative"):
            open_stream(-1)


# the two routes into the stream of (seed, purpose, k)
_ROUTES = {
    "substream": lambda seed, path: rng.substream(seed, *path),
    "opener": lambda seed, path: rng.substream_opener(seed, path[0])(path[1]),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize("seed, path, error, match", [
    (1.7, (2, 3), TypeError, "integer"),     # once read as seed 1
    (-1, (2, 3), ValueError, "-1"),          # once read as seed 2^128 - 1
    (1 << 128, (2, 3), ValueError, "2\\^128"),  # once read as seed 0
    (1, (2.5, 3), TypeError, "integer"),     # once read as index 2
    (1, (2, -3), ValueError, "-3"),
], ids=["float-seed", "negative-seed", "seed-past-key", "float-index",
        "negative-index"])
def test_substream_rejects_inputs_that_alias_other_streams(route, seed, path,
                                                           error, match):
    with pytest.raises(error, match=match):
        _ROUTES[route](seed, path)


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_substream_reads_numpy_integers_as_their_value(route):
    want = rng.substream(5, 2, 3).standard_normal(8)
    got = _ROUTES[route](np.int64(5), (np.uint8(2), np.int32(3)))
    assert np.array_equal(got.standard_normal(8), want)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_substreams_share_no_raw_word():
    # every path of the package's purposes, indices 0-5 and lengths 1-3:
    # no raw 64-bit word may appear in two streams (or twice in one)
    purposes = (rng.FIELD, rng.BOOTSTRAP, rng.POINTS, rng.MODEL)
    paths = [(p,) for p in purposes]
    paths += [(p, i) for p in purposes for i in range(6)]
    paths += [(p, i, j) for p in purposes for i in range(6) for j in range(6)]
    words = np.concatenate([rng.substream(7, *path).bit_generator.random_raw(100)
                            for path in paths])
    assert len(np.unique(words)) == len(words)


def test_synthesise_rejects_mixed_shapes():
    with pytest.raises(ValueError, match="one lattice shape"):
        next(synthesise([np.ones(8), np.ones(6)], (6,), 1, 1, [0]))


def test_sample_moments():
    sp = small_spectrum(n=512)
    vals = sample_field_values(sp, seed=11, indices=np.arange(10_000))[:, 17]
    x = 0.1 ** 0.3 * vals  # eps^{alpha/2} with alpha=0.6, eps=0.1
    sigma = math.sqrt(sp.sigma2)
    assert abs(x.mean()) < 4 * sigma / 100.0
    assert x.var() == pytest.approx(sp.sigma2, rel=0.05)


def test_exact_covariance_matches_target():
    sp = small_spectrum()
    assert exact_lambda_hat(sp) < 1.01


def test_exact_lambda_hat_metric_radius_2d():
    # direct route: covariance by explicit per-axis DFT sums of the
    # eigenvalues, kept lags those within min_i (f n_i step_i)^(1/s_i)
    sp = small_spectrum_2d()
    lat = sp.lattice
    frac = 0.5
    axes_lag, axes_dft = [], []
    for n, step in zip(lat.shape, lat.steps):
        k = np.arange(n)
        axes_lag.append(np.minimum(k, n - k) * step)
        axes_dft.append(np.exp(2j * np.pi * np.outer(k, k) / n))
    cov = np.real(axes_dft[0] @ sp.eigenvalues @ axes_dft[1].T) / sp.eigenvalues.size
    x0, x1 = np.meshgrid(*axes_lag, indexing="ij")
    lag = np.maximum(np.abs(x0) ** 0.5, np.abs(x1))
    radius = min((frac * lat.shape[0] * lat.steps[0]) ** 0.5,
                 frac * lat.shape[1] * lat.steps[1])
    kept = lag <= radius
    assert 0 < kept.sum() < kept.size
    ratio = cov[kept] / sp.spec.target(lag[kept])
    want = max(np.max(ratio), np.max(1.0 / ratio))
    assert exact_lambda_hat(sp) == pytest.approx(want, rel=1e-12)


def test_verify_assumption1_exact_self():
    # feeding the exact synthesized covariance: lambda-hat from the exact
    # route is 1 up to clipping
    sp = small_spectrum()
    assert exact_lambda_hat(sp) == pytest.approx(1.0, abs=0.01)


def test_verify_assumption1_sampled():
    sp = small_spectrum()
    rep = verify_assumption1(sp, n_samples=400, seed=3)
    assert rep.lambda_hat < 2.0
    assert rep.clipped_mass < 0.01
    assert rep.violations == []
    for e in rep.per_lag:
        assert e.lo <= e.c_hat <= e.hi


def _golden_line_spectrum():
    return build_spectrum(CovarianceSpec(alpha=0.6, epsilon=0.1),
                          Lattice(G1, 8.0 / 256, (256,)))


@pytest.mark.parametrize("c", [1.05, 3.0, 1.0 / 3.0])
def test_exact_lambda_hat_sees_a_scaled_covariance(c):
    # mutation: eigenvalues scaled by c scale the covariance by c, so the
    # sandwich constant, 1 up to rounding on this line, becomes max(c, 1/c)
    sp = _golden_line_spectrum()
    base = exact_lambda_hat(sp)
    assert base == pytest.approx(1.0, abs=1e-12)
    scaled = dataclasses.replace(sp, eigenvalues=c * sp.eigenvalues)
    assert exact_lambda_hat(scaled) == pytest.approx(max(c, 1.0 / c) * base,
                                                     rel=1e-12)


def test_verify_assumption1_flags_a_scaled_covariance():
    # mutation: the draws of a covariance scaled by 3 leave the default
    # budget's sandwich (lambda_const = 2) at all but the longest lag, where
    # the band is widest; the unscaled draws leave it nowhere
    sp = _golden_line_spectrum()
    assert sp.spec.lambda_const == 2.0
    assert verify_assumption1(sp, n_samples=400, seed=3).violations == []
    scaled = dataclasses.replace(sp, eigenvalues=3.0 * sp.eigenvalues)
    rep = verify_assumption1(scaled, n_samples=400, seed=3)
    assert len(rep.per_lag) == 36
    assert len(rep.violations) == 35
    assert rep.lambda_hat > 2.0


def test_sandwich_is_infinite_at_a_non_positive_covariance():
    # all the mass at the Nyquist frequency: C(k) = (-1)^k, negative at every
    # odd lag, so neither check can cover it with a finite constant
    sp = _golden_line_spectrum()
    nyquist = np.zeros_like(sp.eigenvalues)
    nyquist[nyquist.size // 2] = nyquist.size
    alternating = dataclasses.replace(sp, eigenvalues=nyquist)
    assert alternating.covariance()[1] == pytest.approx(-1.0)
    assert exact_lambda_hat(alternating) == math.inf
    rep = verify_assumption1(alternating, n_samples=8, seed=3)
    assert rep.lambda_hat == math.inf
    assert rep.violations


def test_sandwich_monotone_in_lag():
    sp = small_spectrum()
    rep = verify_assumption1(sp, n_samples=400, seed=3)
    chats = [e.c_hat for e in rep.per_lag]
    # up to CI noise the covariance decreases with lag
    for a, b in zip(chats, chats[1:]):
        assert b <= a * 1.25 + 0.02


def test_stationarity_translation():
    sp = small_spectrum(n=512)
    vals = sample_field_values(sp, seed=21, indices=np.arange(3000))
    lag = 5
    prod0 = np.mean(vals[:, 0] * vals[:, lag])
    prod1 = np.mean(vals[:, 100] * vals[:, 100 + lag])
    se = np.std(vals[:, 0] * vals[:, lag]) / math.sqrt(vals.shape[0])
    assert abs(prod0 - prod1) < 6 * se


def test_infeasible_embedding_raises():
    # in d = 1 the wrapped convex covariance embeds exactly (zero clipping);
    # a tight anisotropic 2-d box does clip, and past the threshold it raises
    g2 = ScalingGeometry((2.0, 1.0))
    lat = Lattice(g2, 2 * 0.5 / 32, (32, 32))
    with pytest.raises(InfeasibleEmbeddingError):
        build_spectrum(CovarianceSpec(alpha=0.9, epsilon=0.05), lat,
                       clip_threshold=0.01)
    sp = build_spectrum(CovarianceSpec(alpha=0.9, epsilon=0.05), lat,
                        clip_threshold=0.05)
    assert 0.0 < sp.clipped_mass < 0.05


def test_covariance_spec_validation():
    with pytest.raises(ValueError):
        CovarianceSpec(alpha=0.6, epsilon=1.5)
    with pytest.raises(ValueError):
        CovarianceSpec(alpha=0.6, epsilon=0.1, lambda_const=0.9)
    with pytest.raises(ValueError):
        CovarianceSpec(alpha=-0.1, epsilon=0.1)
    # NaN fails every comparison, so each check must be written to reject it
    for field, kwargs in (("alpha", dict(alpha=math.nan, epsilon=0.1)),
                          ("alpha", dict(alpha=math.inf, epsilon=0.1)),
                          ("epsilon", dict(alpha=0.6, epsilon=math.nan)),
                          *(("lambda_const", dict(alpha=0.6, epsilon=0.1,
                                                  lambda_const=budget))
                            for budget in (math.nan, 0.5, math.inf, -2.0))):
        with pytest.raises(ValueError, match=field):
            CovarianceSpec(**kwargs)


def test_fast_length_matches_brute_force():
    # every 5-smooth number up to past 5000, and the least one at or above n
    smooth = sorted(2 ** a * 3 ** b * 5 ** c for a in range(14)
                    for b in range(9) for c in range(7)
                    if 2 ** a * 3 ** b * 5 ** c <= 6000)
    for n in range(1, 5001):
        assert field._fast_length(n) == next(m for m in smooth if m >= n), n


# the operator studies' benchmark designs, at prime axis lengths: scan_d1's
# line (h = 0.0125, extent 4) and sweep_d2's plane (s = (2, 1), h = 0.1,
# extent 3), with the studies' alpha and sandwich budget
SCAN_D1 = (ScalingGeometry((1.0,)), 0.0125, 4.0)
SWEEP_D2 = (ScalingGeometry((2.0, 1.0)), 0.1, 3.0)


def study_spectrum(design, eps):
    return build_spectrum(CovarianceSpec(alpha=0.6, epsilon=eps,
                                         lambda_const=2.0),
                          build_lattice(*design))


def test_benchmark_lattices_pad_to_fast_tori():
    assert [field._fast_length(n) for n in (601, 61, 641)] == [625, 64, 648]
    sp = study_spectrum(SWEEP_D2, 0.05)
    assert sp.lattice.shape == (601, 61)
    assert sp.eigenvalues.shape == sp.covariance().shape == (625, 64)
    assert sp.clipped_mass < 0.01  # the default threshold
    sp = study_spectrum(SCAN_D1, 0.025)
    assert (sp.lattice.shape, sp.eigenvalues.shape) == ((641,), (648,))
    assert sp.clipped_mass == 0.0


def _window_periodogram(sp, n_samples, seed, lags):
    """Per-lag means of the periodograms of lattice windows, each taken as
    if it were periodic: the sandwich estimate on the wrong draws."""
    vals = sample_field_values(sp, seed, np.arange(n_samples))
    axes = tuple(range(1, vals.ndim))
    acf = np.real(np.fft.ifftn(np.abs(np.fft.fftn(vals, axes=axes)) ** 2,
                               axes=axes)) / math.prod(sp.lattice.shape)
    return np.array([acf[(slice(None),) + k].mean() for k in lags])


@pytest.mark.parametrize("design, eps, n_samples",
                         [(SCAN_D1, 0.2, 400), (SCAN_D1, 0.025, 400),
                          (SWEEP_D2, 0.05, 64)],
                         ids=["scan_d1-0.2", "scan_d1-0.025", "sweep_d2"])
def test_windowed_fields_at_non_smooth_lengths(design, eps, n_samples):
    sp = study_spectrum(design, eps)
    assert sp.eigenvalues.shape != sp.lattice.shape
    # the draws are the leading window of whole torus draws
    indices = [0, 5, 3, 4]
    got = sample_field_values(sp, 4, indices)
    want = full_complex_field_values(sp, 4, indices)
    assert got.shape == (len(indices),) + sp.lattice.shape
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    # the exact covariance lies within the budget
    assert exact_lambda_hat(sp) <= sp.spec.lambda_const
    # the sandwich check averages the lag products of whole torus draws and
    # passes at the tolerances of the smooth-length tests
    rep = verify_assumption1(sp, n_samples, seed=3)
    lags = field._lag_indices(sp.eigenvalues.shape[0], sp.lattice.geometry.d)
    draws = full_torus_field_values(sp, 3, np.arange(n_samples))
    products = torus_lag_products(draws, lags).mean(axis=0)
    c_hat = np.array([e.c_hat for e in rep.per_lag])
    assert np.max(np.abs(c_hat - products)) <= 1e-12 * c_hat[0]
    assert rep.lambda_hat < 2.0
    assert rep.violations == []
    for e in rep.per_lag:
        assert e.lo <= e.c_hat <= e.hi
    # a window is not periodic: its periodogram mixes each lag k with the
    # wrapped lag, and misses the torus lag products
    windowed = _window_periodogram(sp, n_samples, 3, lags)
    assert np.max(np.abs(windowed - products)) > 1e-3 * c_hat[0]


def _no_draws(*args):
    raise AssertionError("a noise stream was opened")


def test_bad_arguments_rejected_before_any_draw(monkeypatch):
    monkeypatch.setattr(rng, "substream_opener", _no_draws)
    sp = small_spectrum(n=64)
    with pytest.raises(ValueError, match="at least one spectrum"):
        sample_fields([], 1, [0])
    with pytest.raises(ValueError, match="at least one multiplier"):
        next(synthesise([], (4,), 1, 1, [0]))
    for window in ((65,), (0,), (8, 8), ()):
        with pytest.raises(ValueError, match="does not fit"):
            next(synthesise([np.ones(64)], window, 1, 1, [0]))
    # 601 and 605 points both pad to a 625-point torus, whose windows differ
    spectra = [build_spectrum(CovarianceSpec(alpha=0.6, epsilon=0.1),
                              Lattice(G1, 0.01, (n,)))
               for n in (601, 605)]
    assert {s.eigenvalues.shape for s in spectra} == {(625,)}
    with pytest.raises(ValueError, match="one lattice shape"):
        sample_fields(spectra, 1, [0])
    for n_samples in (2.5, 1, math.nan, "4"):
        with pytest.raises(ValueError, match="n_samples"):
            verify_assumption1(sp, n_samples)
    for threshold in (math.nan, -0.01, 1.5, math.inf):
        with pytest.raises(ValueError, match="clip_threshold"):
            build_spectrum(sp.spec, sp.lattice, clip_threshold=threshold)
    assert build_spectrum(sp.spec, sp.lattice, clip_threshold=0.0) \
        .clipped_mass == 0.0
