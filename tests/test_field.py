import math
import tracemalloc

import numpy as np
import pytest

from chaoslab import rng
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
from chaoslab.geometry import ScalingGeometry, lattice_from_counts
from oracles import full_complex_field_values

G1 = ScalingGeometry((1.0,))
G2 = ScalingGeometry((2.0, 1.0))


def small_spectrum(alpha=0.6, eps=0.1, n=2048, extent=4.0):
    lat = lattice_from_counts(G1, 2 * extent / n, (n,))
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
    lat = lattice_from_counts(G2, 0.2, (40, 20))
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
    next(synthesise([mult], 3, 1, [0]))  # one-off imports, before tracing
    gen = synthesise([mult, 2.0 * mult, 3.0 * mult], 3, 1, np.arange(64))
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


def test_synthesise_rejects_mixed_shapes():
    with pytest.raises(ValueError, match="one lattice shape"):
        next(synthesise([np.ones(8), np.ones(6)], 1, 1, [0]))


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
    lat = lattice_from_counts(g2, 2 * 0.5 / 32, (32, 32))
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
                          ("lambda_const", dict(alpha=0.6, epsilon=0.1,
                                                lambda_const=math.nan))):
        with pytest.raises(ValueError, match=field):
            CovarianceSpec(**kwargs)
