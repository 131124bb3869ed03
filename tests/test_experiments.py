import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chaoslab import experiments, models, operator, rng, stats
from chaoslab.experiments import (
    BOOTSTRAP_RESAMPLES,
    SAMPLE_CHUNK,
    MomentEstimate,
    QuadratureRefinementNeeded,
    StudyDesign,
    freq_sweep,
    moment_norm,
    scaling_scan,
    second_moment_G,
    second_moment_H,
)
from chaoslab.clustering import volume_lemma_check
from chaoslab.field import CovarianceSpec, sample_field_values, \
    verify_assumption1
from chaoslab.geometry import ScalingGeometry, TestFunction, eval_test_function_many
from chaoslab.kernel import RenormKernel, eval_K0_many, grad_K0_many
from chaoslab.models import ModelFieldSpec
from chaoslab.nonlinearity import make_nonlinearity
from chaoslab.operator import apply_batch
from oracles import full_complex_field_values, loop_bootstrap_moment_norm, \
    per_config_operator_values

G1 = ScalingGeometry((1.0,))

DESIGN = StudyDesign(alpha=0.6, m1=1, m2=1, trig1="sin", trig2="sin",
                     gamma=0.4, h=0.05, extent=2.0)


def test_moment_norm_constant():
    for n in (1, 2, 3):
        est = moment_norm(np.full(300, -2.5), n)
        assert est.value == pytest.approx(2.5)
        assert est.ci[0] == pytest.approx(2.5) and est.ci[1] == pytest.approx(2.5)


def test_moment_norm_zero():
    est = moment_norm(np.zeros(300), 2)
    assert est.value == 0.0
    assert est.ci == (0.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_moment_norm_rejects_non_finite(bad):
    values = np.ones(300)
    values[[3, 17]] = bad
    with pytest.raises(ValueError, match="2 of 300 sample values are not finite"):
        moment_norm(values, 1)


def test_moment_norm_gaussian():
    z = rng.substream(5, 1).standard_normal(60_000)
    est2 = moment_norm(z, 1, seed=5)
    assert est2.ci[0] <= 1.0 <= est2.ci[1]
    est4 = moment_norm(z, 2, seed=5)
    assert est4.ci[0] <= 3.0 ** 0.25 <= est4.ci[1]
    assert est4.value == pytest.approx(3.0 ** 0.25, rel=0.02)


def test_moment_norm_matches_exact_second_moment():
    # chaos polynomial V = Z^2 - 1: exact E V^2 = 2 via the Wick moment
    from chaoslab.isserlis import wick_sum_moment
    z = rng.substream(7, 2).standard_normal(50_000)
    v = z**2 - 1.0
    est = moment_norm(v, 1, seed=7)
    exact = math.sqrt(wick_sum_moment([(2, 2), (2, 2)], np.ones((2, 2))))
    assert est.ci[0] <= exact <= est.ci[1]


def test_moment_norm_deterministic():
    z = rng.substream(9, 3).standard_normal(500)
    a = moment_norm(z, 2, seed=42, tag=3)
    b = moment_norm(z, 2, seed=42, tag=3)
    assert a == b


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1, 3, 1025, 70_000])
def test_moment_norm_matches_loop_bootstrap(m, n):
    # the same index stream; the resample means are counts times values,
    # summed in another order than the loop's gathered means (measured
    # worst 3.9e-15 relative)
    z = rng.substream(13, 7, m).standard_normal(m)
    est = moment_norm(z, n, seed=13, tag=m)
    (point, ci), = loop_bootstrap_moment_norm(z, n, seed=13, tag=m,
                                              resamples=BOOTSTRAP_RESAMPLES)
    assert est.value == point
    assert est.ci == pytest.approx(ci, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m, cells, n", [(1, 1, 1), (3, 5, 2), (1025, 16, 1),
                                         (1025, 16, 2), (70_000, 1, 1)])
def test_moment_norm_columns_match_loop_bootstrap(m, cells, n):
    # a (draws, cells) table: one estimate per column, every column resampled
    # with the same indices; the last column is all zero
    table = rng.substream(17, 7, m).standard_normal((m, cells + 1))
    table[:, -1] = 0.0
    ests = moment_norm(table, n, seed=17, tag=cells)
    want = loop_bootstrap_moment_norm(table, n, seed=17, tag=cells,
                                      resamples=BOOTSTRAP_RESAMPLES)
    assert len(ests) == cells + 1
    for j, (est, (point, ci)) in enumerate(zip(ests, want)):
        assert est.value == point, j
        assert est.ci == pytest.approx(ci, rel=1e-13, abs=0.0), j
        assert est.n_samples == m
        alone = moment_norm(table[:, j], n, seed=17, tag=cells)
        assert est.value == alone.value, j
        assert est.ci == pytest.approx(alone.ci, rel=1e-13, abs=0.0), j
    assert ests[-1] == MomentEstimate(n=n, value=0.0, ci=(0.0, 0.0),
                                      n_samples=m)


@pytest.mark.parametrize("block", [1, 4096, 10 ** 7])
def test_bootstrap_means_agree_across_block_sizes(monkeypatch, block):
    # the index stream does not depend on the block size; the product's
    # rounding does (BLAS by the block's row and column count: <= 2.6e-15)
    x = rng.substream(19, 7).standard_normal((1024, 16)) ** 2
    want = stats.bootstrap_means(x, 19, 3)
    monkeypatch.setattr(stats, "BOOTSTRAP_BLOCK", block)
    np.testing.assert_allclose(stats.bootstrap_means(x, 19, 3), want,
                               rtol=1e-13, atol=0.0)


def test_bootstrap_means_peak_memory_is_blocked():
    # 1024 draws x 16 cells, the scan benchmark's table: the temporaries
    # are one block of indices and counts (measured 1.1 MB), well below the
    # 500 x 1024 count matrix of an unblocked resample (4.1 MB)
    x = rng.substream(23, 7).standard_normal((1024, 16)) ** 2
    stats.bootstrap_means(x, 23, 3)
    tracemalloc.start()
    try:
        stats.bootstrap_means(x, 23, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * BOOTSTRAP_RESAMPLES * 1024 * 8


def test_freq_sweep_zero_theta_row():
    res = freq_sweep(DESIGN, eps=0.2, lam=0.4,
                     theta_grid=[(0.0, 0.0), (1.0, 1.0)], n=1, n_samples=300,
                     seed=1)
    assert res.rows[0].estimate.value == 0.0
    assert res.rows[1].estimate.value > 0.0
    assert math.isfinite(res.max_min_ratio)


def test_scaling_scan_smoke():
    rep = scaling_scan(DESIGN, theta=(1.0, 1.0), eps_grid=[0.4, 0.2],
                       lambda_grid=[0.8, 0.4], n=1, n_samples=400, seed=2)
    assert len(rep.rows) == 4
    assert math.isfinite(rep.bound_constant)
    assert rep.target_eps_exponent == pytest.approx(0.6)
    assert rep.target_lam_exponent == pytest.approx(-0.2)
    assert math.isfinite(rep.eps_slope)


def _estimate(e):
    return {"value": e.value, "ci": list(e.ci), "n_samples": e.n_samples}


def _golden_studies():
    n_samples = 2 * SAMPLE_CHUNK + 1
    fs = freq_sweep(DESIGN, eps=0.2, lam=0.4,
                    theta_grid=[(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)], n=1,
                    n_samples=n_samples, seed=7)
    sc = scaling_scan(DESIGN, theta=(1.0, 1.0), eps_grid=[0.4, 0.2],
                      lambda_grid=[0.8, 0.6, 0.4], n=1, n_samples=n_samples,
                      seed=5)
    return {
        "n_samples": n_samples,
        "freq_sweep": {"rows": [_estimate(r.estimate) for r in fs.rows],
                       "max_min_ratio": fs.max_min_ratio},
        "scaling_scan": {"rows": [dict(eps=r.eps, lam=r.lam,
                                       **_estimate(r.estimate))
                                  for r in sc.rows],
                         "eps_slope": sc.eps_slope, "lam_slope": sc.lam_slope,
                         "bound_constant": sc.bound_constant},
    }


def _assert_close(got, want, rel, path="golden"):
    """Floats within ``rel`` relative; keys, ints and exact zeros equal."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], rel, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, rel, f"{path}[{i}]")
    elif isinstance(want, float) and want != 0.0:
        assert got == pytest.approx(want, rel=rel, abs=0.0), path
    else:
        assert got == want, path


GOLDEN_STUDIES = Path(__file__).with_name("golden_operator_studies.json")


def _golden():
    return json.loads(GOLDEN_STUDIES.read_text())


def _unpaired_sample_fields(spectra, seed, indices):
    """The studies' draw seam on the old synthesis route: each spectrum
    drawn on its own, one complex transform per draw."""
    return (full_complex_field_values(spec, seed, indices) for spec in spectra)


def test_studies_match_golden_fixture(monkeypatch):
    # golden_operator_studies.json was recorded before the operator set-up
    # was shared across cells and chunks and before draws were paired in one
    # complex transform; three chunks per call.  On the old synthesis route
    # every number, bootstrap intervals included, must be reproduced exactly.
    monkeypatch.setattr(experiments, "sample_fields", _unpaired_sample_fields)
    assert _golden_studies() == _golden()


def test_studies_match_golden_fixture_paired_synthesis():
    # pairing draws changes the floating-point order of the synthesis only:
    # estimates, intervals and slopes agree to 1e-12 relative (measured
    # worst 6.8e-14); sizes, eps, lam and the zero theta = (0, 0) row exactly
    got, want = _golden_studies(), _golden()
    _assert_close(got, want, rel=1e-12)
    for g, w in zip(got["scaling_scan"]["rows"], want["scaling_scan"]["rows"]):
        assert (g["eps"], g["lam"]) == (w["eps"], w["lam"])


@pytest.mark.parametrize("n_samples", [100, 2 * SAMPLE_CHUNK + 1])
def test_studies_build_each_setup_once(monkeypatch, n_samples):
    builds = []
    eval_K_many = operator.eval_K_many

    def counting(*args, **kwargs):
        builds.append(1)
        return eval_K_many(*args, **kwargs)

    monkeypatch.setattr(operator, "eval_K_many", counting)
    freq_sweep(DESIGN, eps=0.2, lam=0.4,
               theta_grid=[(0.5, 0.5), (1.0, 1.0), (3.0, 2.0)], n=1,
               n_samples=n_samples, seed=1)
    assert len(builds) == 1
    builds.clear()
    scaling_scan(DESIGN, theta=(1.0, 1.0), eps_grid=[0.4, 0.2],
                 lambda_grid=[0.8, 0.6, 0.4], n=1, n_samples=n_samples, seed=2)
    assert len(builds) == 3


def test_operator_at_taylor_depth_two_matches_pairwise_sum():
    # r_e = 2 against the double sum taken pair by pair from K0 and grad K0,
    # with the singular cell y = 0 and the excluded diagonal dropped; the
    # study's moment norm at n = 1 is the root mean square of those values
    design = dataclasses.replace(DESIGN, re_override=2)
    eps, lam, theta, seed = 0.2, 0.5, (1.0, 1.0), 4
    lat = design.lattice()
    spec = design.spectrum(eps, lat)
    raw = sample_field_values(spec, seed, np.arange(3))
    cfg = design.operator_config(lam, theta, lattice=lat)
    got = apply_batch(cfg, raw, spec.sigma2, design.alpha, eps)

    kern, h = design.kernel(), design.h
    pts = lat.points()
    phi = eval_test_function_many(cfg.setup.test, pts)
    in_x, in_y = phi > 0.0, np.abs(pts[:, 0]) <= design.y_radius
    fx = np.sin(theta[0] * eps ** (design.alpha / 2.0) * raw[:, in_x])
    fy = np.sin(theta[1] * eps ** (design.alpha / 2.0) * raw[:, in_y])
    want = np.zeros(3)
    for x, phi_x, fx_x in zip(pts[in_x], phi[in_x], fx.T):
        for y, fy_y in zip(pts[in_y], fy.T):
            if y[0] == 0.0 or abs(x[0] - y[0]) < design.diagonal_policy * h:
                continue
            k = (eval_K0_many(x - y, kern) - eval_K0_many(-y, kern)
                 - x[0] * grad_K0_many(-y, kern)[0])
            want += phi_x * h * k * h * fx_x * fy_y
    assert kern.r_e == 2
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    est = freq_sweep(design, eps=eps, lam=lam, theta_grid=[theta], n=1,
                     n_samples=3, seed=seed).rows[0].estimate
    assert est.value == pytest.approx(float(np.sqrt(np.mean(want ** 2))),
                                      rel=1e-12)


def test_operator_keeps_no_all_zero_kernel_column():
    # K(x, y) vanishes once |x - y| and |y| both pass the cutoff, so such y
    # points add nothing to the double sum and are left out of its y set
    setup = DESIGN.operator_setup(0.4)
    kmat = setup.arrays["kmat"]
    assert kmat.shape[1] == len(setup.arrays["y_idx"])
    assert np.all(np.any(kmat != 0.0, axis=0))


def test_freq_sweep_pool_matches_serial():
    kwargs = dict(eps=0.2, lam=0.4, theta_grid=[(1.0, 1.0), (3.0, 2.0)], n=1,
                  n_samples=600, seed=3)
    assert freq_sweep(DESIGN, workers=2, **kwargs) == \
        freq_sweep(DESIGN, workers=1, **kwargs)


def test_scaling_scan_pool_matches_serial():
    kwargs = dict(theta=(1.0, 1.0), eps_grid=[0.4, 0.2],
                  lambda_grid=[0.8, 0.4], n=1, n_samples=600, seed=3)
    assert scaling_scan(DESIGN, workers=2, **kwargs) == \
        scaling_scan(DESIGN, workers=1, **kwargs)


def _opened_paths(monkeypatch) -> list:
    """Substream paths opened from now on, by rng.substream or through
    rng.substream_opener, in order."""
    opened = []
    substream, substream_opener = rng.substream, rng.substream_opener

    def counting(seed, *path):
        opened.append(path)
        return substream(seed, *path)

    def counting_opener(seed, purpose):
        open_stream = substream_opener(seed, purpose)

        def counting_open(k):
            opened.append((purpose, k))
            return open_stream(k)
        return counting_open

    monkeypatch.setattr(rng, "substream", counting)
    monkeypatch.setattr(rng, "substream_opener", counting_opener)
    return opened


def test_scaling_scan_opens_each_field_substream_once(monkeypatch):
    # the noise of a chunk is drawn once for every eps of the call; an odd
    # n_samples still opens the partner of its last draw
    opened = _opened_paths(monkeypatch)
    n_samples = SAMPLE_CHUNK + 3
    scaling_scan(DESIGN, theta=(1.0, 1.0), eps_grid=[0.4, 0.2],
                 lambda_grid=[0.8, 0.4], n=1, n_samples=n_samples, seed=2)
    field_paths = sorted(p for p in opened if p[0] == rng.FIELD)
    assert field_paths == [(rng.FIELD, k) for k in range(n_samples + 1)]


def test_each_resampling_routine_opens_its_own_bootstrap_stream(monkeypatch):
    # one study call resamples every cell from one BOOTSTRAP stream, and no
    # two routines share one at the same seed
    opened = _opened_paths(monkeypatch)
    seed, rough = 3, make_nonlinearity("power_even", beta=0.5)
    kpz = ModelFieldSpec(family="kpz", epsilon=0.3, h=0.125, counts=(24, 12),
                         kernel_cut=0.4)
    calls = {
        "freq_sweep": lambda: freq_sweep(
            DESIGN, eps=0.2, lam=0.4, theta_grid=[(1.0, 1.0), (3.0, 2.0)],
            n=1, n_samples=40, seed=seed),
        "scaling_scan": lambda: scaling_scan(
            DESIGN, theta=(1.0, 1.0), eps_grid=[0.4, 0.2],
            lambda_grid=[0.8, 0.4], n=1, n_samples=40, seed=seed),
        "verify_assumption1": lambda: verify_assumption1(
            DESIGN.spectrum(0.2, DESIGN.lattice()), 8, seed=seed),
        "remainder_pairing": lambda: models.remainder_pairing(
            "kpz", rough, a=1.0, mfspec=kpz, delta=0.2, lam=0.4, n=1,
            n_samples=3, seed=seed),
        "mollification_gap": lambda: models.mollification_gap(
            rough, a=1.0, mfspec=kpz, delta=0.3, lam=0.4, n=1, n_samples=3,
            seed=seed),
    }
    paths = {}
    for name, call in calls.items():
        opened.clear()
        call()
        paths[name] = [p for p in opened if p[0] == rng.BOOTSTRAP]
        assert len(paths[name]) == 1, name
    assert len({tuple(p) for p in paths.values()}) == len(calls)


def _no_draws(monkeypatch):
    def fail(*args):
        raise AssertionError("the study drew before validating its input")
    monkeypatch.setattr(experiments, "sample_fields", fail)


def test_scaling_scan_resolution_guard(monkeypatch):
    # every eps is checked before the first draw, the last one included
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match="below resolution"):
        scaling_scan(DESIGN, theta=(1.0, 1.0), eps_grid=[0.4, 0.05],
                     lambda_grid=[0.4], n=1, n_samples=300)


@pytest.mark.parametrize("kwargs, match", [
    (dict(n_samples=0), "n_samples must be at least 1"),
    (dict(theta_grid=[]), "theta_grid is empty")], ids=["no-draws", "no-theta"])
def test_freq_sweep_rejects_empty_input(monkeypatch, kwargs, match):
    _no_draws(monkeypatch)
    args = dict(eps=0.2, lam=0.4, theta_grid=[(1.0, 1.0)], n=1, n_samples=4)
    with pytest.raises(ValueError, match=match):
        freq_sweep(DESIGN, **{**args, **kwargs})


@pytest.mark.parametrize("kwargs, match", [
    (dict(n_samples=0), "n_samples must be at least 1"),
    (dict(eps_grid=[]), "eps_grid is empty"),
    (dict(lambda_grid=[]), "lambda_grid is empty")],
    ids=["no-draws", "no-eps", "no-lam"])
def test_scaling_scan_rejects_empty_input(monkeypatch, kwargs, match):
    _no_draws(monkeypatch)
    args = dict(theta=(1.0, 1.0), eps_grid=[0.2], lambda_grid=[0.4], n=1,
                n_samples=4)
    with pytest.raises(ValueError, match=match):
        scaling_scan(DESIGN, **{**args, **kwargs})


def test_scaling_scan_accepts_one_cell():
    # one eps and one lam give one estimate and no slope
    rep = scaling_scan(DESIGN, theta=(1.0, 1.0), eps_grid=[0.2],
                       lambda_grid=[0.4], n=1, n_samples=3, seed=1)
    assert [(r.eps, r.lam) for r in rep.rows] == [(0.2, 0.4)]
    assert rep.rows[0].estimate.value > 0.0
    assert math.isnan(rep.eps_slope) and math.isnan(rep.lam_slope)


def _power_law_scan(monkeypatch, eps_grid, lambda_grid, excluded=()):
    """scaling_scan with every moment norm replaced by eps^0.6 * lam^-0.2;
    the cells at the row positions in ``excluded`` get an interval reaching
    zero."""
    values = [e ** 0.6 * lam ** -0.2 for e in eps_grid for lam in lambda_grid]

    def fake_norm(table, n, seed=0, tag=0):
        assert table.shape == (len(table), len(values))
        return [MomentEstimate(n=n, value=v,
                               ci=(0.0 if i in excluded else 0.5 * v, 2.0 * v),
                               n_samples=len(table))
                for i, v in enumerate(values)]

    monkeypatch.setattr(experiments, "moment_norm", fake_norm)
    return scaling_scan(DESIGN, theta=(1.0, 1.0), eps_grid=eps_grid,
                        lambda_grid=lambda_grid, n=1, n_samples=4, seed=1)


@pytest.mark.parametrize("eps_grid, lambda_grid", [
    ([0.2], [0.8, 0.6, 0.4]), ([0.2, 0.2], [0.8, 0.6]),
    ([0.4, 0.2, 0.1], [0.5])], ids=["one-eps", "repeated-eps", "one-lam"])
def test_scaling_scan_degenerate_grid_fits_no_slope(monkeypatch, eps_grid,
                                                    lambda_grid):
    # one eps (or one lam) cannot determine both slopes of the log-log fit
    rep = _power_law_scan(monkeypatch, eps_grid, lambda_grid)
    assert len(rep.rows) == len(eps_grid) * len(lambda_grid)
    assert all(math.isnan(v) for v in (rep.eps_slope, rep.eps_slope_se,
                                       rep.lam_slope, rep.lam_slope_se))


def test_scaling_scan_three_fitted_rows_leave_no_standard_error(monkeypatch):
    # three points fix the plane exactly: slopes, but no degree of freedom
    rep = _power_law_scan(monkeypatch, [0.4, 0.2], [0.8, 0.4], excluded={3})
    assert [r.excluded for r in rep.rows] == [False, False, False, True]
    assert rep.eps_slope == pytest.approx(0.6, rel=1e-12)
    assert rep.lam_slope == pytest.approx(-0.2, rel=1e-12)
    assert math.isnan(rep.eps_slope_se) and math.isnan(rep.lam_slope_se)


def test_second_moment_g_zero_kernel():
    # every |x - y| >= 1.1 lies beyond the cutoff 1.0, so the kernel is zero
    kern = RenormKernel(gamma=0.4, g=G1, r_e=0)
    cov = CovarianceSpec(alpha=0.6, epsilon=0.1)
    assert second_moment_G((1.5,), kern, 1, cov, h=0.02, y_radius=0.4) == 0.0


@pytest.mark.parametrize("s", [(2.0,), (1.5,), (1.0, 1.0)])
@pytest.mark.parametrize("routine", ["G", "H", "volume_lemma"])
def test_unit_line_routines_reject_other_scalings(routine, s):
    # the quadrature grids and the lemma sampler use coordinate distances and
    # unit cell weights, which are only right on the line with s = (1,)
    g = ScalingGeometry(s)
    kern = RenormKernel(gamma=0.4, g=g, r_e=0)
    cov = CovarianceSpec(alpha=0.6, epsilon=0.1)
    x = (0.1,) * g.d
    with pytest.raises(NotImplementedError, match=r"s = \(1,\)"):
        if routine == "G":
            second_moment_G(x, kern, 1, cov, h=0.02)
        elif routine == "H":
            second_moment_H(x, kern, TestFunction(geometry=g, scale=0.3), 1,
                            cov, h=0.02)
        else:
            volume_lemma_check(1, kern, [0.1], [0.2], alpha=0.6, m2=1,
                               n_mc=100)


@pytest.mark.parametrize("h", [0.0, -0.02])
def test_second_moment_rejects_non_positive_step(h):
    kern = RenormKernel(gamma=0.4, g=G1, r_e=0)
    cov = CovarianceSpec(alpha=0.6, epsilon=0.1)
    with pytest.raises(ValueError, match="step must be positive"):
        second_moment_G((0.1,), kern, 1, cov, h=h)
    with pytest.raises(ValueError, match="step must be positive"):
        second_moment_H((0.8,), kern, TestFunction(geometry=G1, scale=0.3), 1,
                        cov, h=h)


def test_second_moment_g_positive_and_certified():
    kern = RenormKernel(gamma=0.4, g=G1, r_e=0)
    cov = CovarianceSpec(alpha=0.6, epsilon=0.1)
    val = second_moment_G((0.1,), kern, 1, cov, h=0.02)
    assert val > 0.0


def test_second_moment_h_zero_test():
    kern = RenormKernel(gamma=0.4, g=G1, r_e=1)
    cov = CovarianceSpec(alpha=0.6, epsilon=0.1)
    tf = TestFunction(geometry=G1, scale=0.3, profile=lambda r: np.zeros_like(r))
    assert second_moment_H((0.8,), kern, tf, 1, cov, h=0.01) == 0.0


def test_second_moment_h_positive():
    kern = RenormKernel(gamma=0.4, g=G1, r_e=1)
    cov = CovarianceSpec(alpha=0.6, epsilon=0.1)
    tf = TestFunction(geometry=G1, scale=0.3)
    assert second_moment_H((0.8,), kern, tf, 1, cov, h=0.01) > 0.0


def test_volume_lemma_far_unrestricted_when_clustered():
    # eps >= 4*lam and L*eps above the box diameter: every configuration is
    # clustered, so the far integral equals the unrestricted product integral
    kern = RenormKernel(gamma=0.4, g=G1, r_e=0)
    n, lam, eps, q = 1, 0.05, 0.45, 1.0 - 0.4
    rep = volume_lemma_check(n, kern, [eps], [lam], alpha=0.6, m2=1,
                             n_mc=400_000, L=10.0, seed=3)
    row = rep.rows[0]
    one_dim = 2 * (2.0 ** (1 - q) - (2 * lam) ** (1 - q)) / (1 - q)
    assert row.integral_far == pytest.approx(one_dim ** (2 * n), rel=0.05)
    assert row.integral_near is None  # r_e = 0 skips the near lemma


@pytest.mark.parametrize("n, L, n_mc", [(0, 1.0, 100), (1, -1.0, 100),
                                         (1, 0.0, 100), (1, 1.0, 0)],
                         ids=["n0", "negative-L", "zero-L", "no-samples"])
def test_volume_lemma_rejects_invalid_input(n, L, n_mc):
    kern = RenormKernel(gamma=0.4, g=G1, r_e=1)
    with pytest.raises(ValueError, match=r"n >= 1|n_mc"):
        volume_lemma_check(n, kern, [0.1], [0.2], alpha=0.6, m2=1, n_mc=n_mc,
                           L=L)


def test_volume_lemma_near_part_present_for_re1():
    kern = RenormKernel(gamma=0.4, g=G1, r_e=1)
    rep = volume_lemma_check(1, kern, [0.1], [0.2], alpha=0.6, m2=1,
                             n_mc=100_000, seed=4)
    row = rep.rows[0]
    assert row.integral_near is not None and row.integral_near >= 0.0
    assert rep.max_ratio_near is not None


def _per_config_study(design, cells, eps_grid, n, n_samples, seed, tag,
                      apply):
    """Moment estimates of a study by the per-eps, per-config route: each
    eps drawn on its own by ``sample_field_values``, each (lam, theta) cell
    of ``cells`` contracted on its own by ``apply``, and the (eps, cell)
    columns resampled together from the BOOTSTRAP stream ``tag``."""
    lat = design.lattice()
    configs = [design.operator_config(lam, theta, lattice=lat)
               for lam, theta in cells]
    columns = []
    for eps in eps_grid:
        spec = design.spectrum(eps, lat)
        chunks = []
        for lo in range(0, n_samples, SAMPLE_CHUNK):
            values = sample_field_values(
                spec, seed, np.arange(lo, min(lo + SAMPLE_CHUNK, n_samples)))
            chunks.append([apply(cfg, values, spec.sigma2, design.alpha, eps)
                           for cfg in configs])
            del values
        columns += [np.concatenate([c[j] for c in chunks])
                    for j in range(len(configs))]
    return moment_norm(np.column_stack(columns), n, seed=seed, tag=tag)


def _traced_peak(fn):
    """fn() and the peak traced allocation of that call, after one untraced
    warm-up call (one-off imports and caches)."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_freq_sweep_peak_memory_within_per_config_route():
    # d = 2: the kernel set-up dominates; the study builds it before its
    # draws exist, the per-config routes on top of them (the public one and
    # the one from before factors were shared, which builds it before it
    # normalises the draws)
    design = StudyDesign(alpha=0.6, m1=1, m2=1, trig1="sin", trig2="sin",
                         gamma=0.4, s=(2.0, 1.0), h=0.1, extent=3.0)
    thetas = [(1.0, 1.0), (4.0, 2.0)]
    res, peak = _traced_peak(lambda: freq_sweep(
        design, 0.05, 0.2, thetas, n=1, n_samples=32, seed=4))
    for apply in (apply_batch, per_config_operator_values):
        want, ref_peak = _traced_peak(lambda: _per_config_study(
            design, [(0.2, t) for t in thetas], [0.05], 1, 32, 4,
            experiments._FREQ_SWEEP_TAG, apply))
        assert [r.estimate for r in res.rows] == want
        assert peak <= ref_peak, apply.__name__


def test_scaling_scan_peak_memory_within_per_config_route():
    # d = 1 on the scan benchmark's lattice, where a chunk's draws dominate.
    # Sharing the noise across eps keeps the chunk's noise transform alive
    # while the first eps is contracted; normalising only the union columns
    # and freeing them once every factor table is built must pay for it, so
    # the peak stays at or below the route that drew each eps on its own
    # and contracted each config on its own columns.  (Against the public
    # apply_batch, which shares the lean contraction, the transform shows:
    # 5.2 MB against 4.0 MB, measured with numpy 2.4.)
    design = StudyDesign(alpha=0.6, m1=1, m2=1, trig1="sin", trig2="sin",
                         gamma=0.5, h=0.0125, extent=4.0)
    eps_grid, cells = [0.2, 0.1], [(1.0, (3.0, 3.0)), (0.6, (3.0, 3.0))]
    rep, peak = _traced_peak(lambda: scaling_scan(
        design, (3.0, 3.0), eps_grid, [lam for lam, _ in cells], n=1,
        n_samples=SAMPLE_CHUNK, seed=4))
    want, ref_peak = _traced_peak(lambda: _per_config_study(
        design, cells, eps_grid, 1, SAMPLE_CHUNK, 4,
        experiments._SCALING_SCAN_TAG, per_config_operator_values))
    assert [r.estimate for r in rep.rows] == want
    assert peak <= ref_peak


if __name__ == "__main__":
    # Re-record golden_operator_studies.json on the old synthesis route, only
    # when a change is meant to move the study numbers:
    #     PYTHONPATH=src python tests/test_experiments.py
    experiments.sample_fields = _unpaired_sample_fields
    GOLDEN_STUDIES.write_text(json.dumps(_golden_studies(), indent=1))
