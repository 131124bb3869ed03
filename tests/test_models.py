import math
from dataclasses import replace

import numpy as np
import pytest

from chaoslab import models
from chaoslab.geometry import TestFunction, eval_test_function_many
from chaoslab.models import (
    ModelFieldSpec,
    build_model_field,
    heat_kernel,
    holder_norm,
    mollification_gap,
    remainder_pairing,
    sample_model_field_values,
)
from chaoslab.nonlinearity import gaussian_mean, make_nonlinearity, mollify
from chaoslab.stats import moment_norm
from oracles import per_draw_model_field

KPZ_SPEC = ModelFieldSpec(family="kpz", epsilon=0.3, h=0.125, counts=(48, 24),
                          kernel_cut=0.4)
PHI4_SPEC = ModelFieldSpec(family="phi43", epsilon=0.5, h=0.25,
                           counts=(16, 8, 8, 8), kernel_cut=0.4)

CUBIC = make_nonlinearity("polynomial", coeffs=[0.0, 0.0, 0.0, 1.0])  # u^3
QUADRATIC = make_nonlinearity("polynomial", coeffs=[0.0, 0.0, 1.0])   # u^2


def _no_draws(monkeypatch):
    def fail(*args):
        raise AssertionError("the study drew before validating its input")
    monkeypatch.setattr(models, "sample_model_field_values", fail)


def object_field(nonlin, j: int, mf, values: np.ndarray) -> np.ndarray:
    """The renormalised object j' (a = 1) on the lattice for one draw."""
    return models._ladder(nonlin, 1.0, mf, [j])[0](values)


def test_heat_kernel_values():
    pts = np.array([[0.1, 0.2], [-0.1, 0.2], [0.1, 0.0], [0.0, 0.0]])
    vals = heat_kernel(pts, derivative=False)
    assert vals[1] == 0.0  # no backward-in-time support
    assert vals[3] == 0.0  # nor at t = 0: the origin cell needs no dropping
    want = (4 * math.pi * 0.1) ** -0.5 * math.exp(-0.04 / 0.4)
    assert vals[0] == pytest.approx(want)
    assert vals[2] == pytest.approx((4 * math.pi * 0.1) ** -0.5)


def test_kpz_kernel_odd_in_space():
    pts = np.array([[0.1, 0.2], [0.1, -0.2]])
    vals = heat_kernel(pts, derivative=True)
    assert vals[0] == pytest.approx(-vals[1])


@pytest.mark.parametrize("cut", [0.0, -1.0, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
def test_model_field_spec_rejects_bad_kernel_cut(monkeypatch, cut):
    # 0, NaN and inf built a zero field, -1 an uncut kernel, with no error
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match="kernel_cut"):
        replace(KPZ_SPEC, kernel_cut=cut)


def test_field_variance_matches_stencil():
    mf = build_model_field(KPZ_SPEC)
    vals = sample_model_field_values(mf, 4, np.arange(600))
    site = vals[:, mf.lattice.shape[0] // 2, mf.lattice.shape[1] // 2]
    emp = float(np.var(site))
    assert emp == pytest.approx(mf.var_raw, rel=0.15)


def test_field_deterministic():
    mf = build_model_field(KPZ_SPEC)
    a = sample_model_field_values(mf, 9, [3])[0]
    b = sample_model_field_values(mf, 9, [3])[0]
    assert np.array_equal(a, b)


@pytest.mark.parametrize("index", [0.5, 2.9, -1, np.array([[1, 2]])],
                         ids=["half", "2.9", "negative", "2-d"])
def test_sample_model_field_rejects_bad_index(index):
    mf = build_model_field(KPZ_SPEC)
    with pytest.raises(ValueError):
        sample_model_field_values(mf, 1, [index])


def test_model_field_batches_match_single_draws():
    # lone even, lone odd, a pair split across two transforms, a range
    mf = build_model_field(KPZ_SPEC)
    single = {k: sample_model_field_values(mf, 4, [k])[0] for k in range(7)}
    for indices in ([2], [5], [1, 2], list(range(7))):
        got = sample_model_field_values(mf, 4, indices)
        for row, k in zip(got, indices):
            assert np.array_equal(row, single[k])
    want = per_draw_model_field(mf, 4, range(7))
    got = sample_model_field_values(mf, 4, np.arange(7))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_polynomial_reduction_wick_square():
    # cubic nonlinearity: the second-slot object is exactly the Wick square
    mf = build_model_field(PHI4_SPEC)
    vals = sample_model_field_values(mf, 2, [0])[0]
    got = object_field(CUBIC, 2, mf, vals)
    want = vals**2 - mf.var_raw
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_kpz_constant_curvature_object_vanishes():
    # F'' = 2a constant: the zeroth object is identically zero
    mf = build_model_field(KPZ_SPEC)
    vals = sample_model_field_values(mf, 2, [1])[0]
    got = object_field(QUADRATIC, 0, mf, vals)
    np.testing.assert_allclose(got, 0.0, atol=1e-12)


def test_renorm_analytic_vs_empirical():
    # the analytic c_2 against the Monte Carlo mean of object 2' before its
    # constant, 2! / (3! a eps) F'(sqrt(eps) field) at a = 1, over dedicated
    # draws; the ladder's c_2 is what its object 2' subtracts
    beta = 0.5
    f = make_nonlinearity("power_odd", beta=beta)
    mf = build_model_field(PHI4_SPEC)
    eps = PHI4_SPEC.epsilon
    vals = sample_model_field_values(mf, 8, np.arange(150))
    before = 2.0 / (6.0 * eps) * f.deriv(1, math.sqrt(eps) * vals)
    c_ana = float(np.mean(before - object_field(f, 2, mf, vals)))
    c_emp = float(np.mean(before))
    assert c_emp == pytest.approx(c_ana, rel=0.1)


def test_renormalized_mean_within_ci():
    f = make_nonlinearity("power_odd", beta=0.5)
    mf = build_model_field(PHI4_SPEC)
    two = models._ladder(f, 1.0, mf, [2])[0]
    means = []
    for i in range(200, 400):
        vals = sample_model_field_values(mf, 3, [i])[0]
        means.append(float(np.mean(two(vals))))
    m = np.mean(means)
    se = np.std(means, ddof=1) / math.sqrt(len(means))
    assert abs(m) < 4 * se + 1e-12


def test_holder_norm_zero_field():
    mf = build_model_field(KPZ_SPEC)
    est = holder_norm(np.zeros(mf.lattice.shape), mf.lattice, alpha=-0.5)
    assert est.value == 0.0


def test_holder_norm_grid_monotone():
    mf = build_model_field(KPZ_SPEC)
    vals = sample_model_field_values(mf, 6, [0])[0]
    e2 = holder_norm(vals, mf.lattice, alpha=-0.5, lambda_levels=2)
    e4 = holder_norm(vals, mf.lattice, alpha=-0.5, lambda_levels=4)
    assert e4.value >= e2.value - 1e-15


def test_holder_norm_self_overlap():
    # probing the bump with itself: value >= lam0^{0.5} * ||bump||_2^2-type mass
    from chaoslab.geometry import TestFunction, eval_test_function_many
    mf = build_model_field(KPZ_SPEC)
    lat = mf.lattice
    tf = TestFunction(geometry=lat.geometry, scale=0.5)
    pts = lat.points().reshape(lat.shape + (2,))
    probe = eval_test_function_many(tf, pts)
    est = holder_norm(probe, lat, alpha=-0.5, lambda_levels=1)
    overlap = float(np.sum(probe * probe) * lat.cell_volume)
    assert est.value >= 0.5 ** 0.5 * overlap - 1e-12


@pytest.mark.parametrize("h, alpha, levels", [
    (0.3, -0.5, 4), (0.125, -0.5, 0), (0.125, -0.5, 2.5),
    (0.125, float("nan"), 4)],
    ids=["unresolved-scale", "no-levels", "fractional-levels", "nan-alpha"])
def test_holder_norm_rejects_empty_or_nan_estimate(h, alpha, levels):
    lat = replace(KPZ_SPEC, h=h).lattice()
    vals = np.ones(lat.shape)
    with pytest.raises(ValueError):
        holder_norm(vals, lat, alpha=alpha, lambda_levels=levels)


def test_holder_norm_rejects_bad_values():
    lat = KPZ_SPEC.lattice()
    with pytest.raises(ValueError, match="lattice shape"):
        holder_norm(np.ones((10, 10)), lat, alpha=-0.5)
    with pytest.raises(ValueError, match="1152 of 1152 are not"):
        holder_norm(np.full(lat.shape, np.nan), lat, alpha=-0.5)


def test_remainder_pairing_zero_delta():
    f = make_nonlinearity("power_even", beta=0.5)
    est = remainder_pairing("kpz", f, a=1.0, mfspec=KPZ_SPEC, delta=0.0,
                            lam=0.4, n=1, n_samples=40, seed=7)
    assert est.value == 0.0


def test_remainder_pairing_grows_with_delta():
    f = make_nonlinearity("power_even", beta=0.5)
    small = remainder_pairing("kpz", f, a=1.0, mfspec=KPZ_SPEC, delta=0.1,
                              lam=0.4, n=1, n_samples=60, seed=7)
    large = remainder_pairing("kpz", f, a=1.0, mfspec=KPZ_SPEC, delta=0.4,
                              lam=0.4, n=1, n_samples=60, seed=7)
    assert large.value > small.value > 0.0


def test_remainder_pairing_polynomial_small():
    # smooth nonlinearity: mollification error is O(delta^2) and tiny
    est_poly = remainder_pairing("kpz", QUADRATIC, a=1.0, mfspec=KPZ_SPEC,
                                 delta=0.05, lam=0.4, n=1, n_samples=40, seed=7)
    f = make_nonlinearity("power_even", beta=0.5)
    est_rough = remainder_pairing("kpz", f, a=1.0, mfspec=KPZ_SPEC,
                                  delta=0.05, lam=0.4, n=1, n_samples=40, seed=7)
    assert est_poly.value < est_rough.value


def test_remainder_pairing_evaluates_heat_kernel_once(monkeypatch):
    # the field's kernel transform is the pairing's: one evaluation per call
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return heat_kernel(*args, **kwargs)

    monkeypatch.setattr(models, "heat_kernel", counted)
    remainder_pairing("kpz", make_nonlinearity("power_even", beta=0.5), a=1.0,
                      mfspec=KPZ_SPEC, delta=0.2, lam=0.4, n=1, n_samples=2,
                      seed=1)
    assert len(calls) == 1


@pytest.mark.parametrize("family", ["phi43", "foo"])
def test_remainder_pairing_rejects_family_not_of_field(monkeypatch, family):
    # a phi43 ladder on a kpz field gave a number; an unknown family a KeyError
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match="family"):
        remainder_pairing(family, make_nonlinearity("power_odd", beta=0.5),
                          a=1.0, mfspec=KPZ_SPEC, delta=0.2, lam=0.4, n=1,
                          n_samples=4, seed=1)


@pytest.mark.parametrize("study", ["remainder_pairing", "mollification_gap"])
@pytest.mark.parametrize("a", [0.0, float("nan"), float("inf")],
                         ids=["zero", "nan", "inf"])
def test_studies_reject_bad_a(monkeypatch, study, a):
    # a = 0 raised a bare ZeroDivisionError, NaN failed only after drawing
    _no_draws(monkeypatch)
    f = make_nonlinearity("power_even", beta=0.5)
    args = dict(a=a, mfspec=KPZ_SPEC, delta=0.2, lam=0.4, n=1, n_samples=4,
                seed=1)
    with pytest.raises(ValueError, match=r"\ba\b"):
        if study == "remainder_pairing":
            remainder_pairing("kpz", f, **args)
        else:
            mollification_gap(f, **args)


@pytest.mark.parametrize("study", ["remainder_pairing", "mollification_gap"])
@pytest.mark.parametrize("n", [0, 1.5], ids=["zero", "fraction"])
def test_studies_check_the_half_order_first(monkeypatch, study, n):
    # n = 0 raised only after every draw, and n = 1.5 ran and returned an
    # estimate of order 1.5; both raise before the field is built
    _no_draws(monkeypatch)

    def no_field(*args):
        raise AssertionError("the study built its field before validating n")

    monkeypatch.setattr(models, "build_model_field", no_field)
    f = make_nonlinearity("power_even", beta=0.5)
    args = dict(a=1.0, mfspec=KPZ_SPEC, delta=0.2, lam=0.4, n=n, n_samples=4,
                seed=1)
    with pytest.raises(ValueError, match="half-order n must be an integer"):
        if study == "remainder_pairing":
            remainder_pairing("kpz", f, **args)
        else:
            mollification_gap(f, **args)


@pytest.mark.parametrize("study", ["remainder_pairing", "mollification_gap"])
@pytest.mark.parametrize("n_samples", [0, 4.0], ids=["zero", "float"])
def test_studies_check_the_draw_count_first(monkeypatch, study, n_samples):
    # n_samples = 0 failed with "empty sample" after the field was built, and
    # 4.0 with a bare TypeError from range(); both raise before the field
    _no_draws(monkeypatch)

    def no_field(*args):
        raise AssertionError("the study built its field before validating "
                             "n_samples")

    monkeypatch.setattr(models, "build_model_field", no_field)
    f = make_nonlinearity("power_even", beta=0.5)
    args = dict(a=1.0, mfspec=KPZ_SPEC, delta=0.2, lam=0.4, n=1,
                n_samples=n_samples, seed=1)
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        if study == "remainder_pairing":
            remainder_pairing("kpz", f, **args)
        else:
            mollification_gap(f, **args)


def _per_draw_pairing(family, nonlin, a, mfspec, delta, lam, n, n_samples, seed):
    """remainder_pairing with every constant recomputed on every draw.

    The Taylor term is the row sum_y K0(0 - y) inner(y): on the centred
    lattice arrays (even counts) K0(0 - y) is the centred kernel flipped and
    rolled by one.  Both transforms drop the singular cell y = 0.
    """
    mf = build_model_field(mfspec)
    lat = mf.lattice
    g = lat.geometry
    kern_c = models._cut_heat_kernel(mfspec, lat)
    kern_c[tuple(k // 2 for k in lat.shape)] = 0.0  # the singular cell y = 0
    kern_fft = np.fft.fftn(models._to_origin(kern_c))
    axes = tuple(range(g.d))
    row = np.roll(np.flip(kern_c, axis=axes), 1, axis=axes)
    pref = 1.0 / (2.0 * a**2 * mfspec.epsilon ** 1.5) if family == "kpz" else 1.0
    pts = lat.points().reshape(lat.shape + (g.d,))
    phi = eval_test_function_many(TestFunction(geometry=g, scale=lam), pts)
    out = np.empty(n_samples)
    for i in range(n_samples):
        vals = sample_model_field_values(mf, seed, [i])[0]
        x = math.sqrt(mfspec.epsilon) * vals
        taus = []
        for fl in (nonlin, mollify(nonlin, delta)):
            if family == "kpz":
                inner = fl.deriv(0, x) - gaussian_mean(fl, mf.sigma2)
                outer = fl.deriv(1, x)
            else:
                three, two = models._ladder(fl, a, mf, [3, 2])
                inner, outer = three(vals), two(vals)
            conv = np.real(np.fft.ifftn(np.fft.fftn(inner) * kern_fft))
            taylor = float(np.sum(row * inner))
            taus.append(pref * outer * (conv - taylor) * lat.cell_volume)
        out[i] = float(np.sum(phi * (taus[0] - taus[1])) * lat.cell_volume)
    return moment_norm(out, n, seed=seed, tag=11)


@pytest.mark.parametrize("family, nonlin, mfspec", [
    ("kpz", make_nonlinearity("power_even", beta=0.5), KPZ_SPEC),
    ("phi43", make_nonlinearity("power_odd", beta=0.5), PHI4_SPEC),
], ids=["kpz", "phi43"])
def test_remainder_pairing_matches_per_draw_constants(monkeypatch, family, nonlin,
                                                      mfspec):
    args = dict(family=family, nonlin=nonlin, a=1.0, mfspec=mfspec, delta=0.2,
                lam=0.4, n=1, seed=5)
    want = _per_draw_pairing(n_samples=3, **args)
    calls = []

    def counted(fn, sigma2):
        calls.append(sigma2)
        return gaussian_mean(fn, sigma2)

    monkeypatch.setattr(models, "gaussian_mean", counted)
    counts = []
    for n_samples in (1, 3):
        calls.clear()
        got = remainder_pairing(n_samples=n_samples, **args)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 2
    assert got.value == pytest.approx(want.value, rel=1e-12)
    np.testing.assert_allclose(got.ci, want.ci, rtol=1e-12)


def _direct_two_freq_object(family, nonlin, mf, values):
    """The two-frequency object by the double sum over the torus

        outer(x) * sum_y (K0(wrap(x - y)) - K0(wrap(0 - y))) inner(y)

    with the singular cells x = y and y = 0 dropped; wrap maps a lattice
    offset into the lattice's own centred index range.
    """
    lat = mf.lattice
    shape = np.array(lat.shape)
    kern_c = models._cut_heat_kernel(mf.spec, lat)
    sites = np.indices(lat.shape).reshape(len(shape), -1).T
    origin = shape // 2

    def k0(offsets):
        wrapped = (offsets + origin) % shape
        vals = kern_c[tuple(np.moveaxis(wrapped, -1, 0))]
        return np.where(np.all(offsets % shape == 0, axis=-1), 0.0, vals)

    kmat = k0(sites[:, None, :] - sites[None, :, :])
    taylor = k0(origin[None, :] - sites)
    k = {"kpz": 2, "phi43": 3}[family]
    inner, outer = models._ladder(nonlin, 1.0, mf, [k, k - 1])
    conv = (kmat - taylor[None, :]) @ inner(values).reshape(-1) \
        * lat.cell_volume
    return outer(values) * conv.reshape(lat.shape)


@pytest.mark.parametrize("family, nonlin, mfspec", [
    ("kpz", make_nonlinearity("power_even", beta=0.5),
     ModelFieldSpec(family="kpz", epsilon=0.3, h=0.125, counts=(12, 6),
                    kernel_cut=0.4)),
    ("phi43", make_nonlinearity("power_odd", beta=0.5),
     ModelFieldSpec(family="phi43", epsilon=0.5, h=0.25, counts=(8, 4, 4, 4),
                    kernel_cut=0.4)),
], ids=["kpz", "phi43"])
def test_two_freq_object_matches_torus_double_sum(family, nonlin, mfspec):
    mf = build_model_field(mfspec)
    vals = sample_model_field_values(mf, 3, [0])[0]
    got = models._two_freq_object(nonlin, 1.0, mf)(vals)
    want = _direct_two_freq_object(family, nonlin, mf, vals)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_mollification_gap_zero_delta():
    f = make_nonlinearity("power_even", beta=0.5)
    est = mollification_gap(f, a=1.0, mfspec=KPZ_SPEC, delta=0.0, lam=0.4,
                            n=1, n_samples=40, seed=9)
    assert est.value == 0.0


def test_mollification_gap_decreases_with_eps():
    f = make_nonlinearity("power_even", beta=0.5)
    vals = []
    for eps in (0.45, 0.3):
        spec = ModelFieldSpec(family="kpz", epsilon=eps, h=0.125,
                              counts=(48, 24), kernel_cut=0.4)
        est = mollification_gap(f, a=1.0, mfspec=spec, delta=eps**0.5,
                                lam=0.4, n=1, n_samples=150, seed=9)
        vals.append(est.value)
    assert vals[1] < vals[0]


def test_mollification_gap_rejects_phi43():
    f = make_nonlinearity("power_odd", beta=0.5)
    with pytest.raises(ValueError):
        mollification_gap(f, a=1.0, mfspec=PHI4_SPEC, delta=0.1, lam=0.4,
                          n=1, n_samples=10)
