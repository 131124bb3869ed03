import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chaoslab import geometry, nonlinearity, rng
from chaoslab.nonlinearity import (
    NonlinearitySpec,
    TailTruncationError,
    WindowNormQuery,
    Derivative,
    coupling_constant,
    gaussian_mean,
    growth_exponent,
    holder_quotient,
    make_nonlinearity,
    mollify,
    window_norm,
    window_norm_difference,
)

from oracles import (
    gauss_expect,
    gauss_jacobi_kink_deriv,
    probe_transform_full_fft,
    quad_bump_mass,
    quad_mollified_deriv,
    split_quad_gaussian_mean,
    two_panel_mollified_deriv,
)


def test_power_even_second_derivative():
    beta = 0.5
    f = make_nonlinearity("power_even", beta=beta)
    u = np.array([-2.0, -0.5, 0.5, 2.0])
    want = (2 + beta) * (1 + beta) * np.abs(u) ** beta
    np.testing.assert_allclose(f.deriv(2, u), want)


def test_power_odd_symmetry():
    g = make_nonlinearity("power_odd", beta=0.3)
    u = np.linspace(0.1, 3.0, 20)
    np.testing.assert_allclose(g(-u), -g(u))
    # even derivatives of an odd function are odd, odd ones even
    np.testing.assert_allclose(g.deriv(1, -u), g.deriv(1, u))
    np.testing.assert_allclose(g.deriv(2, -u), -g.deriv(2, u))


def test_polynomial_derivatives():
    p = make_nonlinearity("polynomial", coeffs=[1.0, 0.0, 3.0])  # 1 + 3u^2
    u = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(p.deriv(1, u), 6.0 * u)
    np.testing.assert_allclose(p.deriv(2, u), np.full_like(u, 6.0))


def test_beta_validation():
    with pytest.raises(ValueError):
        make_nonlinearity("power_even", beta=1.5)
    with pytest.raises(ValueError):
        make_nonlinearity("power_even", beta=0.0)


def test_growth_exponent():
    f = make_nonlinearity("power_even", beta=0.5)
    m = growth_exponent(f)
    assert m == pytest.approx(2.5, abs=0.15)


def test_holder_class_quotient_finite():
    f = make_nonlinearity("power_even", beta=0.5)
    q = holder_quotient(f, beta=0.5)
    assert np.isfinite(q)
    # a strictly larger exponent would blow up as the step shrinks
    q_hi = holder_quotient(f, beta=0.9, steps=(0.1, 0.01, 0.001))
    assert q_hi > 5 * q


def test_mollify_polynomial_pointwise():
    # smooth F: F_delta -> F with O(delta^2) error (bump has mean zero)
    p = make_nonlinearity("polynomial", coeffs=[0.0, 1.0, 1.0])  # u + u^2
    errs = []
    for delta in (0.2, 0.1, 0.05):
        m = mollify(p, delta)
        errs.append(abs(m(1.3) - p(1.3)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_mollify_zero_is_identity():
    f = make_nonlinearity("power_even", beta=0.5)
    m = mollify(f, 0.0)
    u = np.linspace(-2, 2, 41)
    np.testing.assert_allclose(m.deriv(2, u), f.deriv(2, u))


def test_mollify_remainder_bound():
    # |F''(u) - F_delta''(u)| <= C delta^beta (1+|u|)^M with a single fitted C
    beta = 0.5
    f = make_nonlinearity("power_even", beta=beta)
    u = np.linspace(-4, 4, 401)
    m_growth = growth_exponent(f)
    cs = []
    for delta in (0.4, 0.2, 0.1, 0.05):
        md = mollify(f, delta)
        lhs = np.abs(f.deriv(2, u) - md.deriv(2, u))
        cs.append(float(np.max(lhs / (delta**beta * (1 + np.abs(u)) ** m_growth))))
    assert max(cs) / min(cs) < 3.0


MOLLIFY_KINDS = [make_nonlinearity("power_even", beta=0.5),
                 make_nonlinearity("power_odd", beta=0.3),
                 make_nonlinearity("polynomial", coeffs=[1.0, -2.0, 0.5, 0.25])]


def _close(got, want, tol):
    assert np.shape(got) == np.shape(want)
    err = np.abs(np.asarray(got) - want) / np.maximum(1.0, np.abs(want))
    assert float(np.max(err, initial=0.0)) <= tol


@pytest.mark.parametrize("spec", MOLLIFY_KINDS, ids=lambda f: f.kind)
@pytest.mark.parametrize("delta", [0.4, 0.2])
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_mollified_deriv_matches_two_panel_oracle(spec, delta, ell):
    # points inside (-delta, delta), at +-delta, outside it and out to 750;
    # the 2-D grid has a size that is no multiple of the block size.  With no
    # kink inside the support (|u| > delta, or a polynomial) the two-panel
    # oracle is exact to rounding.  At the kink its panels end where |.|^a
    # is not smooth, and it is off by up to 3.5e-7 (ell = 2 of |u|^2.5), so
    # every point there is held to adaptive quadrature split at the kink
    md = mollify(spec, delta)
    gen = rng.substream(11, 5)
    u = np.concatenate([gen.uniform(-delta, delta, 200), [-delta, delta, 0.0],
                        gen.uniform(-750.0, 750.0, 2 * nonlinearity._BLOCK)])
    u2 = gen.uniform(-3.0, 3.0, (nonlinearity._BLOCK // 3, 5))
    assert u2.size % nonlinearity._BLOCK != 0

    def at_kink(points):
        return (np.abs(points) <= delta) & (spec.kind != "polynomial")

    for points in (u, u2):
        got = md.deriv(ell, points)
        assert got.shape == points.shape
        flat, got = points.reshape(-1), got.reshape(-1)
        kink = at_kink(flat)
        _close(got[~kink], two_panel_mollified_deriv(md, ell, flat[~kink]), 1e-13)
        _close(got[kink], quad_mollified_deriv(md, ell, flat[kink]), 1e-12)
    for point in (-delta, 0.3 * delta, delta, 1.5, -750.0):
        got = md.deriv(ell, point)
        assert isinstance(got, float)
        if at_kink(point):
            _close(got, quad_mollified_deriv(md, ell, point), 1e-12)
        else:
            _close(got, two_panel_mollified_deriv(md, ell, point), 1e-13)


# quad reaches its roundoff floor on the singular parts before 2e-14
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("u", [-0.15, -0.01, 0.05, -0.2, 0.2, 0.23, -1.0])
def test_mollified_singular_top_derivative(u):
    # ell = 3 of |u|^2.5: the third derivative ~ |u|^(-1/2) is singular at
    # the kink, which the Gauss-Jacobi weight carries exactly
    md = mollify(make_nonlinearity("power_even", beta=0.5), 0.2)
    want = quad_mollified_deriv(md, 3, u)
    assert abs(md.deriv(3, u) - want) <= 1e-10 * abs(want)


POWER_KINDS = MOLLIFY_KINDS[:2]


@pytest.mark.parametrize("spec", POWER_KINDS, ids=lambda f: f.kind)
@pytest.mark.parametrize("delta", [0.4, 0.2])
@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_kink_table_matches_gauss_jacobi_oracle(spec, delta, ell):
    # the table against the per-point Gauss-Jacobi sums it was built from, on
    # a dense grid of t* = u / delta reaching within 1e-9 of the support's end
    md = mollify(spec, delta)
    tstar = np.concatenate([np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 3001), [0.0]])
    u = tstar * delta
    got = md.deriv(ell, u)
    _close(got, gauss_jacobi_kink_deriv(md, ell, u), 1e-13)
    # F^(ell) is even or odd, and so is its mollification, bit for bit
    odd = (ell + (spec.kind == "power_odd")) % 2
    assert np.array_equal(md.deriv(ell, -u), -got if odd else got)
    if odd:
        assert md.deriv(ell, 0.0) == 0.0


def test_kink_points_evaluate_no_bump(monkeypatch):
    # once an exponent's table exists, a point inside (-delta, delta) costs
    # O(1): it reads the table and evaluates the bump nowhere
    md = mollify(make_nonlinearity("power_even", beta=0.5), 0.2)
    u = np.linspace(-0.199, 0.199, 51)
    want = md.deriv(2, u)
    calls = []
    bump_of_gap = geometry.bump_of_gap

    def counted(g):
        calls.append(np.size(g))
        return bump_of_gap(g)

    monkeypatch.setattr(geometry, "bump_of_gap", counted)
    monkeypatch.setattr(nonlinearity, "bump_of_gap", counted)
    assert np.array_equal(md.deriv(2, u), want)
    assert calls == []
    # the count does see bump evaluations: rebuilding the table makes some
    nonlinearity._kink_table.cache_clear()
    assert np.array_equal(md.deriv(2, u), want)
    assert sum(calls) > 0


def test_deriv_rejects_negative_order():
    f = make_nonlinearity("power_even", beta=0.5)
    for spec in (f, mollify(f, 0.2)):
        with pytest.raises(ValueError, match="non-negative"):
            spec.deriv(-1, 2.0)


def test_deriv_rejects_non_integer_order():
    f = make_nonlinearity("power_even", beta=0.5)
    for spec in (f, mollify(f, 0.2)):
        with pytest.raises(ValueError, match="integer"):
            spec.deriv(1.5, 2.0)
        assert spec.deriv(np.int64(2), 2.0) == spec.deriv(2, 2.0)


def test_mollify_rejects_scale_outside_unit_interval():
    # a NaN scale used to pass, and deriv then skipped the mollification
    f = make_nonlinearity("power_even", beta=0.5)
    for delta in (float("nan"), float("inf"), -0.1, 1.0):
        with pytest.raises(ValueError, match="mollification scale"):
            mollify(f, delta)


def test_mollified_deriv_rejects_divergent_order():
    # the fourth derivative of |u|^2.5 ~ |u|^(-3/2) is not locally integrable
    md = mollify(make_nonlinearity("power_even", beta=0.5), 0.2)
    with pytest.raises(ValueError, match="diverges"):
        md.deriv(4, 0.1)
    assert np.isfinite(md.deriv(3, 0.1))


def test_mollified_deriv_rejects_non_finite_input():
    md = mollify(make_nonlinearity("power_even", beta=0.5), 0.2)
    with pytest.raises(ValueError, match="2 of 4 points are not finite"):
        md.deriv(1, np.array([0.0, np.inf, np.nan, 1.0]))
    with pytest.raises(ValueError, match="not finite"):
        md.deriv(2, float("-inf"))


def test_mollification_commutes_with_derivative():
    # (F_delta)'' equals (F'')_delta by construction; check against a
    # finite-difference second derivative of the mollified function
    f = make_nonlinearity("power_even", beta=0.5)
    md = mollify(f, 0.3)
    u0, step = 0.7, 1e-4
    fd = (md(u0 + step) - 2 * md(u0) + md(u0 - step)) / step**2
    assert md.deriv(2, u0) == pytest.approx(fd, rel=1e-4)


def test_window_norm_gaussian_decays_fast():
    # a rapidly decaying smooth function: window norms fall faster than any
    # power; check super-polynomial decay over a decade of centers
    gauss = NonlinearitySpec(kind="polynomial", coeffs=(1.0,))

    class GaussSpec(NonlinearitySpec):
        def deriv(self, ell, u):
            u = np.asarray(u, dtype=float)
            assert ell == 0
            return np.exp(-0.5 * u * u)

    gs = GaussSpec(kind="polynomial", coeffs=(1.0,))
    v2 = window_norm(gs, WindowNormQuery(ells=(0,), center=(2,), m_probe=3))
    v8 = window_norm(gs, WindowNormQuery(ells=(0,), center=(8,), m_probe=3))
    assert v8 < v2 * (8.0 / 2.0) ** (-6)


def test_window_norm_monotone_in_probes():
    f = make_nonlinearity("power_even", beta=0.5)
    q3 = WindowNormQuery(ells=(2,), center=(4,), m_probe=4, n_probes=3)
    q6 = WindowNormQuery(ells=(2,), center=(4,), m_probe=4, n_probes=6)
    assert window_norm(f, q6) >= window_norm(f, q3) - 1e-15


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_window_norm_decay_exponent(ell):
    # the class-level bound is (1+|K|)^{-2-beta+ell}; the lower bound must
    # decay at least that fast (the exact power decays faster: |K|^{ell-3-beta})
    beta = 0.5
    f = make_nonlinearity("power_even", beta=beta)
    centers = [4, 8, 16, 32]
    vals = [window_norm(f, WindowNormQuery(ells=(ell,), center=(c,), m_probe=4))
            for c in centers]
    slope = np.polyfit(np.log(centers), np.log(vals), 1)[0]
    assert slope <= -(2 + beta - ell) + 0.2


def test_window_norm_tensor_factorizes():
    f = make_nonlinearity("power_even", beta=0.5)
    q1 = WindowNormQuery(ells=(1,), center=(4,), m_probe=4)
    q2 = WindowNormQuery(ells=(2,), center=(8,), m_probe=4)
    q12 = WindowNormQuery(ells=(1, 2), center=(4, 8), m_probe=4)
    assert window_norm(f, q12) == pytest.approx(
        window_norm(f, q1) * window_norm(f, q2), rel=1e-12)


def test_window_difference_norm_delta_slope():
    beta = 0.5
    f = make_nonlinearity("power_even", beta=beta)
    q = WindowNormQuery(ells=(2,), center=(4,), m_probe=4)
    deltas = [0.4, 0.2, 0.1]
    vals = [window_norm_difference(f, d, q) for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
    # difference norms shrink at least like delta^{beta/2 - 0.1}
    assert slope >= beta / 2.0 - 0.1


def test_window_difference_norm_tail_guard():
    # the difference norm shares window_norm's tail guard: a transform range
    # too short for the probes' decay raises instead of returning a value
    f = make_nonlinearity("power_even", beta=0.5)
    q = WindowNormQuery(ells=(2,), center=(4,), m_probe=4)
    for norm in (lambda: window_norm(f, q, x_max=30.0),
                 lambda: window_norm_difference(f, 0.2, q, x_max=30.0)):
        with pytest.raises(TailTruncationError):
            norm()


def test_window_norm_rejects_non_finite_derivative():
    # F''' of |u|^2.5 is c |u|^(-0.5) sign(u), not finite at the grid point
    # x = 0: both norms raise instead of returning NaN, and warn nothing
    f = make_nonlinearity("power_even", beta=0.5)
    q = WindowNormQuery(ells=(3,), center=(4,), m_probe=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for norm in (lambda: window_norm(f, q),
                     lambda: window_norm_difference(f, 0.2, q)):
            with pytest.raises(ValueError, match="not finite"):
                norm()


# the probe transform's native x-spacing 2 pi / (2^21 du), du = 1/512
_DX0 = 2.0 * math.pi * 512 / (1 << 21)


def test_probe_transform_matches_direct_sum():
    # du * sum_n p_n e^{-i u_n x}, the transform's definition, at 50 grid
    # points spread over the range, including 0, near x_max and the last bin
    x, psi, _ = nonlinearity._probe_transform(6, 4, 1500.0, 0.006)
    u, probes = nonlinearity._probe_family(6, 4)
    du = float(u[1] - u[0])
    m_max = len(x) // 2
    idx = np.unique(np.concatenate([
        m_max + np.linspace(0, m_max, 44).astype(int),
        [m_max + 1, m_max + 7, len(x) - 2, 0, 3, m_max - 100]]))
    direct = du * probes @ np.exp(-1j * np.outer(u, x[idx]))
    scale = np.max(np.abs(psi), axis=1, keepdims=True)
    assert len(idx) == 50 and x[m_max] == 0.0
    assert np.max(np.abs(psi[:, idx] - direct) / scale) < 1e-13


@pytest.mark.parametrize("n_probes, x_max, dx_target", [
    (6, 750.0, 0.006),  # the benchmark's call: stride 4, real FFT of 2^19
    (2, 1500.0, 3 * _DX0),  # odd stride: full-length real FFT
    (2, 1000.0, 6 * _DX0),  # stride 6: real FFT of 2^20, every 3rd bin
])
def test_probe_transform_matches_full_fft_oracle(n_probes, x_max, dx_target):
    x, psi, _ = nonlinearity._probe_transform(n_probes, 4, x_max, dx_target)
    x_ref, psi_ref = probe_transform_full_fft(n_probes, 4, x_max, dx_target)
    assert np.array_equal(x, x_ref)
    assert np.max(np.abs(psi - psi_ref)) < 1e-15 * np.max(np.abs(psi_ref))


def test_probe_transform_rejects_aliased_range():
    # the grid ends at the Nyquist range pi/du = 512 pi ~ 1608.5; beyond it the
    # bins wrap around, and window_norm would blame a tail that is not there
    f = make_nonlinearity("power_even", beta=0.5)
    q = WindowNormQuery(ells=(2,), center=(4,), m_probe=4)
    for x_max in (2400.0, 3200.0):
        with pytest.raises(ValueError, match="pi/du"):
            window_norm(f, q, x_max=x_max)
    x, _, _ = nonlinearity._probe_transform(1, 4, 1600.0, 0.006)
    assert x[-1] <= 512 * math.pi


def test_probe_transform_rejects_truncating_stride():
    # stride 2048 leaves a real FFT of 2^21 / 2048 = 1024 < 1025 probe samples
    with pytest.raises(ValueError, match="shorter than the probes"):
        nonlinearity._probe_transform(1, 4, 100.0, 2048 * _DX0)
    # stride 1024 still fits them in 2048 samples
    x, psi, _ = nonlinearity._probe_transform(1, 4, 100.0, 1024 * _DX0)
    x_ref, psi_ref = probe_transform_full_fft(1, 4, 100.0, 1024 * _DX0)
    assert np.array_equal(x, x_ref)
    assert np.max(np.abs(psi - psi_ref)) < 1e-15 * np.max(np.abs(psi_ref))


def test_probe_transform_memory():
    # one batched real FFT of 2^19: about 50 MB traced; the per-probe
    # full-length complex FFTs it replaced peaked at about 130 MB
    nonlinearity._probe_transform.cache_clear()
    tracemalloc.start()
    try:
        nonlinearity._probe_transform(6, 4, 750.0, 0.006)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6


def test_coupling_constant_quadratic():
    p = make_nonlinearity("polynomial", coeffs=[0.0, 0.0, 1.0])  # u^2, F'' = 2
    for sigma2 in (0.5, 1.0, 2.0):
        assert coupling_constant(p, sigma2, 2) == pytest.approx(1.0)


def test_coupling_constant_cubic():
    p = make_nonlinearity("polynomial", coeffs=[0.0, 0.0, 0.0, 1.0])  # u^3
    assert coupling_constant(p, 1.0, 3) == pytest.approx(1.0)


def test_coupling_constant_power_vs_monte_carlo():
    beta = 0.5
    f = make_nonlinearity("power_even", beta=beta)
    sigma2 = 1.0
    a = coupling_constant(f, sigma2, 2)
    z = rng.substream(3, 4).standard_normal(400_000)
    mc = float(np.mean(f.deriv(2, z))) / 2.0
    se = float(np.std(f.deriv(2, z))) / 2.0 / math.sqrt(len(z))
    assert abs(a - mc) < 4 * se
    # closed form: E|Z|^{1/2} = 2^{1/4} Gamma(3/4) / sqrt(pi)
    exact = 0.5 * 2.5 * 1.5 * (2 ** 0.25 * math.gamma(0.75) / math.sqrt(math.pi))
    assert a == pytest.approx(exact, rel=1e-8)


def test_gaussian_mean_rejects_bad_variance():
    f = make_nonlinearity("power_even", beta=0.5)
    for sigma2 in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="non-negative variance"):
            gaussian_mean(f, sigma2)
    for spec in (f, make_nonlinearity("polynomial", coeffs=[0.0, 0.0, 1.0])):
        with pytest.raises(ValueError, match="positive and finite"):
            coupling_constant(spec, float("nan"), 2)
    # a point mass: the mean is the value at 0
    assert gaussian_mean(lambda u: 1.0 + u * u, 0.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="finite integrand"):
        gaussian_mean(lambda u: np.full(np.shape(u), np.nan), 0.0)


def test_gaussian_mean_rejects_non_finite_integrand():
    with pytest.raises(ValueError, match="finite integrand"):
        gaussian_mean(lambda u: np.where(np.asarray(u) > 1, np.nan, 1.0), 1.0)
    with pytest.raises(ValueError, match="finite integrand"):
        gaussian_mean(lambda u: np.where(np.asarray(u) < -3.0, -np.inf, u), 4.0)


def test_bump_mass_matches_quadrature():
    assert abs(nonlinearity._BUMP_MASS / quad_bump_mass() - 1.0) <= 1e-15


def _abs_moment(a: float) -> float:
    """E|Z|^a for a standard normal Z, a > -1."""
    return 2.0 ** (a / 2.0) * math.gamma((a + 1.0) / 2.0) / math.sqrt(math.pi)


GAUSS_VARIANCES = (0.0219, 1.0, 4.0)  # 0.0219: the KPZ benchmark lattice


@pytest.mark.parametrize("kind", ["power_even", "power_odd"])
@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_gaussian_mean_matches_reference(kind, beta):
    # raw derivatives against E|Z|^a in closed form, mollified ones against
    # scalar quad split at 0 and +-delta/sigma; errors in units of E|f|.
    # F_delta is not analytic at +-delta: without the rule's edge at
    # delta/sigma, beta = 0.1, delta = 0.4, ell = 2, sigma2 = 1 is off by 2.1e-11
    spec = make_nonlinearity(kind, beta=beta)
    p = spec.power
    for delta in (0.0, 0.2, 0.4):
        md = mollify(spec, delta)
        for ell in range(4):
            fn = Derivative(md, ell)
            for sigma2 in GAUSS_VARIANCES:
                got = gaussian_mean(fn, sigma2)
                if delta == 0.0:
                    c = math.prod(p - j for j in range(ell))
                    scale = c * sigma2 ** ((p - ell) / 2.0) * _abs_moment(p - ell)
                    odd = (ell + (kind == "power_odd")) % 2
                    want = 0.0 if odd else scale
                else:
                    scale = gaussian_mean(lambda u: np.abs(fn(u)), sigma2)
                    want = split_quad_gaussian_mean(fn, sigma2,
                                                    delta / math.sqrt(sigma2))
                assert abs(got - want) <= 1e-13 * scale, (delta, ell, sigma2)


def test_gaussian_mean_of_abs_power_matches_closed_form():
    f = make_nonlinearity("power_even", beta=0.5)
    for sigma2 in GAUSS_VARIANCES:
        want = sigma2 ** 1.25 * _abs_moment(2.5)
        assert abs(gaussian_mean(f, sigma2) / want - 1.0) <= 1e-14


def test_gaussian_mean_of_singular_odd_derivative_is_zero():
    # F''' of |u|^2.1 is ~ sign(u)|u|^(-0.9): the two half-lines cancel node
    # by node, with no warning (adaptive quad warns of roundoff here)
    fn = Derivative(make_nonlinearity("power_even", beta=0.1), 3)
    scale = 2.1 * 1.1 * 0.1 * _abs_moment(-0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(gaussian_mean(fn, 1.0)) <= 1e-15 * scale


def test_coupling_constant_polynomial_to_rounding():
    # u^2 + u^4: F'' = 2 + 12 u^2, so the order-2 constant is 1 + 6 sigma2
    p = make_nonlinearity("polynomial", coeffs=[0.0, 0.0, 1.0, 0.0, 1.0])
    for sigma2 in (0.5, 1.0, 2.0):
        assert coupling_constant(p, sigma2, 2) == pytest.approx(
            1.0 + 6.0 * sigma2, rel=1e-14)
