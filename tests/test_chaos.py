import math

import numpy as np
import pytest

from chaoslab.chaos import (
    MAX_DERIV_ORDER,
    PHASE_COS,
    PHASE_SIN,
    ChaosTruncSpec,
    TwoPointFunctional,
    phase_coeff_deriv,
    truncated_trig_deriv,
    wick_power,
)

from oracles import gauss_expect as gh_expect


_SHIFTED = (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u), np.sin)
_PHASE = {"cos": PHASE_COS, "sin": PHASE_SIN}


def functional(fn: TwoPointFunctional, x, y, s2x: float, s2y: float):
    """Value of the two-factor functional: the product of its factors."""
    return (truncated_trig_deriv(x, fn.theta[0], fn.spec_x.phase, fn.spec_x.m,
                                 fn.deriv[0], s2x)
            * truncated_trig_deriv(y, fn.theta[1], fn.spec_y.phase, fn.spec_y.m,
                                   fn.deriv[1], s2y))


def coeff_quadrature(trig, n, theta, sigma2):
    """C_n = E F^(n)(Z) / n! by quadrature; F = trig(theta * .).

    The n-th derivative of trig is the quarter-period shift, taken exactly
    (no pi arithmetic) so the quadrature keeps its extended-precision floor.
    """
    sigma = math.sqrt(sigma2)
    shift = (n + (0 if trig == "cos" else 3)) % 4
    e = gh_expect(lambda z: _SHIFTED[shift](theta * sigma * z))
    return theta**n / math.factorial(n) * e


def test_wick_power_examples():
    assert wick_power(2.0, 2, 1.0) == pytest.approx(3.0)
    assert wick_power(2.0, 2, 4.0) == pytest.approx(0.0)
    assert wick_power(1.0, 3, 1.0) == pytest.approx(-2.0)


@pytest.mark.parametrize("k, match", [
    # 1.5 raised a bare TypeError from range
    (1.5, "k must be an integer >= 0, got 1.5"),
    (-1, "k must be an integer >= 0, got -1"),
    (True, "k must be an integer >= 0, got True")],
    ids=["fraction", "negative", "bool"])
def test_wick_power_rejects_bad_order(k, match):
    with pytest.raises(ValueError, match=match):
        wick_power(2.0, k, 1.0)


def test_wick_power_vectorized():
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(wick_power(x, 2, 1.0), x**2 - 1.0)


def test_trig_chaos_coeff_examples():
    assert phase_coeff_deriv(PHASE_COS, 0, 1.0, 1.0) == pytest.approx(math.exp(-0.5),
                                                                     abs=1e-12)
    assert phase_coeff_deriv(PHASE_COS, 1, 3.7, 2.0) == 0.0
    assert phase_coeff_deriv(PHASE_SIN, 1, 0.0, 1.0) == 0.0
    # the Gaussian factor exp(-5e5) underflows: exactly zero, not NaN
    assert phase_coeff_deriv(PHASE_COS, 2, 1000.0, 1.0) == 0.0


def test_coeff_log_form():
    # sign and log magnitude of -theta^2 e^{-sigma2 theta^2/2} / 2! far out in theta
    c = phase_coeff_deriv(PHASE_COS, 2, 30.0, 1.0)
    assert c < 0.0
    expected = 2 * math.log(30.0) - 0.5 * 900.0 - math.log(2.0)
    assert math.log(-c) == pytest.approx(expected, rel=1e-12)
    # past double-precision underflow the coefficient is exactly zero
    assert phase_coeff_deriv(PHASE_COS, 2, 1000.0, 1.0) == 0.0


@pytest.mark.parametrize("trig", ["cos", "sin"])
@pytest.mark.parametrize("theta", [0.1, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("sigma2", [0.5, 1.0, 2.0])
def test_coeff_matches_quadrature(trig, theta, sigma2):
    for n in range(13):
        ana = phase_coeff_deriv(_PHASE[trig], n, theta, sigma2)
        quad = coeff_quadrature(trig, n, theta, sigma2)
        assert ana == pytest.approx(quad, abs=1e-8)


def test_parity_enforced():
    with pytest.raises(ValueError):
        ChaosTruncSpec("cos", 1)
    with pytest.raises(ValueError):
        ChaosTruncSpec("sin", 2)
    ChaosTruncSpec("cos", 2)
    ChaosTruncSpec("sin", 1)


def test_factor_orders_must_be_integers():
    # ChaosTruncSpec("sin", 3.0) was accepted and failed later inside range;
    # deriv = (0.5, 0) gave NaN factors
    with pytest.raises(ValueError, match="m must be an integer >= 0, got 3.0"):
        ChaosTruncSpec("sin", 3.0)
    sin1 = ChaosTruncSpec("sin", 1)
    for deriv, match in (((0.5, 0), "deriv must be an integer >= 0, got 0.5"),
                         ((0, 1.0), "deriv must be an integer >= 0, got 1.0"),
                         ((0, -1), "deriv must be an integer >= 0, got -1"),
                         ((0, MAX_DERIV_ORDER + 1), "deriv must be two integer orders"),
                         ((1,), "deriv must be two integer orders")):
        with pytest.raises(ValueError, match=match):
            TwoPointFunctional(sin1, sin1, (1.0, 1.0), deriv)
    TwoPointFunctional(sin1, sin1, (1.0, 1.0), (np.int64(2), 0))


def test_truncated_trig_theta_zero():
    spec = ChaosTruncSpec("cos", 2)
    for x in (-1.3, 0.0, 2.4):
        # cos(0 x) = 1 and the constant chaos term is removed exactly
        got = truncated_trig_deriv(x, 0.0, spec.phase, spec.m, 0, 1.0)
        assert got == pytest.approx(0.0, abs=1e-15)


def test_truncated_sin_order_zero_is_identity():
    spec = ChaosTruncSpec("sin", 1)
    x, theta = 0.7, 2.3
    got = truncated_trig_deriv(x, theta, spec.phase, spec.m, 0, 1.0)
    assert got == pytest.approx(math.sin(theta * x))


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("phase", range(4))
def test_trig_factor_written_in_place_matches_allocating_form(phase, r):
    # the factor is written over its theta * x temporary; it must keep the
    # bits of the form that allocates at every step, leave x as it was and
    # return a scalar for a scalar x
    x = 2.0 * np.random.default_rng(5).standard_normal((7, 33))
    x0 = x.copy()
    theta, sigma2, m = 1.7, 0.8, 3

    def allocating(z):
        out = _SHIFTED[(phase + r) % 4](theta * z)
        if r:
            out = z**r * out
        for k in range(m):
            c = phase_coeff_deriv(phase, k, theta, sigma2, r=r)
            if c != 0.0:
                out = out - c * wick_power(z, k, sigma2)
        return out

    got = truncated_trig_deriv(x, theta, phase, m, r, sigma2)
    assert np.array_equal(got, allocating(x))
    assert np.array_equal(x, x0) and not np.shares_memory(got, x)
    one = truncated_trig_deriv(x[0, 0], theta, phase, m, r, sigma2)
    assert np.ndim(one) == 0 and one == allocating(x[0, 0])


def test_truncation_orthogonality_exact():
    # E[T_(m-1)(trig(theta Z)) Z^{<>k}] = c_k k! sigma^{2k} - same, exactly zero for k < m
    for trig, m in (("cos", 2), ("sin", 3), ("cos", 4)):
        theta, sigma2 = 1.3, 1.0
        for k in range(m):
            def integrand(z):
                return truncated_trig_deriv(z, theta, 0 if trig == "cos" else 3,
                                            m, 0, sigma2) * wick_power(z, k, sigma2)
            val = gh_expect(integrand)
            assert val == pytest.approx(0.0, abs=1e-10)
        # generically nonzero at k = m
        def at_m(z):
            return truncated_trig_deriv(z, theta, 0 if trig == "cos" else 3,
                                        m, 0, sigma2) * wick_power(z, m, sigma2)
        assert abs(gh_expect(at_m)) > 1e-6


def test_truncation_orthogonality_monte_carlo():
    gen = np.random.Generator(np.random.Philox(key=123))
    z = gen.standard_normal(100_000)
    theta, sigma2, m = 0.9, 1.0, 2
    vals = truncated_trig_deriv(z, theta, 0, m, 0, sigma2)
    for k in range(m):
        prod = vals * wick_power(z, k, sigma2)
        mean = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(len(z))
        assert abs(mean) < 3.0 * se + 1e-12


@pytest.mark.parametrize("r", [1, 2, 3])
def test_derivative_matches_finite_difference(r):
    spec_x = ChaosTruncSpec("sin", 1)
    spec_y = ChaosTruncSpec("cos", 2)
    x, y, s2x, s2y = 0.43, -1.1, 1.0, 1.2
    theta_x, theta_y = 0.7, 1.3
    step = 1e-4

    def f(tx):
        fn = TwoPointFunctional(spec_x, spec_y, (tx, theta_y), (0, 0))
        return functional(fn, x, y, s2x, s2y)

    if r == 1:
        fd = (f(theta_x + step) - f(theta_x - step)) / (2 * step)
    elif r == 2:
        fd = (f(theta_x + step) - 2 * f(theta_x) + f(theta_x - step)) / step**2
    else:
        fd = (f(theta_x + 2 * step) - 2 * f(theta_x + step) + 2 * f(theta_x - step)
              - f(theta_x - 2 * step)) / (2 * step**3)
    fn = TwoPointFunctional(spec_x, spec_y, (theta_x, theta_y), (r, 0))
    ana = functional(fn, x, y, s2x, s2y)
    assert ana == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_eval_functional_zero_theta():
    fn = TwoPointFunctional(ChaosTruncSpec("sin", 1), ChaosTruncSpec("cos", 2),
                            (0.0, 0.0), (0, 0))
    assert functional(fn, 0.5, 0.5, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_mixed_derivative_finite_difference():
    # derivative in each frequency acts on its own factor only
    spec_x = ChaosTruncSpec("sin", 1)
    spec_y = ChaosTruncSpec("cos", 2)
    x, y = 0.2, 0.9
    tx, ty = 0.7, 1.1
    step = 1e-4

    def f(a, b):
        fn = TwoPointFunctional(spec_x, spec_y, (a, b), (0, 0))
        return functional(fn, x, y, 1.0, 1.0)

    fd = (f(tx + step, ty + step) - f(tx + step, ty - step)
          - f(tx - step, ty + step) + f(tx - step, ty - step)) / (4 * step**2)
    fn = TwoPointFunctional(spec_x, spec_y, (tx, ty), (1, 1))
    assert functional(fn, x, y, 1.0, 1.0) == pytest.approx(fd, rel=1e-5, abs=1e-8)
