"""Polynomial-growth nonlinearities, mollification, and windowed-Fourier decay.

The canonical instances are the even power |u|^(2+beta) (two derivatives
plus a beta-Holder second derivative) and the odd power sign(u)|u|^(3+beta);
polynomials cover the exactly-solvable comparisons.  Mollification convolves
the requested derivative with a fixed smooth bump at scale delta, evaluated
by Gauss-Legendre quadrature, split into two panels at the integrand's
kink where it has one.

Window norms are certified lower bounds: the true norm is a sup over an
infinite ball of test functions, which is not computable; we maximise the
pairing over a finite family of normalised bump-times-monomial probes and
validate the *decay* of that lower bound, which is what the theory
constrains.  The pairing with a frequency-window probe is pushed to the
spatial side, where the probe's transform decays super-polynomially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad
from scipy.special import roots_hermitenorm, roots_legendre

from .geometry import bump_profile

_GL_NODES = 96
# points per block of the mollified derivative: 4096 x 96 doubles is 3 MB
_BLOCK = 4096
_TAIL_TOL = 1e-8  # largest extrapolated tail share a window norm accepts


class TailTruncationError(RuntimeError):
    """The spatial quadrature tail exceeded the requested share of the integral."""


@dataclass(frozen=True)
class NonlinearitySpec:
    """One nonlinearity with analytic derivatives and optional mollification."""

    kind: str  # power_even | power_odd | polynomial
    beta: float = 0.5
    coeffs: tuple[float, ...] = ()
    delta: float = 0.0

    @property
    def k(self) -> int:
        """Smoothness order of the class the instance certifies."""
        if self.kind == "power_even":
            return 2
        if self.kind == "power_odd":
            return 3
        return max(len(self.coeffs) - 1, 0)

    @property
    def power(self) -> float:
        if self.kind == "power_even":
            return 2.0 + self.beta
        if self.kind == "power_odd":
            return 3.0 + self.beta
        raise ValueError("power is defined for the power kinds only")

    def deriv(self, ell: int, u):
        """ell-th derivative at u (mollified when delta > 0)."""
        if self.delta > 0.0:
            return _mollified_deriv(self, ell, u)
        return self._raw_deriv(ell, u)

    def _raw_deriv(self, ell: int, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "polynomial":
            c = npoly.polyder(self.coeffs, ell) if ell else np.asarray(self.coeffs)
            return npoly.polyval(u, c)
        p = self.power
        c = 1.0
        for j in range(ell):
            c *= p - j
        mag = np.abs(u) ** (p - ell)
        sgn_pow = ell if self.kind == "power_even" else ell + 1
        sgn = np.sign(u) ** (sgn_pow % 2) if sgn_pow % 2 else np.ones_like(u)
        return c * mag * sgn

    def __call__(self, u):
        return self.deriv(0, u)


def make_nonlinearity(kind: str, beta: float = 0.5,
                      coeffs=None) -> NonlinearitySpec:
    """Canonical class instances; beta must lie in (0, 1) for the power kinds."""
    if kind in ("power_even", "power_odd"):
        if not (0.0 < beta < 1.0):
            raise ValueError("Holder index beta must lie in (0, 1)")
        return NonlinearitySpec(kind=kind, beta=beta)
    if kind == "polynomial":
        if not coeffs:
            raise ValueError("polynomial kind needs coefficients")
        return NonlinearitySpec(kind="polynomial", coeffs=tuple(float(c) for c in coeffs))
    raise ValueError(f"unknown nonlinearity kind {kind!r}")


@lru_cache(maxsize=1)
def _legendre_rule():
    return roots_legendre(_GL_NODES)


@lru_cache(maxsize=1)
def _mollifier_mass() -> float:
    # integral of the bump on (-1, 1), computed once by quadrature
    t, w = _legendre_rule()
    return float(np.sum(w * bump_profile(t)))


@lru_cache(maxsize=1)
def _mollifier_weights() -> np.ndarray:
    """Legendre weights times the normalised bump: one full panel on (-1, 1)."""
    t, w = _legendre_rule()
    return w * bump_profile(t) / _mollifier_mass()


def _mollified_deriv(spec: NonlinearitySpec, ell: int, u):
    """(F^(ell) * rho_delta)(u) by Gauss-Legendre quadrature in t on (-1, 1).

    The integrand t -> F^(ell)(u - delta t) of a power kind has a kink at
    t = u/delta.  Points with |u| >= delta (and every point of a polynomial
    kind) have no kink inside the bump's support and take one panel, which
    reaches double precision.  Points inside (-delta, delta) take two panels
    split at the kink; each ends at the |t - t*|^beta singularity of the top
    derivative and converges only like n^-(2 + 2 beta), a relative error of
    up to 3.5e-7 at beta = 0.5 with 96 nodes.  Points are walked in blocks
    so that the (points x nodes) temporaries stay a few MB.
    """
    u_in = np.asarray(u, dtype=float)
    flat = u_in.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        stop = start + _BLOCK
        out[start:stop] = _mollified_block(spec, ell, flat[start:stop])
    return float(out[0]) if u_in.ndim == 0 else out.reshape(u_in.shape)


def _mollified_block(spec: NonlinearitySpec, ell: int, u: np.ndarray) -> np.ndarray:
    delta = spec.delta
    t, w = _legendre_rule()
    out = np.empty_like(u)
    if spec.kind == "polynomial":
        smooth = np.ones(u.shape, dtype=bool)
    else:
        smooth = np.abs(u) >= delta
    us = u[smooth]
    out[smooth] = spec._raw_deriv(ell, us[:, None] - delta * t) @ _mollifier_weights()
    if smooth.all():
        return out
    ui = u[~smooth]
    mass = _mollifier_mass()
    tstar = np.clip(ui / delta, -1.0, 1.0)
    acc = np.zeros_like(ui)
    for a, b in ((np.full_like(ui, -1.0), tstar), (tstar, np.full_like(ui, 1.0))):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        tt = mid[:, None] + half[:, None] * t
        vals = spec._raw_deriv(ell, ui[:, None] - delta * tt)
        acc += half * ((bump_profile(tt) * vals) @ w) / mass
    out[~smooth] = acc
    return out


def mollify(spec: NonlinearitySpec, delta: float) -> NonlinearitySpec:
    """Spec whose derivatives are convolved with the bump at scale delta."""
    if delta < 0.0 or delta >= 1.0:
        raise ValueError("mollification scale must lie in [0, 1)")
    return replace(spec, delta=float(delta))


def growth_exponent(spec: NonlinearitySpec, radii=(4.0, 8.0, 16.0, 32.0, 64.0)) -> float:
    """Fitted growth power M: sup-derivative growth on increasing boxes."""
    sups = []
    for r in radii:
        u = np.linspace(-r, r, 2001)
        s = max(float(np.max(np.abs(spec.deriv(ell, u)))) for ell in range(spec.k + 1))
        sups.append(s)
    slope, _ = np.polyfit(np.log(radii), np.log(sups), 1)
    return float(max(slope, 0.0))


def holder_quotient(spec: NonlinearitySpec, beta: float, grid=None,
                    steps=(0.5, 0.1, 0.02)) -> float:
    """Grid sup of |F^(k)(u+h)-F^(k)(u)| / (h^beta (1+|u|)^M)."""
    if grid is None:
        grid = np.linspace(-8.0, 8.0, 801)
    m = growth_exponent(spec)
    worst = 0.0
    for h in steps:
        num = np.abs(spec.deriv(spec.k, grid + h) - spec.deriv(spec.k, grid))
        den = h**beta * (1.0 + np.abs(grid)) ** m
        worst = max(worst, float(np.max(num / den)))
    return worst


# ---------------------------------------------------------------------------
# windowed-Fourier machinery


@dataclass(frozen=True)
class WindowNormQuery:
    """Window norm parameters: one derivative order and window center per
    tensor factor; probes are normalised in the B_{m_probe} sup norm."""

    ells: tuple[int, ...]
    center: tuple[int, ...]
    m_probe: int
    n_probes: int = 6

    def __post_init__(self):
        if len(self.ells) != len(self.center):
            raise ValueError("one window center per derivative order required")


@lru_cache(maxsize=32)
def _probe_family(n_probes: int, m_probe: int):
    """Bump-times-monomial probes on (-1, 1), normalised in B_{m_probe}.

    Returns (u_grid, values[n_probes, n_u]); derivatives for the
    normalisation are spectral on a padded periodic box, accurate for these
    compactly supported smooth functions.
    """
    n_u = 2048
    box = 4.0
    u = (np.arange(n_u) / n_u - 0.5) * box
    freq = 2.0j * math.pi * np.fft.fftfreq(n_u, d=box / n_u)
    probes = []
    for j in range(n_probes):
        vals = bump_profile(u) * u**j
        fh = np.fft.fft(vals)
        sup = 0.0
        for r in range(m_probe + 1):
            dvals = np.real(np.fft.ifft(fh * freq**r))
            sup = max(sup, float(np.max(np.abs(dvals))))
        probes.append(vals / sup)
    keep = np.abs(u) <= 1.0
    return u[keep], np.stack([p[keep] for p in probes])


@lru_cache(maxsize=64)
def _probe_transform(n_probes: int, m_probe: int, x_max: float, dx_target: float):
    """Spatial transforms Psi_j(x) = int probe_j(u) e^{-iux} du on a uniform x-grid.

    One zero-padded FFT per probe covers the whole range; real probes give
    Psi(-x) = conj(Psi(x)).  Also returns per-probe decay fits (amp, rate)
    with |Psi_j(x)| <~ amp * exp(-rate * sqrt(|x|)), estimated on the clean
    range above the double-precision floor; the tail guard extrapolates with
    these because the computed transform bottoms out near 1e-14.
    """
    u, probes = _probe_family(n_probes, m_probe)
    du = float(u[1] - u[0])
    nfft = 1 << 21
    dx0 = 2.0 * math.pi / (nfft * du)
    stride = max(int(round(dx_target / dx0)), 1)
    dx = stride * dx0
    m_max = int(x_max / dx)
    xpos = np.arange(m_max + 1) * dx
    out_pos = np.empty((n_probes, m_max + 1), dtype=complex)
    for j in range(n_probes):
        padded = np.zeros(nfft)
        padded[:len(u)] = probes[j]
        fh = np.fft.fft(padded)[::stride][:m_max + 1]
        out_pos[j] = du * np.exp(-1j * u[0] * xpos) * fh
    x = np.concatenate([-xpos[:0:-1], xpos])
    out = np.concatenate([np.conj(out_pos[:, :0:-1]), out_pos], axis=1)
    fits = []
    for j in range(n_probes):
        mag = np.abs(out_pos[j])
        sel = (xpos > 10.0) & (mag > 1e-12)
        if np.sum(sel) > 50:
            coeff = np.polyfit(np.sqrt(xpos[sel]), np.log(mag[sel]), 1)
            rate, amp = -float(coeff[0]), math.exp(float(coeff[1]))
        else:
            rate, amp = 0.0, float(np.max(mag))
        fits.append((amp, max(rate, 0.0)))
    return x, out, tuple(fits)


def _factor_pairings(spec: NonlinearitySpec, ell: int, center: int,
                     m_probe: int, n_probes: int, x_max: float,
                     dx: float) -> np.ndarray:
    """|<transform of F^(ell), probe_j(. - center)>| for every probe.

    The tail guard integrates |F| against the fitted transform envelope
    beyond x_max (with a factor-100 safety margin) and raises when it
    exceeds _TAIL_TOL of the absolute integrand mass; pairings themselves
    can be tiny through cancellation, so they do not set the health scale.
    """
    x, psi, fits = _probe_transform(n_probes, m_probe, x_max, dx)
    fvals = spec.deriv(ell, x)
    mod = np.exp(-1j * center * x)
    xt = np.geomspace(x_max, 20.0 * x_max, 200)
    ft = np.abs(spec.deriv(ell, xt))
    out = np.empty(n_probes)
    for j in range(n_probes):
        integrand = fvals * mod * psi[j]
        total = np.trapezoid(integrand, dx=dx) / (2.0 * math.pi)
        whole_abs = float(np.sum(np.abs(integrand))) * dx
        amp, rate = fits[j]
        if rate <= 0.0:
            raise TailTruncationError("no usable decay fit; widen x_max")
        tail_abs = 200.0 * float(np.trapezoid(
            ft * amp * np.exp(-rate * np.sqrt(xt)), xt))
        if tail_abs > _TAIL_TOL * whole_abs:
            raise TailTruncationError(
                f"extrapolated tail share {tail_abs / whole_abs:.3g} exceeds "
                f"{_TAIL_TOL:.1g}; widen x_max")
        out[j] = abs(total)
    return out


def window_norm(spec: NonlinearitySpec, q: WindowNormQuery, x_max: float = 1500.0,
                dx: float = 0.006) -> float:
    """Certified lower bound on the windowed norm of the (tensor) transform.

    Tensor probes factorise, so the bound is the product over factors of the
    best single-factor pairing.  Adding probes can only raise the value.
    """
    value = 1.0
    for ell, c in zip(q.ells, q.center):
        pair = _factor_pairings(spec, ell, c, q.m_probe, q.n_probes, x_max, dx)
        value *= float(np.max(pair))
    return value


def window_norm_difference(spec: NonlinearitySpec, delta: float,
                           q: WindowNormQuery, x_max: float = 1500.0,
                           dx: float = 0.006) -> float:
    """Lower bound on the window norm of (transform of F^(ell) - F_delta^(ell)).

    Single-factor only: the tensor difference does not factorise.
    """
    if len(q.ells) != 1:
        raise ValueError("difference norms are single-factor")
    ell, c = q.ells[0], q.center[0]
    moll = mollify(spec, delta)
    x, psi, _ = _probe_transform(q.n_probes, q.m_probe, x_max, dx)
    dvals = spec.deriv(ell, x) - moll.deriv(ell, x)
    mod = np.exp(-1j * c * x)
    best = 0.0
    for j in range(q.n_probes):
        total = np.trapezoid(dvals * mod * psi[j], dx=dx) / (2.0 * math.pi)
        best = max(best, abs(total))
    return best


def gaussian_mean(fn, sigma2: float) -> float:
    """E fn(Z) for Z ~ N(0, sigma2).

    Polynomially growing integrands with an interior kink (the |u|^beta
    derivatives) defeat plain Gauss-Hermite at the percent level, so the two
    half-lines are integrated adaptively and the kink sits at an endpoint.
    """
    sigma = math.sqrt(sigma2)

    def integrand(z):
        return float(fn(sigma * z)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    left, _ = quad(integrand, -np.inf, 0.0, epsabs=1e-11, epsrel=1e-11, limit=200)
    right, _ = quad(integrand, 0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=200)
    return left + right


def coupling_constant(spec: NonlinearitySpec, sigma2: float, order: int) -> float:
    """Gaussian average of the order-th derivative over N(0, sigma2), / order!."""
    if order not in (2, 3):
        raise ValueError("coupling constants are defined at orders 2 and 3")
    if sigma2 <= 0:
        raise ValueError("variance must be positive")
    if spec.kind == "polynomial" and spec.delta == 0.0:
        # exact for polynomials at any order
        z, w = roots_hermitenorm(64)
        w = w / math.sqrt(2.0 * math.pi)
        vals = spec.deriv(order, math.sqrt(sigma2) * z)
        return float(np.sum(w * vals)) / math.factorial(order)
    return gaussian_mean(lambda u: spec.deriv(order, np.asarray(u, dtype=float)),
                         sigma2) / math.factorial(order)
