"""Polynomial-growth nonlinearities, mollification, and windowed-Fourier decay.

The canonical instances are the even power |u|^(2+beta) (two derivatives
plus a beta-Holder second derivative) and the odd power sign(u)|u|^(3+beta);
polynomials cover the exactly-solvable comparisons.  Mollification convolves
the requested derivative with a fixed smooth bump rho at scale delta.  The
quadrature carries each integrand's non-smooth weight in its rule: a 32-node
Gauss rule for the weight rho where the integrand has no kink inside the
bump's support, and an 80-node Gauss-Jacobi rule on each side of the kink
of |u|^(p - ell) where it has one.  Both agree with adaptive quadrature to
about 6e-14 relative at ell <= 2 (7e-12 at the singular ell = 3 of
|u|^(2+beta)).

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
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_hermitenorm, roots_jacobi, roots_legendre

from .geometry import bump_of_gap, bump_profile

_BUMP_NODES = 32  # Gauss rule for the bump weight, away from the kink
_KINK_NODES = 80  # Gauss-Jacobi rule on each side of the kink
# points per block of the mollified derivative: 2 x 4096 x 80 doubles is 5 MB
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
        if ell < 0:
            raise ValueError(f"derivative order must be non-negative, got {ell}")
        if self.delta > 0.0:
            return _mollified_deriv(self, ell, u)
        return self._raw_deriv(ell, u)

    def _raw_deriv(self, ell: int, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "polynomial":
            c = npoly.polyder(self.coeffs, ell) if ell else np.asarray(self.coeffs)
            return npoly.polyval(u, c)
        c, a, odd = self._power_law(ell)
        sgn = np.sign(u) if odd else np.ones_like(u)
        return c * np.abs(u) ** a * sgn

    def _power_law(self, ell: int) -> tuple[float, float, bool]:
        """(c, a, odd) with F^(ell)(u) = c |u|^a sign(u)^odd, a power kind."""
        p = self.power
        c = 1.0
        for j in range(ell):
            c *= p - j
        sgn_pow = ell if self.kind == "power_even" else ell + 1
        return c, p - ell, bool(sgn_pow % 2)

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
def _bump_rule():
    """Gauss rule (nodes, weights) for the weight rho/mass on (-1, 1), and mass.

    The discretised Stieltjes procedure: Lanczos with full
    reorthogonalisation on a 256-node Gauss-Legendre discretisation of the
    bump gives the Jacobi matrix of rho's orthogonal polynomials, whose
    eigenvalues are the nodes and whose first eigenvector components squared
    are the weights (Golub & Welsch).  The mass is the same discretisation's
    sum.
    """
    x, w = roots_legendre(256)
    omega = w * bump_profile(x)
    mass = float(np.sum(omega))
    q = np.zeros((x.size, _BUMP_NODES))
    q[:, 0] = np.sqrt(omega / mass)
    alpha = np.zeros(_BUMP_NODES)
    beta = np.zeros(_BUMP_NODES - 1)
    for k in range(_BUMP_NODES):
        r = x * q[:, k]
        alpha[k] = q[:, k] @ r
        for _ in range(2):  # twice is enough to keep q orthonormal
            r -= q[:, :k + 1] @ (q[:, :k + 1].T @ r)
        if k + 1 < _BUMP_NODES:
            beta[k] = np.linalg.norm(r)
            q[:, k + 1] = r / beta[k]
    nodes, vecs = eigh_tridiagonal(alpha, beta)
    return nodes, vecs[0] ** 2, mass


@lru_cache(maxsize=8)
def _kink_rule(a: float):
    """Gauss-Jacobi rule for the weight (1 - x)^a on (-1, 1)."""
    return roots_jacobi(_KINK_NODES, a, 0.0)


def _mollified_deriv(spec: NonlinearitySpec, ell: int, u):
    """(F^(ell) * rho_delta)(u), the integral of F^(ell)(u - delta t) rho(t)/mass.

    Each integrand's non-smooth factor is put into the quadrature weight.
    Points with no kink inside the bump's support (|u| >= delta, and every
    point of a polynomial kind) take the 32-node Gauss rule for the weight
    rho/mass.  For a power kind inside (-delta, delta) the integrand has its
    kink at t* = u/delta; on each side F^(ell)(u - delta t) is
    c (delta h)^a (1 - x)^a, possibly times a sign, with a = p - ell, h the
    side's half-width and x its reference coordinate, so an 80-node
    Gauss-Jacobi rule for (1 - x)^a leaves only the bump to evaluate at the
    moving nodes.  Against adaptive quadrature split at the kink, both power
    kinds agree within 6e-14 relative at ell in {0, 1, 2} and delta in
    {0.2, 0.4}, inside, at +-delta and out to 750, and within 7e-12 at
    ell = 3 of |u|^2.5, where F^(3) ~ |u|^(-1/2).  Points are walked in
    blocks so that the (points x nodes) temporaries stay a few MB.
    """
    if spec.kind != "polynomial" and spec.power - ell <= -1.0:
        raise ValueError(f"order-{ell} mollified derivative of |u|^{spec.power:g} "
                         "diverges: F^(ell) is not locally integrable")
    u_in = np.asarray(u, dtype=float)
    flat = u_in.reshape(-1)
    bad = int(np.count_nonzero(~np.isfinite(flat)))
    if bad:
        raise ValueError(f"mollified derivative needs finite input: "
                         f"{bad} of {flat.size} points are not finite")
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        stop = start + _BLOCK
        out[start:stop] = _mollified_block(spec, ell, flat[start:stop])
    return float(out[0]) if u_in.ndim == 0 else out.reshape(u_in.shape)


def _mollified_block(spec: NonlinearitySpec, ell: int, u: np.ndarray) -> np.ndarray:
    delta = spec.delta
    t, w, mass = _bump_rule()
    if spec.kind == "polynomial":
        return spec._raw_deriv(ell, u[:, None] - delta * t) @ w
    tstar = u / delta
    smooth = np.abs(tstar) >= 1.0
    out = np.empty_like(u)
    out[smooth] = spec._raw_deriv(ell, u[smooth][:, None] - delta * t) @ w
    if smooth.all():
        return out
    # half-widths h of the sides (-1, t*) and (t*, 1); on either side
    # z = h (1 + x) is the distance to the support's end, so 1 - t^2 = z (2 - z)
    ti = tstar[~smooth]
    h = np.concatenate([0.5 * (1.0 + ti), 0.5 * (1.0 - ti)])
    c, a, odd = spec._power_law(ell)
    x, wj = _kink_rule(a)
    z = h[:, None] * (1.0 + x)
    side = h ** (a + 1.0) * (bump_of_gap(z * (2.0 - z)) @ wj)
    left, right = np.split(side, 2)
    # u - delta t is positive on the left side and negative on the right
    out[~smooth] = c * delta**a / mass * (left - right if odd else left + right)
    return out


def mollify(spec: NonlinearitySpec, delta: float) -> NonlinearitySpec:
    """Spec whose derivatives are convolved with the bump at scale delta."""
    if delta < 0.0 or delta >= 1.0:
        raise ValueError("mollification scale must lie in [0, 1)")
    return replace(spec, delta=float(delta))


_GROWTH_RADII = (4.0, 8.0, 16.0, 32.0, 64.0)  # boxes of the growth fit
_HOLDER_GRID = np.linspace(-8.0, 8.0, 801)  # base points of holder_quotient


def growth_exponent(spec: NonlinearitySpec) -> float:
    """Fitted growth power M: sup-derivative growth on increasing boxes."""
    sups = []
    for r in _GROWTH_RADII:
        u = np.linspace(-r, r, 2001)
        s = max(float(np.max(np.abs(spec.deriv(ell, u)))) for ell in range(spec.k + 1))
        sups.append(s)
    slope, _ = np.polyfit(np.log(_GROWTH_RADII), np.log(sups), 1)
    return float(max(slope, 0.0))


def holder_quotient(spec: NonlinearitySpec, beta: float,
                    steps=(0.5, 0.1, 0.02)) -> float:
    """Grid sup of |F^(k)(u+h)-F^(k)(u)| / (h^beta (1+|u|)^M)."""
    m = growth_exponent(spec)
    worst = 0.0
    for h in steps:
        num = np.abs(spec.deriv(spec.k, _HOLDER_GRID + h)
                     - spec.deriv(spec.k, _HOLDER_GRID))
        den = h**beta * (1.0 + np.abs(_HOLDER_GRID)) ** m
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

    The x-grid is every ``stride``-th bin of a length-2^21 DFT on the probes'
    u-grid.  Bin k*stride of that DFT is bin k*(stride/g) of the length
    2^21/g one, g = gcd(stride, 2^21), since the probes' support fits in the
    shorter length; the probes are real, so one batched real FFT of that
    length gives every kept bin, and Psi(-x) = conj(Psi(x)) gives the rest.
    The grid reaches at most the Nyquist range pi/du: a wider x_max would
    read aliased bins, and a stride whose shorter length cannot hold the
    probes' support would truncate them, so both raise ValueError.  Also
    returns per-probe decay fits (amp, rate) with
    |Psi_j(x)| <~ amp * exp(-rate * sqrt(|x|)), estimated on the clean range
    above the double-precision floor; the tail guard extrapolates with these
    because the computed transform bottoms out near 1e-14.
    """
    u, probes = _probe_family(n_probes, m_probe)
    du = float(u[1] - u[0])
    nfft = 1 << 21
    dx0 = 2.0 * math.pi / (nfft * du)
    stride = max(int(round(dx_target / dx0)), 1)
    dx = stride * dx0
    m_max = int(x_max / dx)
    if m_max * stride > nfft // 2:
        raise ValueError(f"x_max = {x_max:g} exceeds the probe transform's "
                         f"Nyquist range pi/du = {math.pi / du:.6g}")
    g = math.gcd(stride, nfft)
    if nfft // g < len(u):
        raise ValueError(f"dx = {dx_target:g} gives a real FFT of length "
                         f"{nfft // g}, shorter than the probes' {len(u)} samples")
    xpos = np.arange(m_max + 1) * dx
    out = np.empty((n_probes, 2 * m_max + 1), dtype=complex)
    out_pos = out[:, m_max:]
    out_pos[...] = np.fft.rfft(probes, n=nfft // g, axis=1)[:, ::stride // g][:, :m_max + 1]
    out_pos *= du * np.exp(-1j * u[0] * xpos)
    np.conjugate(out_pos[:, :0:-1], out=out[:, :m_max])
    x = np.concatenate([-xpos[:0:-1], xpos])
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


def _factor_pairings(values, center: int, m_probe: int, n_probes: int,
                     x_max: float, dx: float) -> np.ndarray:
    """|<transform of f, probe_j(. - center)>| for every probe.

    ``values(x)`` gives f on an array of x: a derivative F^(ell), or the
    difference of two derivatives.  The tail guard integrates |f| against
    the fitted transform envelope beyond x_max (with a factor-100 safety
    margin) and raises when it exceeds _TAIL_TOL of the absolute integrand
    mass; pairings themselves can be tiny through cancellation, so they do
    not set the health scale.  A non-finite value of f (a derivative
    singular at a grid point) raises ValueError instead of a NaN norm.
    """
    x, psi, fits = _probe_transform(n_probes, m_probe, x_max, dx)
    xt = np.geomspace(x_max, 20.0 * x_max, 200)
    with np.errstate(all="ignore"):
        fvals = values(x)
        ft = np.abs(values(xt))
    for grid, vals in ((x, fvals), (xt, ft)):
        bad = ~np.isfinite(vals)
        if bad.any():
            raise ValueError(f"paired function is not finite at x = "
                             f"{grid[bad][0]:.6g}")
    mod = np.exp(-1j * center * x)
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
        pair = _factor_pairings(partial(spec.deriv, ell), c, q.m_probe,
                                q.n_probes, x_max, dx)
        value *= float(np.max(pair))
    return value


def window_norm_difference(spec: NonlinearitySpec, delta: float,
                           q: WindowNormQuery, x_max: float = 1500.0,
                           dx: float = 0.006) -> float:
    """Lower bound on the window norm of (transform of F^(ell) - F_delta^(ell)).

    Single-factor only: the tensor difference does not factorise.  The tail
    guard of :func:`window_norm` applies.
    """
    if len(q.ells) != 1:
        raise ValueError("difference norms are single-factor")
    ell = q.ells[0]
    moll = mollify(spec, delta)
    pair = _factor_pairings(lambda x: spec.deriv(ell, x) - moll.deriv(ell, x),
                            q.center[0], q.m_probe, q.n_probes, x_max, dx)
    return float(np.max(pair))


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
