"""Polynomial-growth nonlinearities, mollification, and windowed-Fourier decay.

The canonical instances are the even power |u|^(2+beta) (two derivatives
plus a beta-Holder second derivative) and the odd power sign(u)|u|^(3+beta);
polynomials cover the exactly-solvable comparisons.  Mollification convolves
the requested derivative with a fixed smooth bump rho at scale delta.  Where
the integrand has no kink inside the bump's support, a 32-node Gauss rule
for the weight rho gives the value.  Where it has one, at a point inside
(-delta, delta) of a power kind, the value is the sum of two sides of the
kink, and each side is a function of its half-width alone for a given
exponent; it is read from a piecewise Chebyshev table, built once per
exponent from an 80-node Gauss-Jacobi rule, at O(1) cost per point.  Both
routes agree with adaptive quadrature to about 5e-14 at ell <= 2 (5e-12
inside and 7e-12 at +-delta for the singular ell = 3 of |u|^(2+beta)).
Gaussian means E F^(ell)(sigma Z), the renormalisation constants of the
model objects, take one fixed graded Gauss-Legendre rule in z and one
array call of the integrand.  Every Gauss rule here comes from numpy alone:
Golub-Welsch nodes polished by Newton steps, with Christoffel weights.

Window norms are certified lower bounds: the true norm is a sup over an
infinite ball of test functions, which is not computable; we maximise the
pairing over a finite family of normalised bump-times-monomial probes and
validate the *decay* of that lower bound, which is what the theory
constrains.  The pairing with a frequency-window probe is pushed to the
spatial side, where the probe's transform decays super-polynomially; the
probes are real, so the transform is kept on its grid's x >= 0 half only,
and every pairing is folded onto that half.  F^(ell) of a power kind is
even or odd, and so is its mollification by the even bump, so a power
kind's window norms evaluate the derivative on x >= 0 only; a polynomial's
is evaluated on the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import bump_of_gap, bump_profile
from .stats import check_integer

_BUMP_NODES = 32  # Gauss rule for the bump weight, away from the kink
# the mass of rho on (-1, 1); the 256-node sum _bump_rule is built from is
# 2.2e-16 relative above it
_BUMP_MASS = 1.2069003224378762
_KINK_NODES = 80  # Gauss-Jacobi rule a kink side's table is built from
# piecewise Chebyshev table of a kink side over its half-width in [0, 1]:
# 512 x 8 doubles, 32 KB per exponent
_TABLE_PANELS = 512
_TABLE_DEGREE = 7
# points per block of the mollified derivative: 4096 x 32 doubles is 1 MB
_BLOCK = 4096
_TAIL_TOL = 1e-8  # largest extrapolated tail share a window norm accepts
# Gaussian-mean rule per half-line in z: a Gauss-Legendre rule of
# _GAUSS_NODES on each panel between 0 and the edges 40 * 2^(-j), j < 61
_GAUSS_NODES = 32
_GAUSS_PANELS = 61
_GAUSS_EDGE_MAX = 40.0  # the density beyond is below 1e-347


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
    def power(self) -> float:
        if self.kind == "power_even":
            return 2.0 + self.beta
        if self.kind == "power_odd":
            return 3.0 + self.beta
        raise ValueError("power is defined for the power kinds only")

    def deriv(self, ell: int, u):
        """ell-th derivative at u (mollified when delta > 0)."""
        check_integer("ell", ell, 0)
        if self.delta > 0.0:
            return _mollified_deriv(self, ell, u)
        return self._raw_deriv(ell, u)

    def _raw_deriv(self, ell: int, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "polynomial":
            c = npoly.polyder(self.coeffs, ell) if ell else np.asarray(self.coeffs)
            return npoly.polyval(u, c)
        c, a, odd = self._power_law(ell)
        # in place; np.abs of a 0-d u is a numpy scalar, so a scalar keeps
        # the scalar power
        v = np.abs(u)
        v **= a
        v *= c
        if odd:
            v *= np.sign(u)
        return v

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


def _gauss_rule(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule (nodes, weights) for the weight (1 - x)^a on (-1, 1);
    a = 0 is Gauss-Legendre.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix of the polynomials P_k^(a, 0), each polished by two
    Newton steps on their three-term recurrence, and the weights are
    Christoffel's, 2^(a+1) / ((1 - x^2) P_n'(x)^2).
    """
    if n < 1:
        raise ValueError(f"a Gauss rule needs n >= 1 nodes, got n = {n!r}")
    if not a > -1.0:  # also rejects NaN
        raise ValueError(f"the weight (1 - x)^a is integrable for a > -1 only, "
                         f"got a = {a!r}")
    k = np.arange(1, n)
    sk = 2.0 * k + a
    diag = np.concatenate([[-a / (a + 2.0)], -a * a / (sk * (sk + 2.0))])
    off = 2.0 * k * (k + a) / (sk * np.sqrt(sk * sk - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    s = 2.0 * n + a
    for step in range(3):  # two Newton steps, then P_n' at the polished nodes
        p0, p1 = np.ones_like(x), 0.5 * (a + (a + 2.0) * x)  # P_0, P_1
        for m in range(2, n + 1):
            sm = 2.0 * m + a
            p0, p1 = p1, ((sm - 1.0) * (sm * (sm - 2.0) * x + a * a) * p1
                          - 2.0 * (m + a - 1.0) * (m - 1.0) * sm * p0) / (
                              2.0 * m * (m + a) * (sm - 2.0))
        gap = (1.0 - x) * (1.0 + x)
        dp = n * ((a - s * x) * p1 + 2.0 * (n + a) * p0) / (s * gap)  # P_n'
        if step < 2:
            x = x - p1 / dp
    return x, 2.0 ** (a + 1.0) / (gap * dp * dp)


@lru_cache(maxsize=1)
def _bump_rule():
    """Gauss rule (nodes, weights) for the weight rho/mass on (-1, 1).

    The discretised Stieltjes procedure: Lanczos with full
    reorthogonalisation on the 256-node Gauss-Legendre discretisation of the
    bump (:func:`_gauss_rule`) gives the 32 x 32 Jacobi matrix of rho's
    orthogonal polynomials; a dense symmetric eigensolve of it gives the
    nodes as its eigenvalues and the weights as its first eigenvector
    components squared (Golub & Welsch).
    """
    x, w = _gauss_rule(256, 0.0)
    omega = w * bump_profile(x)
    q = np.zeros((x.size, _BUMP_NODES))
    q[:, 0] = np.sqrt(omega / np.sum(omega))
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
    nodes, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1))
    return nodes, vecs[0] ** 2


@lru_cache(maxsize=8)
def _kink_table(a: float) -> np.ndarray:
    """Piecewise Chebyshev table of side_a on [0, 1], shape
    (_TABLE_DEGREE + 1, _TABLE_PANELS): row j holds each panel's coefficient
    of T_j.

    side_a(h) = h^(a+1) sum_j w_j rho(1 - z_j), z_j = h (1 + x_j), with the
    80-node Gauss-Jacobi rule (x_j, w_j) for the weight (1 - x)^a from
    :func:`_gauss_rule` (weights within 3.4e-13 relative of a 40-digit
    reference at the tests' eight exponents), is sampled at each uniform
    panel's Chebyshev points of the first kind; they are interior, so the
    bump is never evaluated at the gap 0 of h = 0.
    """
    n = _TABLE_DEGREE + 1
    theta = math.pi * (np.arange(n) + 0.5) / n
    h = (np.arange(_TABLE_PANELS)[:, None] + 0.5 * (1.0 + np.cos(theta))) / _TABLE_PANELS
    side = np.zeros_like(h)  # one node at a time: temporaries of 32 KB, not 2.6 MB
    for xj, wj in zip(*_gauss_rule(_KINK_NODES, a)):
        z = h * (1.0 + xj)
        side += wj * bump_of_gap(z * (2.0 - z))
    side *= h ** (a + 1.0)
    coef = (2.0 / n) * side @ np.cos(np.outer(theta, np.arange(n)))
    coef[:, 0] *= 0.5
    return np.ascontiguousarray(coef.T)


def _kink_sides(a: float, h: np.ndarray) -> np.ndarray:
    """side_a at half-widths h in [0, 1], by Clenshaw on h's panel of the table."""
    coef = _kink_table(a)
    pos = h * _TABLE_PANELS
    panel = np.minimum(pos.astype(np.intp), _TABLE_PANELS - 1)
    s = 2.0 * (pos - panel) - 1.0
    c = coef[:, panel]
    s2 = 2.0 * s
    b1, b2 = c[-2] + s2 * c[-1], c[-1]
    for ck in c[-3:0:-1]:
        b1, b2 = ck + s2 * b1 - b2, b1
    return c[0] + s * b1 - b2


def _mollified_deriv(spec: NonlinearitySpec, ell: int, u):
    """(F^(ell) * rho_delta)(u), the integral of F^(ell)(u - delta t) rho(t)/mass.

    Points with no kink inside the bump's support (|u| >= delta, and every
    point of a polynomial kind) take the 32-node Gauss rule for the weight
    rho/mass.  For a power kind inside (-delta, delta) the integrand has its
    kink at t* = u/delta.  On the side of half-width h, F^(ell)(u - delta t)
    is c (delta h)^a (1 - x)^a, possibly times a sign, with a = p - ell and
    x the side's reference coordinate, so the side's integral is
    c delta^a side_a(h)/mass with side_a(h) = h^(a+1) sum_j w_j rho(1 - z_j),
    z_j = h (1 + x_j), over the 80-node Gauss-Jacobi rule for (1 - x)^a.
    side_a depends on a alone, so each inside point reads it at its two
    half-widths (1 +- t*)/2 from a table of _TABLE_PANELS panels of degree
    _TABLE_DEGREE, cached per exponent, by Clenshaw: no bump evaluation per
    point.  The table matches the per-point sum of a 40-digit reference
    Gauss-Jacobi rule (the test oracle) within 2.3e-14 abs/max(1, |ref|) at
    ell <= 3 of both power kinds and delta in {0.2, 0.4}; inside
    (-delta, delta) mirror points swap the half-widths exactly, so there
    F_delta^(ell)(-u) = +-F_delta^(ell)(u) bit for bit.  Outside, a mirror
    point sums the nodes in the other order and agrees to rounding only
    (about 62 % of a window-norm grid bit for bit), and a point's bits can
    depend on its row in the block's node sum.  Against adaptive quadrature
    split at the kink (abs/max(1, |ref|), delta in {0.2, 0.4}), both power
    kinds agree within 4.7e-14 inside, 2.0e-14 at +-delta and 7e-16 out to
    750 at ell in {0, 1, 2}; at ell = 3, within 4.6e-14 for sign(u)|u|^3.3,
    and within 5.2e-12 inside and 6.7e-12 at +-delta for |u|^2.5, where
    F^(3) ~ |u|^(-1/2) and the quadrature itself reports roundoff.  The
    outside rule writes c |u - delta t|^a into one (points x nodes)
    temporary in place and takes the sign of an odd kind after the node
    sum, the same bits as F^(ell)(u - delta t) @ w; points are walked in
    blocks of _BLOCK so that temporary stays about 1 MB.
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
    t, w = _bump_rule()
    if spec.kind == "polynomial":
        return spec._raw_deriv(ell, u[:, None] - delta * t) @ w
    c, a, odd = spec._power_law(ell)
    tstar = u / delta
    kink = np.abs(tstar) < 1.0
    n_kink = np.count_nonzero(kink)
    out = np.empty_like(u)
    if n_kink < u.size:
        # c |u - delta t|^a sign(u - delta t)^odd over one temporary; outside
        # the kink every node's u - delta t has the sign of u, and a sign
        # flip commutes exactly with the node sum
        smooth = ~kink
        us = u[smooth]
        vals = us[:, None] - delta * t
        np.abs(vals, out=vals)
        vals **= a  # the operator keeps numpy's scalar-power fast paths
        vals *= c
        vals = vals @ w
        if odd:
            vals *= np.sign(us)
        out[smooth] = vals
    if n_kink:
        # half-widths h = (1 + t*)/2 and (1 - t*)/2 of the sides (-1, t*) and
        # (t*, 1): a point and its mirror image swap them exactly
        left, right = _kink_sides(a, 0.5 + np.multiply.outer((0.5, -0.5), tstar[kink]))
        # u - delta t is positive on the left side and negative on the right
        out[kink] = c * delta**a / _BUMP_MASS * (left - right if odd else left + right)
    return out


def mollify(spec: NonlinearitySpec, delta: float) -> NonlinearitySpec:
    """Spec whose derivatives are convolved with the bump at scale delta."""
    if not 0.0 <= delta < 1.0:  # also rejects NaN
        raise ValueError(f"mollification scale must lie in [0, 1), got {delta!r}")
    return replace(spec, delta=float(delta))


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
        if not self.ells:
            raise ValueError("ells must hold one or more derivative orders")
        for ell in self.ells:
            check_integer("ells", ell, 0)
        if len(self.ells) != len(self.center):
            raise ValueError("one window center per derivative order required")
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError(f"center must be finite, got {self.center!r}")
        check_integer("m_probe", self.m_probe, 0)
        check_integer("n_probes", self.n_probes, 1)


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


# one entry at the default x_max holds about 25 MB and a window-norm call
# reads one key: two entries keep the cache near 50 MB, where 64 held GBs
@lru_cache(maxsize=2)
def _probe_transform(n_probes: int, m_probe: int, x_max: float, dx_target: float):
    """Spatial transforms Psi_j(x) = int probe_j(u) e^{-iux} du on x >= 0.

    Returns (x, Psi, step, fits).  The grid x = 0, step, ... up to x_max is
    every ``stride``-th bin of a length-2^21 DFT on the probes' u-grid, so
    step, which every sum over the grid is weighted by, is the multiple of
    2 pi / (2^21 du) nearest to ``dx_target``.  Bin k*stride of that DFT is
    bin k*(stride/g) of the length 2^21/g one, g = gcd(stride, 2^21), since
    the probes' support fits in the shorter length; the probes are real, so
    one batched real FFT of that length gives every kept bin.  The grid
    reaches at most the Nyquist range pi/du: a wider x_max would read
    aliased bins, and a stride whose shorter length cannot hold the probes'
    support would truncate them, so both raise ValueError, as does an x_max
    or dx that is not finite and positive.  The per-probe decay fits
    (amp, rate), |Psi_j(x)| <~ amp * exp(-rate * sqrt(x)), are estimated on
    the clean range above the double-precision floor; the tail guard
    extrapolates with these because the computed transform bottoms out near
    1e-14.
    """
    for name, value in (("x_max", x_max), ("dx", dx_target)):
        if not 0.0 < value < math.inf:  # also rejects NaN
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    u, probes = _probe_family(n_probes, m_probe)
    du = float(u[1] - u[0])
    nfft = 1 << 21
    dx0 = 2.0 * math.pi / (nfft * du)
    stride = max(int(round(dx_target / dx0)), 1)
    step = stride * dx0
    m_max = int(x_max / step)
    if m_max * stride > nfft // 2:
        raise ValueError(f"x_max = {x_max:g} exceeds the probe transform's "
                         f"Nyquist range pi/du = {math.pi / du:.6g}")
    g = math.gcd(stride, nfft)
    if nfft // g < len(u):
        raise ValueError(f"dx = {dx_target:g} gives a real FFT of length "
                         f"{nfft // g}, shorter than the probes' {len(u)} samples")
    x = np.arange(m_max + 1) * step
    psi = np.fft.rfft(probes, n=nfft // g, axis=1)[:, ::stride // g][:, :m_max + 1]
    psi = psi * (du * np.exp(-1j * u[0] * x))  # a copy: the cache keeps no FFT
    fits = []
    for j in range(n_probes):
        mag = np.abs(psi[j])
        sel = (x > 10.0) & (mag > 1e-12)
        if np.sum(sel) > 50:
            coeff = np.polyfit(np.sqrt(x[sel]), np.log(mag[sel]), 1)
            rate, amp = -float(coeff[0]), math.exp(float(coeff[1]))
        else:
            rate, amp = 0.0, float(np.max(mag))
        fits.append((amp, max(rate, 0.0)))
    return x, psi, step, tuple(fits)


def _factor_pairings(values, center: int, m_probe: int, n_probes: int,
                     x_max: float, dx: float, parity) -> np.ndarray:
    """|<transform of f, probe_j(. - center)>| for every probe.

    ``values(x)`` gives f on an array of x: a derivative F^(ell), or the
    difference of two derivatives.  Every pairing is the trapezoid sum, at
    the transform's step, of f(x) e^{-i center x} Psi_j(x) over -x_max..x_max,
    folded onto the x >= 0 half the transform keeps: f is real and
    Psi_j(-x) = conj Psi_j(x), so with g(h) = e^{-i center x} w h on x >= 0,
    where w = 1/2 at x = 0 and at x_max, the pairing is
    Psi_j g(f+) + conj(Psi_j g(f-)), f+-(x) = f(+-x).
    A ``parity`` p of +-1 says f(-x) = p f(x): f is evaluated on x >= 0
    only, the second product is p conj of the first and is skipped, and
    the pairing is twice the first's real (p = 1) or imaginary (p = -1)
    part.  With parity None, f is evaluated once on the whole grid and split
    at x = 0; a separate call on the negative half can give a point other
    bits (see :func:`_mollified_deriv`).  All probes take each g in one
    complex matrix-vector product.  The tail guard integrates |f| against
    the fitted transform envelope beyond x_max (with a factor-100 safety
    margin) and raises when it exceeds _TAIL_TOL of the absolute integrand
    mass sum_x |Psi_j| |f| step over the whole grid, taken one probe row at
    a time on the half; pairings themselves can be tiny through
    cancellation, so they do not set the health scale.  A non-finite value
    of f (a derivative singular at a grid point) raises ValueError instead
    of a NaN norm.
    """
    x, psi, step, fits = _probe_transform(n_probes, m_probe, x_max, dx)
    grid = x if parity is not None else np.concatenate([-x[:0:-1], x])
    xt = np.geomspace(x_max, 20.0 * x_max, 200)
    with np.errstate(all="ignore"):
        fvals = values(grid)
        ft = np.abs(values(xt))
    for pts, vals in ((grid, fvals), (xt, ft)):
        bad = ~np.isfinite(vals)
        if bad.any():
            raise ValueError(f"paired function is not finite at x = "
                             f"{pts[bad][0]:.6g}")
    if parity is None:  # f+ and f-, each from x = 0 outward
        fpos, fneg = fvals[-x.size:], fvals[x.size - 1::-1]
    else:
        fpos = fneg = fvals
    fabs = np.abs(fpos)
    fabs += np.abs(fneg)
    fabs[0] *= 0.5  # x = 0 is one point of the whole grid
    for j in range(n_probes):
        amp, rate = fits[j]
        if rate <= 0.0:
            raise TailTruncationError("no usable decay fit; widen x_max")
        whole_abs = float(np.abs(psi[j]) @ fabs) * step
        tail_abs = 200.0 * float(np.trapezoid(
            ft * amp * np.exp(-rate * np.sqrt(xt)), xt))
        if tail_abs > _TAIL_TOL * whole_abs:
            raise TailTruncationError(
                f"extrapolated tail share {tail_abs / whole_abs:.3g} exceeds "
                f"{_TAIL_TOL:.1g}; widen x_max")
    mod = np.exp(-1j * center * x)
    mod[[0, -1]] *= 0.5
    pair = psi @ (fpos * mod)
    if parity is None:
        pair += np.conj(psi @ (fneg * mod))
    else:  # f- = p f+: the second product is p conj of the first
        pair = 2.0 * (pair.real if parity > 0 else pair.imag)
    return np.abs(pair) * (step / (2.0 * math.pi))


def _parity(spec: NonlinearitySpec, ell: int):
    """+1 or -1 as F^(ell) of a power kind, and every mollification of it by
    the even bump, is even or odd; None for a polynomial."""
    if spec.kind == "polynomial":
        return None
    return -1 if spec._power_law(ell)[2] else 1


def window_norm(spec: NonlinearitySpec, q: WindowNormQuery, x_max: float = 1500.0,
                dx: float = 0.006) -> float:
    """Certified lower bound on the windowed norm of the (tensor) transform.

    Tensor probes factorise, so the bound is the product over factors of the
    best single-factor pairing.  Adding probes can only raise the value.
    """
    value = 1.0
    for ell, c in zip(q.ells, q.center):
        pair = _factor_pairings(partial(spec.deriv, ell), c, q.m_probe,
                                q.n_probes, x_max, dx, _parity(spec, ell))
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
                            q.center[0], q.m_probe, q.n_probes, x_max, dx,
                            _parity(spec, ell))
    return float(np.max(pair))


@dataclass(frozen=True)
class Derivative:
    """u -> F^(ell)(u) of one nonlinearity, an integrand that carries its
    mollification scale to :func:`gaussian_mean`."""

    spec: NonlinearitySpec
    ell: int

    def __call__(self, u):
        return self.spec.deriv(self.ell, u)


@lru_cache(maxsize=16)
def _gaussian_rule(edge: float):
    """Nodes z > 0 and weights (times the standard normal density) of the
    half-line rule of :func:`gaussian_mean`, with one more panel edge at
    ``edge`` (none at 0 or beyond the last edge).  Read-only arrays."""
    edges = np.unique(np.concatenate([
        [0.0, min(edge, _GAUSS_EDGE_MAX)],
        _GAUSS_EDGE_MAX * 0.5 ** np.arange(_GAUSS_PANELS)]))
    x, w = _gauss_rule(_GAUSS_NODES, 0.0)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    z = (mid + half * x).reshape(-1)
    wz = (half * w).reshape(-1) * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    z.setflags(write=False)
    wz.setflags(write=False)
    return z, wz


def gaussian_mean(fn, sigma2: float) -> float:
    """E fn(Z) for Z ~ N(0, sigma2), with fn mapping an array of u to values.

    A fixed rule in z = u / sigma: on each half-line, a 32-point
    Gauss-Legendre rule on every panel between the edges 0 and
    40 * 2^(-j), j = 0..60, and one array call of fn at the nodes of both
    half-lines.  The kink of the |u|^a derivatives sits at the edge 0,
    where the graded panels resolve it.  A mollified integrand (a
    NonlinearitySpec or a :class:`Derivative` of one with delta > 0) is
    smooth but not analytic at u = +-delta, so its rule gets one more edge
    at delta / sigma.  Over both power kinds, beta in {0.1, 0.5, 0.9},
    ell <= 3 and sigma2 in {0.0219, 1, 4}, in units of E|fn|: the raw
    derivatives match the closed form within 7.2e-16, and the mollified
    ones (delta in {0.2, 0.4}) adaptive quadrature split at 0 and
    +-delta/sigma within 8.7e-16; without the edge at delta/sigma they were
    off by up to 2.1e-11.  The 32-point Legendre rule is
    :func:`_gauss_rule`'s, its weights within 3.0e-15 relative of a
    40-digit reference.  The half-lines are summed node by node, so an fn
    with fn(-u) = -fn(u) exactly gives exactly 0.  sigma2 = 0 gives fn(0);
    a negative or non-finite sigma2, or a value of fn that is not finite at
    a node, raises ValueError.
    """
    if not 0.0 <= sigma2 < math.inf:  # also rejects NaN
        raise ValueError(f"Gaussian mean needs a finite, non-negative variance, "
                         f"got sigma2 = {sigma2!r}")
    if sigma2 == 0.0:
        return float(_finite_values(fn, np.zeros(1))[0])
    if isinstance(fn, NonlinearitySpec):
        fn = Derivative(fn, 0)
    sigma = math.sqrt(sigma2)
    delta = fn.spec.delta if isinstance(fn, Derivative) else 0.0
    z, wz = _gaussian_rule(delta / sigma)
    vals = _finite_values(fn, sigma * np.concatenate([z, -z])).reshape(2, -1)
    return float(wz @ (vals[0] + vals[1]))


def _finite_values(fn, u: np.ndarray) -> np.ndarray:
    """fn at the points u; ValueError where it is not finite."""
    vals = np.asarray(fn(u), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"Gaussian mean needs a finite integrand: not finite "
                         f"at u = {u[bad][0]:.6g}")
    return vals
