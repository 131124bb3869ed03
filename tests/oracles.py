"""Independent numerical oracles shared by the test suite.

Nothing here reuses the package's analytic formulas: expectations come from
quadrature, joint moments from explicit pairing enumeration, and derivatives
from finite differences.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_hermitenorm, roots_jacobi, roots_legendre

from chaoslab import rng
from chaoslab.chaos import truncated_trig_deriv
from chaoslab.geometry import metric_many
from chaoslab.nonlinearity import _probe_family


def _orthonormal_hermite(x, order):
    """Orthonormal probabilists' Hermite values p_order, p_{order-1}, sum_{k<order} p_k^2."""
    norm = np.longdouble(1.0) / np.sqrt(np.sqrt(np.longdouble(2.0) * np.pi))
    pkm1 = np.ones_like(x) * norm
    pk = x * norm
    s = pkm1**2
    for k in range(1, order):
        s = s + pk**2
        pkp1 = (x * pk - np.sqrt(np.longdouble(k)) * pkm1) / np.sqrt(np.longdouble(k + 1))
        pkm1, pk = pk, pkp1
    return pk, pkm1, s


@lru_cache(maxsize=8)
def gh_rule(order: int):
    """Gauss-Hermite rule for weight exp(-x^2/2), refined in extended precision.

    Double-precision nodes limit the rule to ~1e-14 absolute accuracy on
    oscillatory integrands; three Newton corrections in longdouble push the
    floor to ~1e-18, which the chaos-coefficient identity needs after its
    theta**n/n! amplification.
    """
    x = roots_hermitenorm(order)[0].astype(np.longdouble)
    for _ in range(3):
        pn, pn1, _ = _orthonormal_hermite(x, order)
        x = x - pn / (np.sqrt(np.longdouble(order)) * pn1)
    _, _, s = _orthonormal_hermite(x, order)
    w = 1.0 / s
    return x, w / np.sum(w)


def gauss_expect(f, order: int = 400) -> float:
    """E f(Z) for standard normal Z by the extended-precision rule."""
    x, w = gh_rule(order)
    return float(np.sum(w * f(x)))


def isserlis_monomial_moment(powers, cov) -> float:
    """E prod_i Z_i^{q_i} by full pairing enumeration (self-pairs allowed)."""
    legs = []
    for i, q in enumerate(powers):
        legs.extend([i] * q)
    if len(legs) % 2 == 1:
        return 0.0

    def pairings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for i in range(len(rest)):
            for tail in pairings(rest[:i] + rest[i + 1:]):
                yield [(first, rest[i])] + tail

    cov = np.asarray(cov, dtype=float)
    total = []
    for p in pairings(legs):
        prod = 1.0
        for a, b in p:
            prod *= cov[a, b]
        total.append(prod)
    return math.fsum(total)


def hermite_monomial_coeffs(k: int, sigma2: float):
    """Coefficients c_j with Z^{<>k} = sum_j c_j Z^j for Var Z = sigma2."""
    sigma = math.sqrt(sigma2)
    herm = np.polynomial.hermite_e.herme2poly([0.0] * k + [1.0])
    return [float(h) * sigma ** (k - j) for j, h in enumerate(herm)]


def brute_wick_moment(degrees, cov) -> float:
    """E prod Z_i^{<>n_i} by expanding every Wick power into plain monomials.

    Fully independent of the contraction-matrix route: uses Hermite
    coefficient expansion plus plain Isserlis with self-pairings.
    """
    cov = np.asarray(cov, dtype=float)
    per_var = [
        [(j, c) for j, c in enumerate(hermite_monomial_coeffs(n, cov[i, i])) if c != 0.0]
        for i, n in enumerate(degrees)
    ]
    total = []
    for combo in itertools.product(*per_var):
        coeff = 1.0
        powers = []
        for j, c in combo:
            coeff *= c
            powers.append(j)
        total.append(coeff * isserlis_monomial_moment(powers, cov))
    return math.fsum(total)


@lru_cache(maxsize=4096)
def matching_contributions(degrees: tuple) -> tuple:
    """All no-self-loop perfect matchings for a degree vector, as index pairs.

    Cached per degree vector so that sweeping many covariances stays cheap.
    Returns a tuple of matchings; each matching is a tuple of (i, j) pairs of
    variable indices.
    """
    legs = []
    for i, q in enumerate(degrees):
        legs.extend([i] * q)
    out = []

    def rec(items, acc):
        if not items:
            out.append(tuple(acc))
            return
        first, rest = items[0], items[1:]
        for i in range(len(rest)):
            if rest[i] == first:
                continue  # Wick powers forbid self-contractions
            acc.append((first, rest[i]))
            rec(rest[:i] + rest[i + 1:], acc)
            acc.pop()

    if len(legs) % 2 == 0:
        rec(legs, [])
    return tuple(out)


def matching_wick_moment(degrees, cov) -> float:
    """E prod Z_i^{<>n_i} by direct no-self-loop perfect-matching enumeration."""
    ms = matching_contributions(tuple(int(d) for d in degrees))
    if not ms:
        return 0.0
    cov = np.asarray(cov, dtype=float)
    total = [math.prod(cov[a, b] for a, b in m) for m in ms]
    return math.fsum(total)


def random_correlation(gen, k: int) -> np.ndarray:
    """Random PSD correlation-like matrix with unit-order diagonal."""
    a = gen.standard_normal((k, k + 2))
    c = a @ a.T / (k + 2)
    d = np.sqrt(np.diag(c))
    return c / np.outer(d, d)


def _bump(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def two_panel_mollified_deriv(spec, ell: int, u, nodes: int = 96):
    """(F^(ell) * rho_delta)(u) with two Gauss-Legendre panels at every point.

    The slow route the package used before it took one panel away from the
    kink: a power kind splits (-1, 1) at t* = clip(u / delta) for every
    point, so points with |u| >= delta carry a zero-width second panel; a
    polynomial kind takes one panel.  Only ``spec._raw_deriv`` is shared
    with the package.
    """
    u_in = np.asarray(u, dtype=float)
    u = np.atleast_1d(u_in)
    delta = spec.delta
    t, w = roots_legendre(nodes)
    mass = float(np.sum(w * _bump(t)))
    if spec.kind == "polynomial":
        vals = spec._raw_deriv(ell, u[..., None] - delta * t)
        out = (vals * _bump(t)) @ w / mass
    else:
        tstar = np.clip(u / delta, -1.0, 1.0)
        out = np.zeros_like(u)
        panels = ((np.full_like(u, -1.0), tstar), (tstar, np.full_like(u, 1.0)))
        for a, b in panels:
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            tt = mid[..., None] + half[..., None] * t
            vals = spec._raw_deriv(ell, u[..., None] - delta * tt)
            out += half * ((_bump(tt) * vals) @ w) / mass
    return float(out[0]) if u_in.ndim == 0 else out


@lru_cache(maxsize=1)
def _legendre_rule():
    return roots_legendre(96)


@lru_cache(maxsize=1)
def _mollifier_mass() -> float:
    t, w = _legendre_rule()
    return float(np.sum(w * _bump(t)))


@lru_cache(maxsize=1)
def _mollifier_weights() -> np.ndarray:
    t, w = _legendre_rule()
    return w * _bump(t) / _mollifier_mass()


def legendre_mollified_deriv(spec, ell: int, u: np.ndarray) -> np.ndarray:
    """The package's former ``nonlinearity._mollified_block``, kept verbatim
    (with ``_bump`` for ``geometry.bump_profile``, the same function).

    One 96-node Gauss-Legendre panel times the bump for points with no kink
    inside the support, two panels split at the kink otherwise; accurate to
    about 3.5e-7 relative inside (-delta, delta) at ell = 2.  A test that
    monkeypatches it in for ``_mollified_block`` reproduces the numbers
    recorded in ``golden_design.json`` bit for bit.
    """
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
        acc += half * ((_bump(tt) * vals) @ w) / mass
    out[~smooth] = acc
    return out


def _rho(t: float) -> float:
    return math.exp(1.0 - 1.0 / (1.0 - t * t)) if abs(t) < 1.0 else 0.0


@lru_cache(maxsize=1)
def quad_bump_mass() -> float:
    """The bump's mass on (-1, 1) by adaptive quadrature."""
    return quad(_rho, -1.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400)[0]


def _power_law(spec, ell: int):
    """(c, a, odd) with F^(ell)(v) = c |v|^a sign(v)^odd, from the definitions."""
    p = spec.beta + (2.0 if spec.kind == "power_even" else 3.0)
    return (math.prod(p - j for j in range(ell)), p - ell,
            bool((ell + (spec.kind == "power_odd")) % 2))


def _scalar_deriv(spec, ell: int):
    """F^(ell) as a function of one float, written from the definitions."""
    if spec.kind == "polynomial":
        coeffs = [float(c) for c in np.polynomial.polynomial.polyder(spec.coeffs, ell)]
        return lambda v: math.fsum(c * v**k for k, c in enumerate(coeffs))
    c, a, odd = _power_law(spec, ell)
    return lambda v: c * abs(v) ** a * (math.copysign(1.0, v) if odd else 1.0)


def gauss_jacobi_kink_deriv(spec, ell: int, u):
    """(F^(ell) * rho_delta)(u) for a power kind at points inside (-delta, delta),
    by an 80-node Gauss-Jacobi rule on each side of the kink at every point.

    The package's route before it read the sides from a cached table.  The
    kink sits at t* = u / delta; on the side of half-width h, F^(ell)(u -
    delta t) is c (delta h)^a (1 - x)^a (times a sign on the right side of
    an odd case) with a = p - ell and x the side's reference coordinate, so
    the rule for the weight (1 - x)^a leaves only the bump, at the distances
    z = h (1 + x) to the support's end, where 1 - t^2 = z (2 - z).  The
    power law, the bump and its mass are computed here, not taken from the
    package.
    """
    u_in = np.asarray(u, dtype=float)
    tstar = u_in.reshape(-1) / spec.delta
    if spec.kind == "polynomial" or np.any(np.abs(tstar) >= 1.0):
        raise ValueError("the kink route needs a power kind and |u| < delta")
    c, a, odd = _power_law(spec, ell)
    x, w = roots_jacobi(80, a, 0.0)
    mass = quad_bump_mass()
    sides = []
    for h in (0.5 * (1.0 + tstar), 0.5 * (1.0 - tstar)):
        z = h[:, None] * (1.0 + x)
        sides.append(h ** (a + 1.0) * (np.exp(1.0 - 1.0 / (z * (2.0 - z))) @ w))
    left, right = sides
    out = c * spec.delta**a / mass * (left - right if odd else left + right)
    return float(out[0]) if u_in.ndim == 0 else out.reshape(u_in.shape)


def quad_mollified_deriv(spec, ell: int, u):
    """(F^(ell) * rho_delta)(u) by adaptive quadrature, split at the kink.

    A power kind's integrand t -> F^(ell)(u - delta t) is non-smooth at
    t* = clip(u / delta, -1, 1), so (-1, 1) is split there and each part
    goes to scipy ``quad``; a polynomial kind takes one part.  The bump's
    mass comes from ``quad`` too.  Nothing is shared with the package.
    """
    u_in = np.asarray(u, dtype=float)
    delta = spec.delta
    fd = _scalar_deriv(spec, ell)
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=400)
    mass = quad_bump_mass()
    out = np.empty(u_in.shape)
    for i, x in np.ndenumerate(u_in):
        def integrand(t, x=float(x)):
            return fd(x - delta * t) * _rho(t)

        cuts = [-1.0, 1.0]
        if spec.kind != "polynomial":
            cuts.insert(1, min(max(x / delta, -1.0), 1.0))
        out[i] = sum(quad(integrand, a, b, **opts)[0]
                     for a, b in zip(cuts, cuts[1:]) if b > a) / mass
    return float(out) if u_in.ndim == 0 else out


def quad_gaussian_mean(fn, sigma2: float) -> float:
    """The package's former ``nonlinearity.gaussian_mean``, kept verbatim.

    Adaptive ``quad`` over each half-line in z = u / sigma with a scalar
    integrand, so the kink at 0 sits at an endpoint.  A test that
    monkeypatches it in for ``gaussian_mean`` reproduces the numbers
    recorded in ``golden_design.json`` bit for bit.
    """
    if not 0.0 <= sigma2 < math.inf:  # also rejects NaN
        raise ValueError(f"Gaussian mean needs a finite, non-negative variance, "
                         f"got sigma2 = {sigma2!r}")
    sigma = math.sqrt(sigma2)

    def integrand(z):
        return float(fn(sigma * z)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    left, _ = quad(integrand, -np.inf, 0.0, epsabs=1e-11, epsrel=1e-11, limit=200)
    right, _ = quad(integrand, 0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=200)
    return left + right


def split_quad_gaussian_mean(fn, sigma2: float, cut: float) -> float:
    """E fn(Z), Z ~ N(0, sigma2), by scalar ``quad`` in z = u / sigma, split
    at 0 and +-cut: every point where a mollified derivative at scale
    cut * sigma stops being analytic is an endpoint.  Each of (0, cut) and
    (-cut, 0) is handed over in four equal parts, where one part let
    ``quad`` stop at two subintervals 7e-14 short of the integral.
    """
    sigma = math.sqrt(sigma2)

    def integrand(z):
        return float(fn(sigma * z)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    inner = list(np.linspace(0.0, cut, 5)) if cut > 0.0 else [0.0]
    cuts = [-np.inf] + [-c for c in inner[:0:-1]] + inner + [np.inf]
    return math.fsum(quad(integrand, a, b, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(cuts, cuts[1:]))


def full_complex_field_values(spectrum, seed: int, indices) -> np.ndarray:
    """Field draws by one full complex transform per draw.

    The route the package used before it paired draws 2j and 2j + 1 in one
    complex transform: each draw's real noise goes through its own complex
    ``fftn``/``ifftn`` and the imaginary half is discarded.  Only the noise
    substreams and the spectrum are shared with the package.
    """
    indices = np.asarray(indices, dtype=int)
    shape = spectrum.lattice.shape
    w = np.empty((len(indices),) + shape)
    for row, idx in enumerate(indices):
        w[row] = rng.substream(seed, rng.FIELD, int(idx)).standard_normal(shape)
    axes = tuple(range(1, len(shape) + 1))
    wh = np.fft.fftn(w, axes=axes)
    xh = wh * np.sqrt(spectrum.eigenvalues)[None, ...]
    return np.real(np.fft.ifftn(xh, axes=axes))


def per_config_operator_values(cfg, values, sigma2: float, alpha: float,
                               epsilon: float) -> np.ndarray:
    """Operator sums of one config over a batch of raw draws, factor by factor.

    The route ``operator`` used before configs shared their trig factors:
    the whole draw is normalised, and both factors are evaluated on the
    config's own x and y columns.  Only the set-up arrays and the truncated
    trig factor are shared with the package.
    """
    st, fn = cfg.setup.arrays, cfg.functional
    flat = (epsilon ** (alpha / 2.0) * values).reshape(len(values), -1)
    fx = truncated_trig_deriv(flat[:, st["x_idx"]], fn.theta[0],
                              fn.spec_x.phase, fn.spec_x.m, fn.deriv[0], sigma2)
    gy = truncated_trig_deriv(flat[:, st["y_idx"]], fn.theta[1],
                              fn.spec_y.phase, fn.spec_y.m, fn.deriv[1], sigma2)
    inner = gy @ st["kmat"].T
    return np.einsum("bx,x,bx->b", inner, st["xw"], fx)


def per_draw_model_field(mf, seed: int, indices) -> np.ndarray:
    """Model field draws by one full complex transform per draw.

    The route ``models`` used before its draws went through the paired
    synthesiser of ``field``: each draw's real noise is convolved with the
    stencil by its own complex ``fftn``/``ifftn`` and the imaginary half is
    discarded.  Only the noise substreams and the stencil are shared with
    the package.
    """
    shape = mf.lattice.shape
    out = np.empty((len(indices),) + shape)
    for row, idx in enumerate(indices):
        w = rng.substream(seed, rng.MODEL, int(idx)).standard_normal(shape)
        conv = np.real(np.fft.ifftn(np.fft.fftn(w) * mf.stencil_fft))
        out[row] = math.sqrt(mf.lattice.cell_volume) * conv
    return out


def loop_bootstrap_moment_norm(values, n: int, seed: int = 0, tag: int = 0,
                               resamples: int = 500):
    """(point, (lo, hi)) of the moment norm with one resample per loop step.

    The bootstrap the package used before it drew its resample indices in
    (rows, m) blocks: each resample is one ``integers(0, m, size=m)`` call on
    the (seed, BOOTSTRAP, tag) substream and one scalar mean.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    m = len(values)
    powers = np.abs(values) ** (2 * n)
    point = float(np.mean(powers) ** (1.0 / (2 * n)))
    gen = rng.substream(seed, rng.BOOTSTRAP, tag)
    boot = np.empty(resamples)
    for b in range(resamples):
        pick = gen.integers(0, m, size=m)
        boot[b] = np.mean(powers[pick]) ** (1.0 / (2 * n))
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return point, (float(min(lo, point)), float(max(hi, point)))


def permutation_chain_class(points, L_eps: float, g) -> bool:
    """Chain-class membership by walking every ordering of the points.

    The route the package used before ``in_chain_class`` shared the chain
    enumeration of the partition check: a Hamiltonian path in the proximity
    graph, each ordering tried once up to reversal.  Only the metric is
    shared with the package.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    if m == 1:
        return True
    adj = metric_many(pts[:, None, :] - pts[None, :, :], g) <= L_eps
    for perm in itertools.permutations(range(m)):
        if perm[0] > perm[-1]:
            continue  # path reversal symmetry
        if all(adj[perm[i], perm[i + 1]] for i in range(m - 1)):
            return True
    return False


def probe_transform_full_fft(n_probes: int, m_probe: int, x_max: float,
                             dx_target: float):
    """(x, Psi) of ``nonlinearity._probe_transform`` by one complex FFT per probe.

    The slow route the package used before it took one batched real FFT at
    the shortest exact length: each probe is zero-padded to 2^21 samples,
    transformed in full and every ``stride``-th bin is kept.  Only the probe
    family is shared with the package.
    """
    u, probes = _probe_family(n_probes, m_probe)
    du = float(u[1] - u[0])
    nfft = 1 << 21
    dx0 = 2.0 * math.pi / (nfft * du)
    stride = max(int(round(dx_target / dx0)), 1)
    m_max = int(x_max / (stride * dx0))
    xpos = np.arange(m_max + 1) * (stride * dx0)
    out_pos = np.empty((n_probes, m_max + 1), dtype=complex)
    for j in range(n_probes):
        padded = np.zeros(nfft)
        padded[:len(u)] = probes[j]
        fh = np.fft.fft(padded)[::stride][:m_max + 1]
        out_pos[j] = du * np.exp(-1j * u[0] * xpos) * fh
    x = np.concatenate([-xpos[:0:-1], xpos])
    return x, np.concatenate([np.conj(out_pos[:, :0:-1]), out_pos], axis=1)
