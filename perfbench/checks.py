"""Reference computations written from the formulas, apart from chaoslab.

Nothing here calls chaoslab's kernel, geometry, chaos or quadrature code;
the checks in ``workloads.py`` compare the program's outputs with these.
"""

from __future__ import annotations

import math

import numpy as np


def metric(points, s):
    """max_i |x_i|^(1/s_i) over the last axis."""
    return np.max(np.abs(points) ** (1.0 / np.asarray(s)), axis=-1)


def bump(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def cutoff(r, c):
    """Smooth step: 1 on r <= c/2, 0 on r >= c."""
    t = np.clip((c - np.asarray(r, dtype=float)) / (0.5 * c), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        f = np.where(t > 0, np.exp(-1.0 / t), 0.0)
        g = np.where(t < 1, np.exp(-1.0 / (1.0 - t)), 0.0)
    return f / (f + g)


def taylor_depth(gamma, alpha, m2):
    v = gamma - alpha * m2 / 2.0
    if abs(v - round(v)) < 1e-9:
        v = round(v)
    return max(math.ceil(v), 0)


def lattice_points(s, h, extent):
    """Row-major points k * h^s_i with |k h^s_i| <= extent, and the shape."""
    axes = []
    for si in s:
        m = int(math.floor(extent / h ** si + 1e-12))
        axes.append(np.arange(-m, m + 1) * h ** si)
    grids = np.meshgrid(*axes, indexing="ij")
    shape = tuple(len(a) for a in axes)
    return np.stack([gr.reshape(-1) for gr in grids], axis=-1), shape


def dense_operator(d, lam):
    """Test weights, kernel matrix and x/y index sets of the double sum

        V = sum_x sum_y phi_lam(x) K(x, y) F(x, y) h^{2|s|}

    for a StudyDesign ``d`` with Taylor depth r_e <= 1, y in the metric ball
    of radius y_radius, pairs closer than diagonal_policy * h dropped and the
    singular y = 0 column dropped.
    """
    s = np.asarray(d.s, dtype=float)
    total = float(np.sum(s))
    r_e = d.re_override if d.re_override is not None else \
        taylor_depth(d.gamma, d.alpha, d.m2)
    if r_e > 1:
        raise ValueError("the reference double sum covers r_e <= 1")
    pts, shape = lattice_points(s, d.h, d.extent)
    phi = lam ** (-total) * bump(metric(pts / lam ** s, s))
    x_idx = np.nonzero(phi > 0)[0]
    y_idx = np.nonzero(metric(pts, s) <= d.y_radius)[0]
    x, y = pts[x_idx], pts[y_idx]
    power = total - d.gamma

    def k0(z):
        r = metric(z, s)
        with np.errstate(divide="ignore"):
            return np.where(r > 0, cutoff(r, d.cutoff) * r ** (-power), np.inf)

    with np.errstate(invalid="ignore"):
        kmat = k0(x[:, None, :] - y[None, :, :])
        if r_e == 1:
            kmat = kmat - k0(-y)[None, :]
    kmat[metric(x[:, None, :] - y[None, :, :], s) < d.diagonal_policy * d.h] = 0.0
    kmat[~np.isfinite(kmat)] = 0.0
    cell = d.h ** total
    return {"shape": shape, "x_idx": x_idx, "y_idx": y_idx,
            "xw": phi[x_idx] * cell, "kmat": kmat * cell}


def dense_values(op, d, theta, norm_values):
    """V per draw for sin/sin factors truncated at order 1.

    sin is odd, so its order-0 chaos coefficient E sin(theta Z) is zero and
    the order-1 truncation leaves sin(theta X) unchanged.
    """
    if (d.trig1, d.trig2, d.m1, d.m2, d.deriv) != ("sin", "sin", 1, 1, (0, 0)):
        raise ValueError("the reference double sum covers sin/sin at m = 1")
    flat = norm_values.reshape(norm_values.shape[0], -1)
    fx = np.sin(theta[0] * flat[:, op["x_idx"]])
    fy = np.sin(theta[1] * flat[:, op["y_idx"]])
    terms = (op["xw"][None, :, None] * op["kmat"][None, :, :]
             * fx[:, :, None] * fy[:, None, :])
    return terms.sum(axis=(1, 2)), np.abs(terms).sum(axis=(1, 2))


def envelope(op):
    """sup|F| * sum |phi| |K| cell^2 with sup|F| = 1 for sin * sin."""
    return float(np.abs(op["xw"]) @ np.abs(op["kmat"]).sum(axis=1))


def abs_moment(p):
    """E|Z|^p for a standard normal Z."""
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def mollified_power_deriv(p, ell, delta, u):
    """(F^(ell) * rho_delta)(u) for F = |u|^p by adaptive quadrature.

    rho is the bump exp(1 - 1/(1 - t^2)) on (-1, 1) normalised to mass 1;
    the integrand t -> F^(ell)(u - delta t) has its kink at t = u / delta,
    so the integral is split there.
    """
    from scipy.integrate import quad

    c = math.prod(p - j for j in range(ell))

    def fd(v):
        return c * abs(v) ** (p - ell) * (math.copysign(1.0, v) if ell % 2 else 1.0)

    def rho(t):
        return math.exp(1.0 - 1.0 / (1.0 - t * t)) if abs(t) < 1.0 else 0.0

    kink = min(max(u / delta, -1.0), 1.0)
    num = 0.0
    for a, b in ((-1.0, kink), (kink, 1.0)):
        if b > a:
            num += quad(lambda t: fd(u - delta * t) * rho(t), a, b,
                        epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    mass = quad(rho, -1.0, 1.0, epsabs=1e-14, epsrel=1e-13)[0]
    return num / mass
