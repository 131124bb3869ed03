"""Singular integration kernels with Taylor renormalisation at the basepoint.

The base kernel is a positive profile with prescribed singularity
|x|^{-(|s|-gamma)}, smoothly cut off at a fixed radius.  The renormalised
kernel subtracts the Taylor polynomial of K0(. - y) at 0 up to order
r_e - 1, which improves the small-x behaviour to O(|x|^{r_e}).  The Taylor
depth follows ceil(gamma - alpha*m2/2) clamped at zero, with an explicit
override for the applications that fix it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import rng
from .geometry import ScalingGeometry, box_points, metric_many


DIAGONAL_CELLS = 1  # lattice steps around x = y that every quadrature drops


class SingularEvaluationError(ArithmeticError):
    """The kernel or its gradient was requested at a singular point."""


def compute_re(gamma: float, alpha: float, m2: int) -> int:
    """Taylor depth: ceil(gamma - alpha*m2/2), clamped at zero.

    The argument is snapped to the nearest integer within 1e-9 before the
    ceiling so float dust cannot flip a boundary case.
    """
    v = gamma - alpha * m2 / 2.0
    nearest = round(v)
    if abs(v - nearest) < 1e-9:
        v = nearest
    return max(int(math.ceil(v)), 0)


def _cutoff_parts(r, low: float, high: float):
    """Transition variable t = (high - r) / (high - low), the mask of
    0 < t < 1, and exp(-1/t), exp(-1/(1-t)) on that mask."""
    t = (high - np.asarray(r, dtype=float)) / (high - low)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    return t, mid, tm, np.exp(-1.0 / tm), np.exp(-1.0 / (1.0 - tm))


def smooth_cutoff(r, low: float, high: float):
    """C-infinity transition: 1 on r <= low, 0 on r >= high."""
    t, mid, _, f, g = _cutoff_parts(r, low, high)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    out[mid] = f / (f + g)
    return out


def _cutoff_slope(r, low: float, high: float):
    """d/dr of smooth_cutoff(r, low, high); zero off (low, high)."""
    t, mid, tm, f, g = _cutoff_parts(r, low, high)
    out = np.zeros_like(t)
    out[mid] = -f * g * (1.0 / tm**2 + 1.0 / (1.0 - tm) ** 2) \
        / ((f + g) ** 2 * (high - low))
    return out


@dataclass(frozen=True)
class RenormKernel:
    """Renormalised kernel built from a cut-off power profile.

    ``r_e`` may be derived from (gamma, alpha, m2) via :func:`compute_re`
    or set explicitly (the applications fix r_e = 1 directly in one case
    where the formula gives 0).
    """

    gamma: float
    g: ScalingGeometry
    r_e: int
    cutoff: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.gamma <= self.g.total / 2.0 + 1e-12):
            raise ValueError("smoothing order must lie in (0, |s|/2]")
        if self.r_e < 0 or self.r_e > 2:
            raise ValueError("supported Taylor depth is r_e in {0, 1, 2}")
        if not 0.0 < self.cutoff < math.inf:  # also rejects NaN
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff!r}")

    @property
    def singularity_power(self) -> float:
        return self.g.total - self.gamma


def _k0_of_radius(r: np.ndarray, k: RenormKernel) -> np.ndarray:
    """Base profile as a function of the metric radius r > 0."""
    chi = smooth_cutoff(r, 0.5 * k.cutoff, k.cutoff)
    return chi * r ** (-k.singularity_power)


def eval_K0_many(points: np.ndarray, k: RenormKernel) -> np.ndarray:
    """Base profile on an array of points; +inf at the origin."""
    r = metric_many(points, k.g)
    out = np.full_like(r, np.inf)
    pos = r != 0.0
    out[pos] = _k0_of_radius(r[pos], k)
    return out


def grad_K0_many(points: np.ndarray, k: RenormKernel) -> np.ndarray:
    """Gradient of the profile, shape (..., d).

    Both the power part and the cutoff factor differentiate analytically in
    the metric radius.
    """
    points = np.asarray(points, dtype=float)
    r = metric_many(points, k.g)
    if np.any(r == 0.0):
        raise SingularEvaluationError("gradient requested at the kernel singularity")
    p = k.singularity_power
    s = np.asarray(k.g.s)
    # d r / d x_i is supported on the axis achieving the sup
    contrib = np.abs(points) ** (1.0 / s)
    ax = np.argmax(contrib, axis=-1)
    dr = np.zeros_like(points)
    xa = np.take_along_axis(points, ax[..., None], axis=-1)[..., 0]
    sa = s[ax]
    dr_val = (1.0 / sa) * np.abs(xa) ** (1.0 / sa - 1.0) * np.sign(xa)
    np.put_along_axis(dr, ax[..., None], dr_val[..., None], axis=-1)
    chi = smooth_cutoff(r, 0.5 * k.cutoff, k.cutoff)
    dchi = _cutoff_slope(r, 0.5 * k.cutoff, k.cutoff)
    radial = (-p) * r ** (-p - 1.0) * chi + r ** (-p) * dchi
    return radial[..., None] * dr


def _pair_radii(x_points: np.ndarray, y_points: np.ndarray,
                g: ScalingGeometry):
    """Metric radius |x_i - y_j| of every pair as ``(values, codes)``: the
    radius of pair (i, j) is ``values[codes[i, j]]``, and ``codes`` is None
    when ``values`` is itself the (Nx, Ny) matrix.

    At d = 1 the radii come from the full difference array, as a table of
    distinct values would be as large as the pair set.  At d >= 2 each axis
    a gets a small table |ux - uy|^(1/s_a) over the distinct coordinates ux
    of x and uy of y on that axis, by ``metric_many`` on the differences
    embedded on axis a, so that each entry is bit-equal to that axis's term
    of the full metric.  The tables' values are merged into one sorted array
    (NaN last), and the radius of a pair is its largest per-axis code into it.
    """
    if g.d == 1:
        return metric_many(x_points[:, None, :] - y_points[None, :, :], g), None
    tables = []
    for a in range(g.d):
        ux, ix = np.unique(x_points[:, a], return_inverse=True)
        uy, iy = np.unique(y_points[:, a], return_inverse=True)
        diffs = np.zeros((len(ux), len(uy), g.d))
        diffs[..., a] = ux[:, None] - uy[None, :]
        tables.append((metric_many(diffs, g), ix, iy))
    values, inverse = np.unique(np.concatenate([t.ravel() for t, _, _ in tables]),
                                return_inverse=True)
    codes, start = None, 0
    for t, ix, iy in tables:
        table = inverse[start:start + t.size].reshape(t.shape)
        start += t.size
        axis_codes = table.take(ix, axis=0).take(iy, axis=1)
        codes = axis_codes if codes is None else \
            np.maximum(codes, axis_codes, out=codes)
    return values, codes


def eval_K_many(x_points: np.ndarray, y_points: np.ndarray, k: RenormKernel,
                step: float) -> np.ndarray:
    """Renormalised kernel on the product grid, shape (Nx, Ny), for quadrature.

    K(x, y) = K0(x - y) - [r_e >= 1] K0(-y) - [r_e >= 2] x . grad K0(-y).
    The exclusion rule of every quadrature that sums this matrix, on a grid
    of base step ``step``: a pair is set to 0 when |x - y| < DIAGONAL_CELLS
    * step, when x = y, and, at r_e >= 1, when y = 0, where the Taylor terms
    are singular.

    The pair radii are read off per-axis distance tables (see
    :func:`_pair_radii`), the profile K0 and the exclusion rule are taken
    once per distinct radius, and the Taylor terms, which depend on y alone,
    are subtracted as a row.  Every entry is bit-equal to the entry built
    from the full (Nx, Ny, d) difference array.
    """
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
    if x_points.shape[-1] != k.g.d or y_points.shape[-1] != k.g.d:
        raise ValueError(f"points have {x_points.shape[-1]} and "
                         f"{y_points.shape[-1]} coordinates, geometry has {k.g.d}")
    radii, codes = _pair_radii(x_points, y_points, k.g)
    keep = (radii >= DIAGONAL_CELLS * step) & (radii > 0.0)
    out = np.zeros_like(radii)
    out[keep] = _k0_of_radius(radii[keep], k)
    if codes is not None:
        out = out.take(codes)
    if k.r_e >= 1:
        if codes is not None:
            keep = keep.take(codes)
        off = np.any(y_points != 0.0, axis=1)
        keep &= off
        taylor = np.zeros(len(y_points))
        taylor[off] = eval_K0_many(-y_points[off], k)
        out -= taylor
        if k.r_e >= 2:
            grad = np.zeros_like(y_points)
            grad[off] = grad_K0_many(-y_points[off], k)
            out -= np.einsum("xi,yi->xy", x_points, grad)
        out[~keep] = 0.0
    return out


def eval_K_pairs(x_points: np.ndarray, y_points: np.ndarray,
                 k: RenormKernel) -> np.ndarray:
    """Renormalised kernel at the paired points (x_n, y_n), shape (n,).

    K(x, y) = K0(x - y) - [r_e >= 1] K0(-y) - [r_e >= 2] x . grad K0(-y),
    with no exclusion rule: any pair with x = y or, at r_e >= 1, y = 0
    raises SingularEvaluationError.
    """
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
    if np.any(np.all(x_points == y_points, axis=-1)) or \
            (k.r_e >= 1 and np.any(np.all(y_points == 0.0, axis=-1))):
        raise SingularEvaluationError("kernel requested at a singular pair")
    out = eval_K0_many(x_points - y_points, k)
    if k.r_e >= 1:
        out -= eval_K0_many(-y_points, k)
        if k.r_e >= 2:
            out -= np.einsum("ni,ni->n", x_points, grad_K0_many(-y_points, k))
    return out


@dataclass
class RegionBoundReport:
    r_e: int
    max_ratio: dict
    n_samples: int


def _region_bound(k: RenormKernel, rx: np.ndarray, ry: np.ndarray,
                  rxy: np.ndarray, region: str) -> np.ndarray:
    p = k.singularity_power
    if k.r_e == 0:
        return rxy ** (-p)
    if region == "far":
        return rx**k.r_e / ry ** (p + k.r_e)
    if region == "mid":
        return rxy ** (-p)
    return rx ** (k.r_e - 1) / ry ** (p + k.r_e - 1)


def check_region_bounds(k: RenormKernel, n_samples: int, seed: int = 0) -> RegionBoundReport:
    """Sampled sup of |K| against the per-region bound expressions.

    Regions (for r_e >= 1): |y| > 2|x|, |x|/2 < |y| <= 2|x|, |y| <= |x|/2.
    For r_e = 0 the single bound |x-y|^{gamma-|s|} applies everywhere.
    """
    if not isinstance(n_samples, Integral) or n_samples < 1:
        raise ValueError(f"n_samples must be at least 1 and an integer, got "
                         f"{n_samples!r}")
    gen = rng.substream(seed, rng.POINTS, 4)
    g = k.g
    x = box_points(gen, (n_samples,), g, 1.0)
    y = box_points(gen, (n_samples,), g, 2.0)
    rx = metric_many(x, g)
    ry = metric_many(y, g)
    rxy = metric_many(x - y, g)
    keep = (rx > 1e-9) & (ry > 1e-9) & (rxy > 1e-9)
    x, y, rx, ry, rxy = x[keep], y[keep], rx[keep], ry[keep], rxy[keep]
    vals = np.abs(eval_K_pairs(x, y, k))
    report: dict[str, float] = {}
    if k.r_e == 0:
        ratio = vals / _region_bound(k, rx, ry, rxy, "all")
        report["all"] = float(np.max(ratio))
    else:
        far = ry > 2 * rx
        mid = (ry <= 2 * rx) & (ry > rx / 2)
        near = ry <= rx / 2
        for name, mask in (("far", far), ("mid", mid), ("near", near)):
            if np.any(mask):
                ratio = vals[mask] / _region_bound(k, rx[mask], ry[mask], rxy[mask], name)
                report[name] = float(np.max(ratio))
    return RegionBoundReport(r_e=k.r_e, max_ratio=report, n_samples=int(np.sum(keep)))
