"""Anisotropic scaling geometry, lattices, test functions and point sampling.

The scaling vector ``s`` assigns one exponent per axis; the induced metric
is ``|x| = max_i |x_i|**(1/s_i)`` and the effective dimension is
``sum(s)``.  Test functions are smooth bumps rescaled so that the bump at
scale ``lam`` is supported in the metric ball of radius ``lam`` and carries
the prefactor ``lam**(-sum(s))``.  Every Monte Carlo check draws uniform
configurations with :func:`box_points` and measures them with
:func:`pair_distances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_POINT_BUDGET = 1 << 22


class ResourceBudgetError(RuntimeError):
    """Raised when a requested lattice exceeds the configured point budget."""


@dataclass(frozen=True)
class ScalingGeometry:
    """Per-axis scaling exponents with the induced sup-type metric."""

    s: tuple[float, ...]

    def __post_init__(self):
        s = tuple(float(v) for v in self.s)
        if len(s) == 0:
            raise ValueError("scaling vector must be non-empty")
        if any(v < 1.0 for v in s):
            raise ValueError("scaling exponents must all be >= 1")
        object.__setattr__(self, "s", s)

    @property
    def d(self) -> int:
        return len(self.s)

    @property
    def total(self) -> float:
        """Effective dimension: the sum of the scaling exponents."""
        return float(sum(self.s))


def metric_many(points: np.ndarray, g: ScalingGeometry) -> np.ndarray:
    """Vectorized metric over the last axis of ``points`` (shape (..., d)).

    The per-axis terms are taken by the array power ``** exps`` (a scalar
    exponent 0.5 would turn into ``sqrt``, which is not bit-equal to
    ``pow``) and their max by ``np.maximum`` column by column, which is
    exact, propagates NaN and avoids a strided reduction over a short axis.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[-1] != g.d:
        raise ValueError(f"points have {points.shape[-1]} coordinates, geometry has {g.d}")
    exps = 1.0 / np.asarray(g.s)
    terms = np.abs(points) ** exps
    r = terms[..., 0]
    for i in range(1, g.d):
        r = np.maximum(r, terms[..., i])
    return r


def pair_distances(points: np.ndarray, g: ScalingGeometry) -> np.ndarray:
    """Pairwise metric distances of points shaped (..., k, d): (..., k, k)."""
    diffs = points[..., :, None, :] - points[..., None, :, :]
    return metric_many(diffs, g)


def box_points(gen: np.random.Generator, shape: tuple[int, ...],
               g: ScalingGeometry, radius: float) -> np.ndarray:
    """Points uniform in the metric ball of the given radius, shape (*shape, d):
    uniform(-1, 1) times the per-axis half-width w_i = radius**s_i.  This is
    gen.uniform(-w_i, w_i) bit for bit when w_i is a power of two, and can
    differ from it by one ulp otherwise."""
    half = np.array([radius**si for si in g.s])
    return gen.uniform(-1.0, 1.0, size=(*shape, g.d)) * half


def box_volume(g: ScalingGeometry, radius: float) -> float:
    """Volume of the metric ball of the given radius: prod_i 2 radius**s_i."""
    return float(np.prod([2.0 * radius**si for si in g.s]))


def bump_of_gap(g):
    """The bump exp(1 - 1/g) as a function of the gap g = 1 - r^2 in (0, 1].

    ``bump_profile`` passes g = 1 - r^2; a caller that knows the distance
    z = 1 - |r| to the support's end passes g = z (2 - z), which keeps full
    relative precision there.
    """
    return np.exp(1.0 - 1.0 / g)


def bump_profile(r):
    """Standard smooth bump exp(1 - 1/(1-r^2)) on r < 1, zero outside; sup = 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = bump_of_gap(1.0 - ri * ri)
    return out


@dataclass(frozen=True)
class TestFunction:
    """A bump profile recentered at ``center`` and rescaled at ``scale``.

    The rescaled function is ``scale**(-|s|) * profile(u)`` where
    ``u_i = (y_i - center_i) / scale**(s_i)``; its support is the
    anisotropic ball of radius ``scale`` about ``center``.
    """

    geometry: ScalingGeometry
    scale: float
    center: tuple[float, ...] | None = None
    profile: object = None  # callable of the metric radius, sup-norm <= 1

    def __post_init__(self):
        if not (0.0 < self.scale <= 1.0):
            raise ValueError("test function scale must lie in (0, 1]")
        if self.center is None:
            object.__setattr__(self, "center", (0.0,) * self.geometry.d)
        else:
            c = tuple(float(v) for v in self.center)
            if len(c) != self.geometry.d:
                raise ValueError("center dimension mismatch")
            object.__setattr__(self, "center", c)
        if self.profile is None:
            object.__setattr__(self, "profile", bump_profile)


def eval_test_function_many(tf: TestFunction, points: np.ndarray) -> np.ndarray:
    """Rescaled test function on an array of points (shape (..., d))."""
    g = tf.geometry
    points = np.asarray(points, dtype=float)
    if points.shape[-1] != g.d:
        raise ValueError("point dimension mismatch")
    steps = tf.scale ** np.asarray(g.s)
    u = (points - np.asarray(tf.center)) / steps
    r = metric_many(u, ScalingGeometry(g.s))
    return tf.scale ** (-g.total) * tf.profile(r)


@dataclass(frozen=True)
class Lattice:
    """Regular grid with per-axis spacing ``h**s_i`` covering a centered box.

    Iteration order over points is fixed row-major over the axes so that
    deterministic reductions reproduce bit-for-bit.  Lattices are values:
    two are equal, and hash alike, when their geometry, base step and axes
    are, the axes compared bit for bit.
    """

    geometry: ScalingGeometry
    base_step: float
    axes: tuple[np.ndarray, ...] = field(repr=False)

    def _value(self) -> tuple:
        return (self.geometry, self.base_step,
                tuple((a.dtype.str, a.shape, a.tobytes()) for a in self.axes))

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self is other or self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    @property
    def steps(self) -> tuple[float, ...]:
        return tuple(float(self.base_step) ** si for si in self.geometry.s)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    @property
    def cell_volume(self) -> float:
        """Volume of one cell: base_step ** |s|."""
        return float(self.base_step) ** self.geometry.total

    def points(self) -> np.ndarray:
        """All lattice points, shape (prod(shape), d), row-major order."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([gr.reshape(-1) for gr in grids], axis=-1)


def build_lattice(g: ScalingGeometry, h: float, extent,
                  budget: int = DEFAULT_POINT_BUDGET) -> Lattice:
    """Lattice covering the centered box with per-axis half-width ``extent``.

    Each axis carries points ``k * h**s_i`` for integer k with
    ``|k * h**s_i| <= extent_i``.
    """
    if not 0.0 < h < np.inf:  # also rejects NaN
        raise ValueError(f"base step must be positive and finite, got h = {h!r}")
    ext = np.atleast_1d(np.asarray(extent, dtype=float))
    if len(ext) == 1 and g.d > 1:
        ext = np.full(g.d, ext[0])
    if len(ext) != g.d or not np.all((ext > 0) & np.isfinite(ext)):
        raise ValueError(f"extent must be positive and finite per axis, got {extent!r}")
    counts = [2 * int(np.floor(ei / h ** si + 1e-12)) + 1 for si, ei in zip(g.s, ext)]
    return lattice_from_counts(g, h, counts, budget)


def lattice_from_counts(g: ScalingGeometry, h: float, counts,
                        budget: int = DEFAULT_POINT_BUDGET) -> Lattice:
    """Lattice with an explicit point count per axis (centered at 0).

    Used when an exact grid size matters more than an exact box, e.g. a
    power-of-two axis for spectral synthesis.
    """
    if not 0.0 < h < np.inf:  # also rejects NaN
        raise ValueError(f"base step must be positive and finite, got h = {h!r}")
    counts = [int(c) for c in np.atleast_1d(counts)]
    if len(counts) == 1 and g.d > 1:
        counts *= g.d
    if len(counts) != g.d or min(counts) < 1:
        raise ValueError("counts must be positive per axis")
    # Python ints: an int64 product of large counts wraps round
    total = math.prod(counts)
    if total > budget:
        raise ResourceBudgetError(f"lattice would have {total} points, budget {budget}")
    axes = []
    for si, ni in zip(g.s, counts):
        step = h ** si
        axes.append((np.arange(ni) - ni // 2) * step)
    return Lattice(geometry=g, base_step=float(h), axes=tuple(axes))
