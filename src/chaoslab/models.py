"""Finite-scale renormalised model objects for the two target equations.

Fields are drawn by the periodic synthesiser of :mod:`field`: periodic FFT
convolution of lattice white noise with a truncated heat-kernel stencil,
the spatial-derivative kernel for the interface-growth family (parabolic
scaling (2,1)) and the plain kernel for the phase-coexistence family
(scaling (2,1,1,1)).  The noise mollifier is a product bump, even in every
spatial coordinate, and the stencil variance is exact.

Every object is a rung of one ladder,

    object_j(z) = (j! / (k! a eps^{j/2})) * F^(k-j)(sqrt(eps) field(z)) - c_j

with k the order of the family's nonlinearity: 2 for interface growth, 3
for phase coexistence.  c_0 = 1, odd j need no constant, c_2 is the
Gaussian mean of object 2' before its constant, taken by the fixed rule of
:func:`nonlinearity.gaussian_mean` (one array call of F^(k-2), within about
1e-15 of E|F^(k-2)|) at the exact stencil variance, and the top object 3'
subtracts 3 c_2 field(z).
``_ladder`` is the one place that applies the prefactors and the
constants, and it takes c_2 once per ladder, only when a rung above 1'
needs it; the studies read their objects from it:

- the two-frequency object pairs object k' on the kernel side with object
  (k-1)' outside it (F and F' for growth, 3' and 2' for phase
  coexistence), both with the one c_2 of their nonlinearity;
- the mollification gap is object 1' of F minus object 1' of F mollified.

For a polynomial nonlinearity every object collapses to its exact
Wick-polynomial form, which is the strongest oracle in this module.

The two-frequency objects use the r_e = 1 kernel K0(x - y) - K0(0 - y): the
Taylor term sits at the basepoint x = 0, the centre index n // 2 of the
lattice arrays (index 0 is the lattice corner).  The kernel is transformed
once per field, by :func:`build_model_field`, and the pairing reuses that
transform: no singular origin cell needs dropping, because the heat kernel
has no support at t <= 0 and so is already 0 there.  Studies synthesise
draws a block at a time but evaluate objects one draw at a time; over a
whole block the temporaries made a call slower and larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral

import numpy as np

from . import rng
from .field import SAMPLE_CHUNK, synthesise
from .geometry import Lattice, ScalingGeometry, TestFunction, bump_profile, \
    eval_test_function_many, lattice_from_counts, metric_many
from .kernel import smooth_cutoff
from .nonlinearity import Derivative, NonlinearitySpec, gaussian_mean, mollify
from .stats import MomentEstimate, _check_half_order, moment_norm

KPZ_GEOMETRY = ScalingGeometry((2.0, 1.0))
PHI4_GEOMETRY = ScalingGeometry((2.0, 1.0, 1.0, 1.0))

_FAMILY_ORDER = {"kpz": 2, "phi43": 3}


@dataclass(frozen=True)
class ModelFieldSpec:
    """Lattice, mollification scale and truncation for one family's field."""

    family: str
    epsilon: float
    h: float
    counts: tuple[int, ...]
    kernel_cut: float = 0.5

    def __post_init__(self):
        if self.family not in _FAMILY_ORDER:
            raise ValueError("family must be 'kpz' or 'phi43'")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.kernel_cut < math.inf:  # also rejects NaN
            raise ValueError(f"kernel_cut must be positive and finite, got "
                             f"{self.kernel_cut!r}")

    @property
    def geometry(self) -> ScalingGeometry:
        return KPZ_GEOMETRY if self.family == "kpz" else PHI4_GEOMETRY

    def lattice(self) -> Lattice:
        return lattice_from_counts(self.geometry, self.h, self.counts)


def heat_kernel(points: np.ndarray, derivative: bool) -> np.ndarray:
    """Heat kernel (optionally d/dx of it) at space-time points (t, x...)."""
    points = np.asarray(points, dtype=float)
    t = points[..., 0]
    space = points[..., 1:]
    dsp = space.shape[-1]
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    r2 = np.sum(space[pos] ** 2, axis=-1)
    base = (4.0 * math.pi * tp) ** (-dsp / 2.0) * np.exp(-r2 / (4.0 * tp))
    if derivative:
        base = base * (-space[pos, 0] / (2.0 * tp))
    out[pos] = base
    return out


def _cut_heat_kernel(spec: ModelFieldSpec, lat: Lattice) -> np.ndarray:
    """The family's heat-kernel profile, smoothly cut off at spec.kernel_cut,
    on the lattice sites (centred, lattice-shaped)."""
    g = lat.geometry
    pts = lat.points().reshape(lat.shape + (g.d,))
    kern = heat_kernel(pts, derivative=spec.family == "kpz")
    return kern * smooth_cutoff(metric_many(pts, g), 0.5 * spec.kernel_cut,
                                spec.kernel_cut)


def _to_origin(grid: np.ndarray) -> np.ndarray:
    """Roll a centred lattice array so its centre sits at index 0, the
    origin of the periodic FFT convolution."""
    return np.roll(grid, [-(n // 2) for n in grid.shape],
                   axis=tuple(range(grid.ndim)))


def _mollifier_grid(lat: Lattice, eps: float) -> np.ndarray:
    """Product-bump mollifier at scale eps on the lattice, discrete mass 1.

    Even in every coordinate by construction (the growth family requires
    spatial symmetry of the mollifier).
    """
    g = lat.geometry
    axes = []
    for si, ax in zip(g.s, lat.axes):
        axes.append(bump_profile(ax / eps**si))
    grid = axes[0]
    for a in axes[1:]:
        grid = np.multiply.outer(grid, a)
    mass = float(np.sum(grid)) * lat.cell_volume
    if mass <= 0:
        raise ValueError("mollifier unresolved at this lattice step")
    return grid / mass


@dataclass(frozen=True)
class ModelField:
    """Kernel and stencil transforms and exact variance for one family's
    synthesized field."""

    spec: ModelFieldSpec
    lattice: Lattice
    kernel_fft: np.ndarray = field(repr=False)
    stencil_fft: np.ndarray = field(repr=False)
    var_raw: float

    @property
    def sigma2(self) -> float:
        """Exact variance of sqrt(eps) * field (alpha = 1 in both families)."""
        return self.spec.epsilon * self.var_raw


def build_model_field(spec: ModelFieldSpec) -> ModelField:
    lat = spec.lattice()
    # periodic convolution of kernel and mollifier, both centered at index 0
    kernel_fft = np.fft.fftn(_to_origin(_cut_heat_kernel(spec, lat)))
    stencil_fft = kernel_fft \
        * np.fft.fftn(_to_origin(_mollifier_grid(lat, spec.epsilon))) \
        * lat.cell_volume
    var_raw = float(np.sum(np.abs(stencil_fft) ** 2)) / stencil_fft.size \
        * lat.cell_volume
    return ModelField(spec=spec, lattice=lat, kernel_fft=kernel_fft,
                      stencil_fft=stencil_fft, var_raw=var_raw)


def sample_model_field_values(mf: ModelField, seed: int, indices) -> np.ndarray:
    """Batched draws, shape (len(indices), *lattice.shape).  White noise of
    density 1/sqrt(cell volume) per cell meets a stencil sum carrying one
    cell volume, leaving a net sqrt(cell volume).  The field is periodic on
    its own lattice, so the window is the whole stencil."""
    return math.sqrt(mf.lattice.cell_volume) * next(synthesise(
        [mf.stencil_fft], mf.stencil_fft.shape, seed, rng.MODEL, indices))


# ---------------------------------------------------------------------------
# renormalised first-order objects


def _ladder(fl: NonlinearitySpec, a: float, mf: ModelField, rungs) -> list:
    """Object j' of one draw, as a function of the draw, for each j in rungs:
    the ladder's prefactor times F^(k-j) of sqrt(eps) field, less the
    constant of its slot (1 for 0', none for 1', c2 for 2', 3 c2 field for
    3').  The family and eps are the field's; c2 is taken once, and only
    when a rung above 1' is read."""
    eps = mf.spec.epsilon
    k = _FAMILY_ORDER[mf.spec.family]
    pref = [math.factorial(j) / (math.factorial(k) * a * eps ** (j / 2.0))
            for j in range(k + 1)]
    c2 = pref[2] * gaussian_mean(Derivative(fl, k - 2), mf.sigma2) \
        if max(rungs) > 1 else None

    def rung(j, values):
        out = pref[j] * fl.deriv(k - j, math.sqrt(eps) * values)
        if j == 0:
            return out - 1.0
        if j == 2:
            return out - c2
        if j == 3:
            return out - 3.0 * c2 * values
        return out

    return [partial(rung, j) for j in rungs]


# ---------------------------------------------------------------------------
# negative Holder norms


@dataclass
class HolderNormEstimate:
    alpha: float
    value: float
    levels: list[float]
    per_level: list[float]


def _bump(lat: Lattice, lam: float) -> np.ndarray:
    """The test-function bump at scale lam, centred, lattice-shaped."""
    pts = lat.points().reshape(lat.shape + (lat.geometry.d,))
    return eval_test_function_many(TestFunction(geometry=lat.geometry,
                                                scale=lam), pts)


_HOLDER_LAM0 = 0.5  # largest probe scale of holder_norm


def holder_norm(values: np.ndarray, lat: Lattice, alpha: float,
                lambda_levels: int = 4) -> HolderNormEstimate:
    """Single-probe lower bound of the negative Holder norm.

    Max over dyadic scales and all lattice centers of
    lam^{-alpha} |<f, bump_lam_z>|, with the pairing done by periodic FFT
    correlation (the synthesized fields are periodic).  Refining the grid of
    scales or centers never lowers the estimate.  ValueError unless alpha is
    negative, lambda_levels is an integer >= 1, ``values`` is finite and of
    the lattice's shape, and the lattice resolves the largest scale (its
    base step at most half of it); finer scales the lattice cannot resolve
    are left out.
    """
    if not -math.inf < alpha < 0.0:  # also rejects NaN
        raise ValueError(f"this norm is for finite negative regularity "
                         f"exponents, got alpha = {alpha!r}")
    if not isinstance(lambda_levels, Integral) or lambda_levels < 1:
        raise ValueError(f"lambda_levels must be at least 1 and an integer, "
                         f"got {lambda_levels!r}")
    if np.shape(values) != lat.shape:
        raise ValueError(f"values must have the lattice shape {lat.shape}, "
                         f"got {np.shape(values)}")
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ValueError(f"values must be finite: {bad} of {np.size(values)} "
                         "are not")
    if _HOLDER_LAM0 < 2 * lat.base_step:
        raise ValueError(f"base step {lat.base_step:g} cannot resolve the largest "
                         f"probe scale {_HOLDER_LAM0:g} (needs step <= "
                         f"{_HOLDER_LAM0 / 2:g})")
    values_fft = np.fft.fftn(values)
    per_level = []
    levels = []
    for k in range(lambda_levels):
        lam = _HOLDER_LAM0 * 2.0 ** (-k)
        if lam < 2 * lat.base_step:
            break
        probe0 = _to_origin(_bump(lat, lam))
        pair = np.real(np.fft.ifftn(values_fft
                                    * np.conj(np.fft.fftn(probe0)))) \
            * lat.cell_volume
        level_val = float(np.max(np.abs(pair)) * lam ** (-alpha))
        levels.append(lam)
        per_level.append(level_val)
    return HolderNormEstimate(alpha=alpha, value=max(per_level),
                              levels=levels, per_level=per_level)


# ---------------------------------------------------------------------------
# two-frequency remainder pairings and the mollification gap


def _two_freq_object(fl: NonlinearitySpec, a: float, mf: ModelField):
    """The object outer(x) * sum_y (K0(x - y) - K0(0 - y)) inner(y) over the
    lattice, as a function of one draw, with inner and outer the family's
    objects k' (the kernel side) and (k-1)'."""
    k = _FAMILY_ORDER[mf.spec.family]
    inner, outer = _ladder(fl, a, mf, [k, k - 1])
    cell = mf.lattice.cell_volume
    centre = tuple(n // 2 for n in mf.lattice.shape)

    def obj(values):
        # no cell y = x to drop: the heat kernel is 0 at t <= 0
        conv = np.real(np.fft.ifftn(np.fft.fftn(inner(values)) * mf.kernel_fft)) \
            * cell
        # Taylor (r_e = 1) part: the convolution at the basepoint x = 0
        return outer(values) * (conv - conv[centre])

    return obj


def _gap_study(nonlin: NonlinearitySpec, a: float, mfspec: ModelFieldSpec,
               delta: float, lam: float, n: int, n_samples: int, seed: int,
               tag: int, make_object) -> MomentEstimate:
    """Moment norm, over draws 0, ..., n_samples - 1 synthesised in blocks,
    of the pairing of make_object(F) - make_object(F mollified at delta)
    with the bump at scale lam.  make_object(fl, a, field) maps one draw to
    a lattice array; the field and the bump are built once.  Bad arguments
    raise before either is built."""
    _check_half_order(n)
    if not isinstance(n_samples, Integral) or n_samples < 1:
        raise ValueError(f"n_samples must be at least 1 and an integer, got "
                         f"{n_samples!r}")
    if not (math.isfinite(a) and a != 0.0):
        raise ValueError(f"a must be finite and non-zero, got {a!r}")
    if mfspec.epsilon < 2 * mfspec.h:
        raise ValueError("resolution guard: eps >= 2h required")
    mf = build_model_field(mfspec)
    phi = _bump(mf.lattice, lam)
    cell = mf.lattice.cell_volume
    exact = make_object(nonlin, a, mf)
    smooth = make_object(mollify(nonlin, delta), a, mf)
    out = []
    for lo in range(0, n_samples, SAMPLE_CHUNK):
        indices = np.arange(lo, min(lo + SAMPLE_CHUNK, n_samples))
        out += [float(np.sum(phi * (exact(values) - smooth(values))) * cell)
                for values in sample_model_field_values(mf, seed, indices)]
    return moment_norm(np.array(out), n, seed=seed, tag=tag)


def remainder_pairing(family: str, nonlin: NonlinearitySpec, a: float,
                      mfspec: ModelFieldSpec, delta: float, lam: float,
                      n: int, n_samples: int, seed: int = 0) -> MomentEstimate:
    """Moment norm of the pairing of (object - mollified object) with a bump.

    Both objects are evaluated directly from the nonlinearity; the mollified
    version replaces it by its bump convolution at scale delta everywhere,
    including the renormalisation constants.  delta = 0 gives exactly zero.
    The constants do not depend on the draw and are computed once per call.
    family must be mfspec.family, the field's own; ValueError otherwise.
    """
    if family != mfspec.family:
        raise ValueError(f"family {family!r} does not match the field's "
                         f"family {mfspec.family!r}")
    return _gap_study(nonlin, a, mfspec, delta, lam, n, n_samples, seed, 11,
                      _two_freq_object)


def mollification_gap(nonlin: NonlinearitySpec, a: float, mfspec: ModelFieldSpec,
                      delta: float, lam: float, n: int, n_samples: int,
                      seed: int = 0) -> MomentEstimate:
    """Moment norm of the single-frequency mollification gap pairing.

    Growth family only: object 1' of F minus object 1' of its
    delta-mollified version, paired against the bump at scale lam.
    """
    if mfspec.family != "kpz":
        raise ValueError("the mollification-gap experiment is for the growth family")
    return _gap_study(nonlin, a, mfspec, delta, lam, n, n_samples, seed, 12,
                      lambda fl, a, mf: _ladder(fl, a, mf, [1])[0])
