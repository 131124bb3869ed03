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
``_object_field`` is the one place that applies the prefactor and the
constants; the studies read their objects from it:

- the two-frequency object pairs object k' on the kernel side with object
  (k-1)' outside it (F and F' for growth, 3' and 2' for phase
  coexistence), both with the one c_2 of their nonlinearity;
- the mollification gap is object 1' of F minus object 1' of F mollified.

For a polynomial nonlinearity every object collapses to its exact
Wick-polynomial form, which is the strongest oracle in this module.

The two-frequency objects use the r_e = 1 kernel K0(x - y) - K0(0 - y): the
Taylor term sits at the basepoint x = 0, the centre index n // 2 of the
lattice arrays (index 0 is the lattice corner).  Studies synthesise draws a
block at a time but evaluate objects one draw at a time; over a whole block
the temporaries made a call slower and larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .field import SAMPLE_CHUNK, synthesise
from .geometry import Lattice, ScalingGeometry, TestFunction, bump_profile, \
    eval_test_function_many, lattice_from_counts, metric_many
from .kernel import smooth_cutoff
from .nonlinearity import Derivative, NonlinearitySpec, gaussian_mean, mollify
from .stats import MomentEstimate, moment_norm

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

    @property
    def geometry(self) -> ScalingGeometry:
        return KPZ_GEOMETRY if self.family == "kpz" else PHI4_GEOMETRY

    def lattice(self) -> Lattice:
        return lattice_from_counts(self.geometry, self.h, self.counts)


def heat_kernel(points: np.ndarray, g: ScalingGeometry, derivative: bool) -> np.ndarray:
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
    kern = heat_kernel(pts, g, derivative=spec.family == "kpz")
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
    """Stencil and exact variance for one family's synthesized field."""

    spec: ModelFieldSpec
    lattice: Lattice
    stencil_fft: np.ndarray = field(repr=False)
    var_raw: float

    @property
    def sigma2(self) -> float:
        """Exact variance of sqrt(eps) * field (alpha = 1 in both families)."""
        return self.spec.epsilon * self.var_raw


def build_model_field(spec: ModelFieldSpec) -> ModelField:
    lat = spec.lattice()
    # periodic convolution of kernel and mollifier, both centered at index 0
    stencil_fft = np.fft.fftn(_to_origin(_cut_heat_kernel(spec, lat))) \
        * np.fft.fftn(_to_origin(_mollifier_grid(lat, spec.epsilon))) \
        * lat.cell_volume
    var_raw = float(np.sum(np.abs(stencil_fft) ** 2)) / stencil_fft.size \
        * lat.cell_volume
    return ModelField(spec=spec, lattice=lat, stencil_fft=stencil_fft,
                      var_raw=var_raw)


def sample_model_field_values(mf: ModelField, seed: int, indices) -> np.ndarray:
    """Batched draws, shape (len(indices), *lattice.shape).  White noise of
    density 1/sqrt(cell volume) per cell meets a stencil sum carrying one
    cell volume, leaving a net sqrt(cell volume)."""
    return math.sqrt(mf.lattice.cell_volume) * next(synthesise(
        [mf.stencil_fft], seed, rng.MODEL, indices))


def _per_draw(mf: ModelField, seed: int, n_samples: int, fn) -> np.ndarray:
    """fn(draw) for draws 0, ..., n_samples - 1, synthesised in blocks."""
    out = []
    for lo in range(0, n_samples, SAMPLE_CHUNK):
        indices = np.arange(lo, min(lo + SAMPLE_CHUNK, n_samples))
        out += [fn(values) for values in sample_model_field_values(mf, seed, indices)]
    return np.array(out)


# ---------------------------------------------------------------------------
# renormalised first-order objects


@dataclass(frozen=True)
class ModelObjectSpec:
    family: str
    symbol: str  # "0'", "1'", "2'", "3'"
    nonlinearity: NonlinearitySpec
    a: float
    epsilon: float

    def __post_init__(self):
        if self.family not in _FAMILY_ORDER:
            raise ValueError("family must be 'kpz' or 'phi43'")
        j = self.order
        k = _FAMILY_ORDER[self.family]
        if not (0 <= j <= k):
            raise ValueError(f"symbol {self.symbol!r} not available for {self.family}")

    @property
    def order(self) -> int:
        if not self.symbol.endswith("'"):
            raise ValueError("symbols are of the form \"j'\"")
        return int(self.symbol[:-1])


def _object_prefactor(spec: ModelObjectSpec) -> float:
    j = spec.order
    k = _FAMILY_ORDER[spec.family]
    return math.factorial(j) / (math.factorial(k) * spec.a
                                * spec.epsilon ** (j / 2.0))


def renorm_constant(spec: ModelObjectSpec, sigma2: float) -> float:
    """The ladder's constant c_2 for the spec's family and nonlinearity (its
    symbol aside): the Gaussian mean of object 2' before its constant, at
    the exact variance sigma2 of sqrt(eps) * field."""
    k = _FAMILY_ORDER[spec.family]
    return _object_prefactor(replace(spec, symbol="2'")) * gaussian_mean(
        Derivative(spec.nonlinearity, k - 2), sigma2)


def eval_object_field(spec: ModelObjectSpec, mf: ModelField,
                      values: np.ndarray) -> np.ndarray:
    """Renormalised object on the whole lattice for one field draw."""
    c2 = renorm_constant(spec, mf.sigma2) if spec.order >= 2 else 0.0
    return _object_field(spec, values, c2)


def _object_field(spec: ModelObjectSpec, values: np.ndarray, c2: float) -> np.ndarray:
    """object_j of one draw: the ladder's prefactor times F^(k-j), less the
    constant of its slot (1 for 0', none for 1', c2 for 2', 3 c2 field for
    3')."""
    j = spec.order
    k = _FAMILY_ORDER[spec.family]
    x = math.sqrt(spec.epsilon) * values
    out = _object_prefactor(spec) * spec.nonlinearity.deriv(k - j, x)
    if j == 0:
        return out - 1.0
    if j == 2:
        return out - c2
    if j == 3:
        return out - 3.0 * c2 * values
    return out


def eval_object(spec: ModelObjectSpec, mf: ModelField, values: np.ndarray,
                z) -> float:
    """Pointwise value at the lattice site nearest to z; ValueError unless z
    has one coordinate per axis, each within half a step of the lattice."""
    lat = mf.lattice
    z = np.asarray(z, dtype=float)
    if z.shape != (len(lat.axes),):
        raise ValueError(f"z needs {len(lat.axes)} coordinates, got shape {z.shape}")
    idx = tuple(int(np.argmin(np.abs(ax - zi))) for ax, zi in zip(lat.axes, z))
    if not all(abs(ax[i] - zi) <= 0.5 * step
               for ax, i, zi, step in zip(lat.axes, idx, z, lat.steps)):
        raise ValueError(f"z = {tuple(z)} lies outside the lattice")
    return float(eval_object_field(spec, mf, values)[idx])


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
    scales or centers never lowers the estimate.
    """
    if alpha >= 0:
        raise ValueError("this norm is for negative regularity exponents")
    per_level = []
    levels = []
    for k in range(lambda_levels):
        lam = _HOLDER_LAM0 * 2.0 ** (-k)
        if lam < 2 * lat.base_step:
            break
        probe0 = _to_origin(_bump(lat, lam))
        pair = np.real(np.fft.ifftn(np.fft.fftn(values)
                                    * np.conj(np.fft.fftn(probe0)))) \
            * lat.cell_volume
        level_val = float(np.max(np.abs(pair)) * lam ** (-alpha))
        levels.append(lam)
        per_level.append(level_val)
    return HolderNormEstimate(alpha=alpha, value=max(per_level, default=0.0),
                              levels=levels, per_level=per_level)


# ---------------------------------------------------------------------------
# two-frequency remainder pairings and the mollification gap


def _two_freq_parts(family: str, fl: NonlinearitySpec, a: float,
                    mf: ModelField):
    """(inner, outer) of the two-frequency object: the family's objects k'
    (the kernel side) and (k-1)', each mapping one draw to a lattice array.
    The one constant c_2 is computed here, once."""
    k = _FAMILY_ORDER[family]
    top = ModelObjectSpec(family=family, symbol=f"{k}'", nonlinearity=fl, a=a,
                          epsilon=mf.spec.epsilon)
    below = replace(top, symbol=f"{k - 1}'")
    c2 = renorm_constant(top, mf.sigma2)
    return (lambda values: _object_field(top, values, c2),
            lambda values: _object_field(below, values, c2))


def _pairing_kernel_fft(mf: ModelField) -> np.ndarray:
    """FFT of K0, the family's cut heat-kernel profile with the singular
    cell at the origin dropped."""
    kern0 = _to_origin(_cut_heat_kernel(mf.spec, mf.lattice))
    kern0[(0,) * kern0.ndim] = 0.0  # diagonal exclusion
    return np.fft.fftn(kern0)


def _two_freq_object(values: np.ndarray, kern_fft: np.ndarray,
                     cell_volume: float, inner, outer) -> np.ndarray:
    """One draw of the object outer(x) * sum_y (K0(x - y) - K0(0 - y))
    inner(y) over the lattice."""
    conv = np.real(np.fft.ifftn(np.fft.fftn(inner(values)) * kern_fft)) \
        * cell_volume
    # Taylor (r_e = 1) part: the convolution at the basepoint x = 0
    taylor = conv[tuple(n // 2 for n in conv.shape)]
    return outer(values) * (conv - taylor)


def _probe_setup(mfspec: ModelFieldSpec, lam: float):
    """Model field of a study and the bump at scale lam on its lattice."""
    if mfspec.epsilon < 2 * mfspec.h:
        raise ValueError("resolution guard: eps >= 2h required")
    mf = build_model_field(mfspec)
    return mf, _bump(mf.lattice, lam)


def remainder_pairing(family: str, nonlin: NonlinearitySpec, a: float,
                      mfspec: ModelFieldSpec, delta: float, lam: float,
                      n: int, n_samples: int, seed: int = 0) -> MomentEstimate:
    """Moment norm of the pairing of (object - mollified object) with a bump.

    Both objects are evaluated directly from the nonlinearity; the mollified
    version replaces it by its bump convolution at scale delta everywhere,
    including the renormalisation constants.  delta = 0 gives exactly zero.
    The constants do not depend on the draw and are computed once per call.
    """
    mf, phi = _probe_setup(mfspec, lam)
    cell = mf.lattice.cell_volume
    kern_fft = _pairing_kernel_fft(mf)
    parts = _two_freq_parts(family, nonlin, a, mf)
    parts_d = _two_freq_parts(family, mollify(nonlin, delta), a, mf)

    def pairing(values):
        tau = _two_freq_object(values, kern_fft, cell, *parts)
        tau_d = _two_freq_object(values, kern_fft, cell, *parts_d)
        return float(np.sum(phi * (tau - tau_d)) * cell)

    return moment_norm(_per_draw(mf, seed, n_samples, pairing), n, seed=seed,
                       tag=11)


def mollification_gap(nonlin: NonlinearitySpec, a: float, mfspec: ModelFieldSpec,
                      delta: float, lam: float, n: int, n_samples: int,
                      seed: int = 0) -> MomentEstimate:
    """Moment norm of the single-frequency mollification gap pairing.

    Growth family only: object 1' of F minus object 1' of its
    delta-mollified version, paired against the bump at scale lam.
    """
    if mfspec.family != "kpz":
        raise ValueError("the mollification-gap experiment is for the growth family")
    mf, phi = _probe_setup(mfspec, lam)
    cell = mf.lattice.cell_volume
    one = ModelObjectSpec(family="kpz", symbol="1'", nonlinearity=nonlin, a=a,
                          epsilon=mfspec.epsilon)
    one_d = replace(one, nonlinearity=mollify(nonlin, delta))

    def pairing(values):
        gap = _object_field(one, values, 0.0) - _object_field(one_d, values, 0.0)
        return float(np.sum(phi * gap) * cell)

    return moment_norm(_per_draw(mf, seed, n_samples, pairing), n, seed=seed,
                       tag=12)
