"""The isolated-point test and the Monte Carlo volume estimates.

A configuration of 2n points is 'separated' when at least one point is
farther than the clustering scale from every other in the anisotropic
metric.  That event is decided in one place, :func:`has_isolated_point`,
from pairwise distances, and every routine of the package that needs it
calls it.  The complement of the event carries small volume, which the
Monte Carlo estimators here quantify: :func:`volume_Sc` against the product
bound (eps ^ n|s|) * (lambda ^ n|s|) up to a single constant,
:func:`volume_lemma_check` for the kernel's two restricted-volume
integrals, and :func:`partition_sum_check` for the decomposition of the
complement into chain-connected blocks.  Their uniform configurations come
from one batch loop, ``_box_batches``; the near part of
:func:`volume_lemma_check` draws its n_mc importance samples at once and
tests them in slices of the same batch size.  All reject a scale or grid
that is empty, not finite or not positive before drawing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import rng
from .geometry import ScalingGeometry, box_points, box_volume, pair_distances
from .kernel import RenormKernel


def has_isolated_point(dist: np.ndarray, scale: float) -> np.ndarray:
    """Per configuration: is some point farther than ``scale`` from every other?

    ``dist`` holds pairwise distances, shape (..., k, k); it is not modified.
    The result has shape (...).
    """
    off = np.where(np.eye(dist.shape[-1], dtype=bool), np.inf, dist)
    return np.any(np.min(off, axis=-1) > scale, axis=-1)


@dataclass
class VolumeEstimate:
    volume: float
    ci: tuple[float, float]
    bound: float
    n_mc: int
    hits: int


_MC_BATCH = 50_000


def _check_mc(n: int, L: float, n_mc: int, **scales):
    """ValueError for no configurations or points, or a non-integer count
    of either, a scale constant L that is not positive, or a named scale (a
    number or a grid of them) that is empty, not finite or not positive."""
    if not isinstance(n_mc, Integral) or n_mc < 1:
        raise ValueError(f"n_mc must be positive and an integer, got {n_mc!r}")
    if not isinstance(n, Integral) or n < 1 or not L > 0:  # also rejects NaN
        raise ValueError(f"need an integer n >= 1 and L > 0, got n = {n!r}, "
                         f"L = {L}")
    for name, value in scales.items():
        grid = np.atleast_1d(np.asarray(value, dtype=float))
        if grid.size == 0:
            raise ValueError(f"{name} is empty")
        if not np.all((grid > 0.0) & np.isfinite(grid)):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _box_batches(gen: np.random.Generator, n_pts: int, n_mc: int,
                 g: ScalingGeometry, radius: float):
    """Yield (configs, distances) of n_mc uniform configurations of n_pts points
    in the metric ball of the given radius, _MC_BATCH at a time, walking ``gen``
    as one draw of all n_mc would; a consumer drops both before the next."""
    for lo in range(0, n_mc, _MC_BATCH):
        configs = box_points(gen, (min(_MC_BATCH, n_mc - lo), n_pts), g, radius)
        yield configs, pair_distances(configs, g)


def volume_Sc(n: int, eps: float, lam: float, g: ScalingGeometry, n_mc: int,
              L: float = 1.0, seed: int = 0) -> VolumeEstimate:
    """Monte Carlo volume of the no-isolated-point event inside the 2*lam ball.

    2n points are drawn uniformly in the metric ball of radius 2*lam; the hit
    rate against the clustering scale L*eps is scaled by the box volume.  The
    returned bound is (eps ^ n|s|) * (lam ^ n|s|) with eps capped at lam, for
    ratio reporting.
    """
    _check_mc(n, L, n_mc, eps=eps, lam=lam)
    gen = rng.substream(seed, rng.POINTS, 1)
    n_pts = 2 * n
    hits = 0
    for configs, dist in _box_batches(gen, n_pts, n_mc, g, 2.0 * lam):
        hits += int(np.sum(~has_isolated_point(dist, L * eps)))
        del configs, dist
    total_vol = box_volume(g, 2.0 * lam) ** n_pts
    p = hits / n_mc
    se = math.sqrt(max(p * (1 - p), 1e-12) / n_mc)
    bound = (min(eps, lam) ** (n * g.total)) * (lam ** (n * g.total))
    return VolumeEstimate(volume=p * total_vol,
                          ci=((p - 3 * se) * total_vol, (p + 3 * se) * total_vol),
                          bound=bound, n_mc=n_mc, hits=hits)


@dataclass
class VolumeLemmaRow:
    eps: float
    lam: float
    integral_far: float
    bound_far: float
    integral_near: float | None
    bound_near: float | None


@dataclass
class VolumeLemmaReport:
    rows: list[VolumeLemmaRow]
    max_ratio_far: float
    max_ratio_near: float | None
    r_e: int


def volume_lemma_check(n: int, kern: RenormKernel, eps_grid, lambda_grid,
                       alpha: float, m2: int, n_mc: int = 200_000,
                       eta: float = 0.1, L: float = 1.0, y_radius: float = 2.0,
                       seed: int = 0) -> VolumeLemmaReport:
    """Monte Carlo check of the two restricted-volume integrals.

    The far integral (|y_i| >= 2 lam, exponent |s|-gamma+r_e) is sampled
    uniformly; the near one (|y_i| <= 2 lam, exponent |s|-gamma+r_e-1, only
    for r_e >= 1) importance-samples each coordinate from its own integrand,
    which makes the weight constant and the estimator an indicator mean.
    Bounds: lam^{2n(gamma-r_e-eta)} (eps/lam)^{n alpha m2} for the far part
    and (eps ^ lam)^{2n(gamma-r_e+1-eta)} for the near part.  The far
    sampler draws as gen.uniform(-y_radius, y_radius) bit for bit when
    y_radius is a power of two (see :func:`geometry.box_points`).
    """
    g = kern.g
    if g.s != (1.0,):
        raise NotImplementedError(
            "volume lemma sampling is implemented for d = 1 with s = (1,)")
    if 2 * n > 4:
        raise ValueError("volume lemma budget is 2n <= 4")
    _check_mc(n, L, n_mc, eps_grid=eps_grid, lambda_grid=lambda_grid)
    q_far = g.total - kern.gamma + kern.r_e
    q_near = g.total - kern.gamma + kern.r_e - 1
    k = 2 * n
    rows: list[VolumeLemmaRow] = []
    for tag, (eps, lam) in enumerate(itertools.product(eps_grid, lambda_grid)):
        scale = L * eps
        gen = rng.substream(seed, rng.POINTS, 5, tag)
        # far part: uniform proposal on the full y-box
        far = 0.0
        for configs, dist in _box_batches(gen, k, n_mc, g, y_radius):
            y = np.abs(configs[..., 0])
            w = np.where(np.all(y >= 2 * lam, axis=1),
                         np.prod(y ** (-q_far), axis=1), 0.0)
            far += float(np.sum(w * ~has_isolated_point(dist, scale)))
            del configs, dist
        i_far = far / n_mc * box_volume(g, y_radius) ** k
        b_far = lam ** (2 * n * (kern.gamma - kern.r_e - eta)) * \
            (eps / lam) ** (n * alpha * m2)
        i_near = b_near = None
        if kern.r_e >= 1:
            # near part: per-coordinate density proportional to |y|^{-q_near};
            # u and the signs are one draw each, only the test is batched
            u = gen.random(size=(n_mc, k))
            r = (2 * lam) * u ** (1.0 / (1.0 - q_near))
            sign = np.where(gen.random(size=(n_mc, k)) < 0.5, -1.0, 1.0)
            yn = (sign * r)[..., None]
            z1 = 2.0 * (2 * lam) ** (1.0 - q_near) / (1.0 - q_near)
            hits = sum(int(np.sum(~has_isolated_point(
                pair_distances(yn[lo:lo + _MC_BATCH], g), scale)))
                for lo in range(0, n_mc, _MC_BATCH))
            i_near = float(hits / n_mc * z1 ** k)
            b_near = min(eps, lam) ** (2 * n * (kern.gamma - kern.r_e + 1 - eta))
        rows.append(VolumeLemmaRow(eps=float(eps), lam=float(lam),
                                   integral_far=i_far, bound_far=float(b_far),
                                   integral_near=i_near, bound_near=b_near))
    ratios_far = [r.integral_far / r.bound_far for r in rows]
    ratios_near = [r.integral_near / r.bound_near for r in rows
                   if r.integral_near is not None]
    return VolumeLemmaReport(rows=rows, max_ratio_far=float(max(ratios_far)),
                             max_ratio_near=(float(max(ratios_near))
                                             if ratios_near else None),
                             r_e=kern.r_e)


@dataclass
class PartitionCheckReport:
    n_trials: int
    violations: int
    witness: np.ndarray | None


def _partitions_min_two(items: tuple[int, ...]):
    """All set partitions of ``items`` whose blocks all have >= 2 elements."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    # choose the block containing `first`: at least one more element
    for r in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            block = (first,) + combo
            remaining = tuple(x for x in rest if x not in combo)
            for sub in _partitions_min_two(remaining):
                yield [block] + sub


def _chain_orderings(size: int) -> list[tuple[int, ...]]:
    """Distinct chain orderings of ``size`` slots up to reversal."""
    if size <= 2:
        return [tuple(range(size))]
    return [p for p in itertools.permutations(range(size)) if p[0] < p[-1]]


def _chain_mask(adj: np.ndarray, block: tuple[int, ...]) -> np.ndarray:
    """Per-config flag that the block admits a chain ordering (vectorized)."""
    if len(block) <= 1:
        return np.ones(adj.shape[0], dtype=bool)
    out = np.zeros(adj.shape[0], dtype=bool)
    for order in _chain_orderings(len(block)):
        mask = np.ones(adj.shape[0], dtype=bool)
        for a, b in zip(order[:-1], order[1:]):
            mask &= adj[:, block[a], block[b]]
        out |= mask
    return out


def partition_sum_check(n: int, eps: float, lam: float, n_mc: int,
                        g: ScalingGeometry | None = None, L: float = 1.0,
                        seed: int = 0) -> PartitionCheckReport:
    """Set-containment check of the no-isolated-point decomposition.

    A configuration has no isolated point at scale L*eps iff some partition
    into blocks of size >= 2 exists whose every block admits a chain ordering
    with consecutive gaps <= L*eps.  Both directions are checked by brute
    force on random configurations; the first witness of a violation is
    reported.  On one axis the clustering runs (sorted consecutive groups)
    provide the chain witness, so the identity is exact at a single scale;
    in higher dimensions hub-and-spoke configurations can defeat the forward
    direction at one scale, and a reported witness is then meaningful data,
    not a bug.
    """
    if 2 * n > 8:
        raise ValueError("partition enumeration budget is 2n <= 8")
    _check_mc(n, L, n_mc, eps=eps, lam=lam)
    if g is None:
        g = ScalingGeometry((1.0,))
    gen = rng.substream(seed, rng.POINTS, 2)
    n_pts = 2 * n
    scale = L * eps
    parts = list(_partitions_min_two(tuple(range(n_pts))))
    violations = 0
    witness = None
    for configs, dist in _box_batches(gen, n_pts, n_mc, g, 2.0 * lam):
        adj = dist <= scale
        separated = has_isolated_point(dist, scale)
        covered = np.zeros(len(configs), dtype=bool)
        for part in parts:
            mask = np.ones(len(configs), dtype=bool)
            for block in part:
                mask &= _chain_mask(adj, block)
            covered |= mask
        bad = covered == separated
        violations += int(np.sum(bad))
        if witness is None and np.any(bad):
            witness = configs[int(np.argmax(bad))].copy()
        del configs, dist
    return PartitionCheckReport(n_trials=n_mc, violations=violations, witness=witness)
