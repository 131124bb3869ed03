"""Quadrature evaluation of the smoothing-pairing operator on field draws.

The operator pairs a rescaled test function against the renormalised kernel
and the two-factor truncated trig functional:

    value = sum_x sum_y phi_lam(x) K(x, y) F(theta, x, y) * cell_vol^2

with x running over the test-function support and y over the fixed metric
ball of radius 2.  ``kernel.eval_K_many`` builds the kernel matrix on the
lattice step and drops the pairs its exclusion rule names (|x - y| below
``kernel.DIAGONAL_CELLS`` steps, measured on the computed coordinates); for
gamma > 0 the excluded mass is O(h^gamma).  At d >= 2 it reads each pair's
radius off small per-axis distance tables over the distinct lattice
coordinates and takes the profile and the exclusion rule once per distinct
radius, so the matrix is bit-equal to the one built from the full pairwise
difference array.  The y points whose kernel column is zero (K vanishes
once |x - y| and |y| both pass the cutoff) are dropped before any factor is
evaluated at them.

The kernel matrix and test-function weights do not depend on the frequency
theta.  An ``OperatorSetup`` (kernel, test function, lattice, y radius)
builds them at first use and keeps them for its lifetime; its fields are
frozen, so the arrays cannot go stale.  An ``OperatorConfig`` pairs a set-up
with the theta-dependent functional, so configs that differ only in theta
share one set-up: the studies in ``experiments`` build one per lambda per
call and share it across theta cells and sample blocks.

:func:`apply_configs` reads a batch of draws, as
``field.sample_field_values`` returns them, against a dict of configs.  A
truncated trig factor is fixed by its key (theta, phase, m, r) and is a
pointwise function of the draw, so each distinct key is evaluated once per
batch, on the union of the lattice points at which any config needs it (the
x supports and live y columns of every lambda cell), and each config gathers
its columns from that table; a table is freed after the last config that
reads it.  Only those union columns are normalised by eps^{alpha/2}, which
commutes exactly with the gather.  Each config then costs two small matrix
products; :func:`apply_batch` is the one-config case.  The two are the
module's only evaluation routes: a single sum of one factor against the
test function is not an operator value, and no study reads one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .chaos import TwoPointFunctional, truncated_trig_deriv
from .geometry import Lattice, TestFunction, eval_test_function_many, metric_many
from .kernel import RenormKernel, eval_K_many


class ResolutionError(RuntimeError):
    """Test-function support contains no lattice point (scale below the step)."""


@dataclass(frozen=True)
class OperatorSetup:
    """The theta-independent part of the operator, with its arrays built once."""

    kernel: RenormKernel
    test: TestFunction
    lattice: Lattice
    y_radius: float = 2.0

    def __post_init__(self):
        if not self.y_radius > 0.0:  # NaN fails too
            raise ValueError(f"y_radius must be positive, got {self.y_radius}")

    @cached_property
    def arrays(self) -> dict:
        """x/y index sets, test weights and the kernel matrix times the cell
        volume; y runs over the ball of radius y_radius, less the points
        where K(., y) vanishes on the whole test-function support."""
        lat = self.lattice
        pts = lat.points()
        phi = eval_test_function_many(self.test, pts)
        x_idx = np.nonzero(phi > 0.0)[0]
        if len(x_idx) == 0:
            raise ResolutionError(
                f"test scale {self.test.scale} resolves no lattice point at "
                f"step {lat.base_step}")
        y_idx = np.nonzero(metric_many(pts, lat.geometry) <= self.y_radius)[0]
        kmat = eval_K_many(pts[x_idx], pts[y_idx], self.kernel, lat.base_step)
        live = np.any(kmat != 0.0, axis=0)
        return dict(x_idx=x_idx, y_idx=y_idx[live],
                    xw=phi[x_idx] * lat.cell_volume,
                    kmat=kmat[:, live] * lat.cell_volume)


@dataclass(frozen=True)
class OperatorConfig:
    setup: OperatorSetup
    functional: TwoPointFunctional

    def sanity_envelope(self, f_sup: float) -> float:
        """Crude bound sup|F| * sum |K| |phi| * cell volumes for per-run checks."""
        st = self.setup.arrays
        return float(np.sum(f_sup * np.abs(st["xw"]) @ np.abs(st["kmat"])))


def _columns(table: np.ndarray, have: np.ndarray, want: np.ndarray):
    """Columns ``want`` of ``table``, whose columns sit at the sorted indices
    ``have``; ``want`` is a sorted subset of ``have``."""
    if len(want) == len(have):
        return table
    return table[:, np.searchsorted(have, want)]


def _factor_uses(cfg: OperatorConfig, st: dict):
    """(key, index set) of the x factor and of the y factor of ``cfg``."""
    fn = cfg.functional
    return (((fn.theta[0], fn.spec_x.phase, fn.spec_x.m, fn.deriv[0]),
             st["x_idx"]),
            ((fn.theta[1], fn.spec_y.phase, fn.spec_y.m, fn.deriv[1]),
             st["y_idx"]))


def apply_configs(configs: dict, values: np.ndarray, sigma2: float,
                  alpha: float, epsilon: float) -> dict:
    """Double Riemann sums of phi_lam * K * F for every config of ``configs``
    (cell -> config) over a batch of raw draws, shape (B, *lattice.shape):
    cell -> shape (B,).  sigma2, alpha and epsilon are those of the draws'
    spectrum.  Each distinct factor key is evaluated once, on the union of
    the points its configs read (see the module docstring)."""
    # kernel arrays first, so their build does not stack on the normalised draws
    arrays = {cell: cfg.setup.arrays for cell, cfg in configs.items()}
    for cfg in configs.values():
        if values.shape[1:] != cfg.setup.lattice.shape:
            raise ValueError(f"draws of shape {values.shape[1:]} do not match "
                             f"the operator lattice {cfg.setup.lattice.shape}")
    uses = {cell: _factor_uses(cfg, arrays[cell])
            for cell, cfg in configs.items()}
    union, last = {}, {}
    for cell, pair in uses.items():
        for key, idx in pair:
            union[key] = np.union1d(union[key], idx) if key in union else idx
            last[key] = cell
    cols = reduce(np.union1d, union.values())
    norm = values.reshape(len(values), -1)[:, cols]  # a copy, scaled in place
    norm *= epsilon ** (alpha / 2.0)
    tables, out, unbuilt = {}, {}, set(union)

    def factor(key, idx):
        nonlocal norm
        if key not in tables:
            theta, phase, m, r = key
            tables[key] = truncated_trig_deriv(
                _columns(norm, cols, union[key]), theta, phase, m, r, sigma2)
            unbuilt.discard(key)
            if not unbuilt:
                norm = None  # every table is built
        return _columns(tables[key], union[key], idx)

    for cell, ((kx, ix), (ky, iy)) in uses.items():
        st = arrays[cell]
        # one expression, so no factor outlives its cell
        out[cell] = np.einsum("bx,x,bx->b", factor(ky, iy) @ st["kmat"].T,
                              st["xw"], factor(kx, ix))
        for key in (kx, ky):
            if last[key] == cell:
                tables.pop(key, None)
    return out


def apply_batch(cfg: OperatorConfig, values: np.ndarray, sigma2: float,
                alpha: float, epsilon: float) -> np.ndarray:
    """Double Riemann sums of phi_lam * K * F over a batch of raw draws,
    shape (B, *lattice.shape); sigma2, alpha and epsilon are those of the
    draws' spectrum."""
    return apply_configs({0: cfg}, values, sigma2, alpha, epsilon)[0]
