"""Quadrature evaluation of the smoothing-pairing operator on field draws.

The operator pairs a rescaled test function against the renormalised kernel
and the two-factor truncated trig functional:

    value = sum_x sum_y phi_lam(x) K(x, y) F(theta, x, y) * cell_vol^2

with x running over the test-function support and y over the fixed metric
ball of radius 2.  ``kernel.eval_K_many`` builds the kernel matrix on the
lattice step and drops the pairs its exclusion rule names (|x - y| below
``kernel.DIAGONAL_CELLS`` steps); for gamma > 0 the excluded mass is
O(h^gamma).  The y points whose kernel column is zero (K vanishes once
|x - y| and |y| both pass the cutoff) are dropped before any factor is
evaluated at them.

The kernel matrix and test-function weights do not depend on the frequency
theta.  An ``OperatorSetup`` (kernel, test function, lattice, y radius)
builds them at first use and keeps them for its lifetime; its fields are
frozen, so the arrays cannot go stale.  An ``OperatorConfig`` pairs a set-up
with the theta-dependent functional, so configs that differ only in theta
share one set-up: the studies in ``experiments`` build one per lambda per
call and share it across theta cells and sample chunks.  The operator reads
a batch of draws, as ``field.sample_field_values`` returns them, in two
small matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chaos import ChaosTruncSpec, TwoPointFunctional, truncated_trig_deriv
from .geometry import Lattice, TestFunction, eval_test_function_many, metric_many
from .kernel import RenormKernel, eval_K_many


class ResolutionError(RuntimeError):
    """Test-function support contains no lattice point (scale below the step)."""


def _support(test: TestFunction, lattice: Lattice):
    """Test-function values on its lattice support and that support's indices."""
    phi = eval_test_function_many(test, lattice.points())
    x_idx = np.nonzero(phi > 0.0)[0]
    if len(x_idx) == 0:
        raise ResolutionError(
            f"test scale {test.scale} resolves no lattice point at "
            f"step {lattice.base_step}")
    return phi[x_idx], x_idx


@dataclass(frozen=True)
class OperatorSetup:
    """The theta-independent part of the operator, with its arrays built once."""

    kernel: RenormKernel
    test: TestFunction
    lattice: Lattice
    y_radius: float = 2.0

    @cached_property
    def arrays(self) -> dict:
        """x/y index sets, test weights and the kernel matrix times the cell
        volume; y runs over the ball of radius y_radius, less the points
        where K(., y) vanishes on the whole test-function support."""
        lat = self.lattice
        phi, x_idx = _support(self.test, lat)
        pts = lat.points()
        y_idx = np.nonzero(metric_many(pts, lat.geometry) <= self.y_radius)[0]
        kmat = eval_K_many(pts[x_idx], pts[y_idx], self.kernel, lat.base_step)
        live = np.any(kmat != 0.0, axis=0)
        return dict(x_idx=x_idx, y_idx=y_idx[live], xw=phi * lat.cell_volume,
                    kmat=kmat[:, live] * lat.cell_volume)


@dataclass(frozen=True)
class OperatorConfig:
    setup: OperatorSetup
    functional: TwoPointFunctional

    def sanity_envelope(self, f_sup: float) -> float:
        """Crude bound sup|F| * sum |K| |phi| * cell volumes for per-run checks."""
        st = self.setup.arrays
        return float(np.sum(f_sup * np.abs(st["xw"]) @ np.abs(st["kmat"])))


def _check_draws(values: np.ndarray, lattice: Lattice):
    if values.shape[1:] != lattice.shape:
        raise ValueError(f"draws of shape {values.shape[1:]} do not match "
                         f"the operator lattice {lattice.shape}")


def _factors(cfg: OperatorConfig, norm_values: np.ndarray, sigma2: float):
    st = cfg.setup.arrays
    fn = cfg.functional
    tx, ty = fn.theta
    r1, r2 = fn.deriv
    flat = norm_values.reshape(norm_values.shape[0], -1)
    fx = truncated_trig_deriv(flat[:, st["x_idx"]], tx, fn.spec_x.phase,
                              fn.spec_x.m, r1, sigma2)
    gy = truncated_trig_deriv(flat[:, st["y_idx"]], ty, fn.spec_y.phase,
                              fn.spec_y.m, r2, sigma2)
    return fx, gy


def apply_batch(cfg: OperatorConfig, values: np.ndarray, sigma2: float,
                alpha: float, epsilon: float) -> np.ndarray:
    """Double Riemann sums of phi_lam * K * F over a batch of raw draws,
    shape (B, *lattice.shape); sigma2, alpha and epsilon are those of the
    draws' spectrum."""
    _check_draws(values, cfg.setup.lattice)
    st = cfg.setup.arrays
    norm = epsilon ** (alpha / 2.0) * values
    fx, gy = _factors(cfg, norm, sigma2)
    inner = gy @ st["kmat"].T  # (B, Nx)
    return np.einsum("bx,x,bx->b", inner, st["xw"], fx)


def apply_single(theta: float, spec: ChaosTruncSpec, test: TestFunction,
                 lattice: Lattice, values: np.ndarray, sigma2: float,
                 alpha: float, epsilon: float) -> np.ndarray:
    """Single Riemann sums of the truncated trig field against the test
    function, per draw of a batch read as in :func:`apply_batch`."""
    _check_draws(values, lattice)
    phi, x_idx = _support(test, lattice)
    xv = epsilon ** (alpha / 2.0) * values.reshape(len(values), -1)[:, x_idx]
    vals = truncated_trig_deriv(xv, theta, spec.phase, spec.m, 0, sigma2)
    return vals @ phi * lattice.cell_volume
