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

Neither the kernel matrix nor the test-function weights depend on the
frequency theta, and the kernel matrix depends on the test function only
through the x rows it is read at.  An ``OperatorSetup`` (kernel, test
function, lattice, y radius) is a frozen, hashable value that holds no
arrays (a lattice compares by geometry, step and axes), and an
``OperatorConfig`` pairs a set-up with the theta-dependent functional.
:func:`_kernel_rows` is the one builder of the kernel matrix, by one
``eval_K_many`` call.  It keeps the last block it built (the matrix, its
rows and columns, and each set-up's row positions and weights), and hands
it back, not a copy, for set-ups equal to that block's by value; the
block and its arrays are read-only, so no reader can change another's
matrix.  One block is kept at most, dropped before the next one is built.

An :class:`OperatorPlan` holds what the draws do not change of a dict of
configs, and reads their one kernel block.  The configs' set-ups must share
kernel, lattice and y radius; the matrix's rows are the union of their x
supports, and each set-up keeps only its row positions in it and its test
weights.  A y column that is live for the union but not for one set-up holds
zeros in that set-up's rows, so its sum over the shared columns is its own
sum; with numpy 2.4's OpenBLAS it is bit for bit, as the tests check.  The
studies in ``experiments`` build one plan per call, shared by every lambda,
theta and sample block; a call whose lambdas and design repeat the last
call's reads the kept block and builds no matrix, whatever its eps, theta
and seed.

:func:`apply_configs` reads a batch of draws, as
``field.sample_field_values`` returns them, against a plan.  A truncated
trig factor is fixed by its key (theta, phase, m, r) and is a pointwise
function of the draw, so each distinct key is evaluated once per batch, on
the plan's one column set: the matrix's y columns, then the x rows that
are not among them.  Only those columns are normalised by eps^{alpha/2}.
Each cell reads its x factor at its rows' positions, which the plan
computes once.  Each distinct y factor is a leading slice of its table and
is contracted once, as G = f_y @ K^T, and each config sums its own rows of
G against its test weights and its x factor.  A table or contraction is
freed after its last reader.
:func:`apply_batch` is the one-config case.  The two are the module's only
evaluation routes: a single sum of one factor against the test function is
not an operator value, and no study reads one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

import numpy as np

from .chaos import TwoPointFunctional, truncated_trig_deriv
from .geometry import Lattice, TestFunction, eval_test_function_many, metric_many
from .kernel import RenormKernel, eval_K_many


class ResolutionError(RuntimeError):
    """Test-function support contains no lattice point (scale below the step)."""


# the last block _kernel_rows built, keyed by its set-ups: one entry at most
_LAST_BLOCK: dict = {}


def _kernel_rows(setups) -> MappingProxyType:
    """One kernel matrix for ``setups``, times the cell volume: the
    operator's one matrix builder.

    The set-ups must share kernel, lattice and y radius, compared by value
    (ValueError otherwise, or when there are none).  The matrix's rows are
    the union ``x_idx`` of their test-function supports, its columns
    ``y_idx`` the ball of radius y_radius less the points where K(., y)
    vanishes on every row.  ``rows`` and ``xw`` hold, in the order of
    ``setups``, each set-up's row positions and its test weights times the
    cell volume.  The last block built is kept, and set-ups equal to its
    own, in the same order, get it back; the block and its arrays are
    read-only.
    """
    setups = tuple(setups)
    if len({(st.kernel, st.lattice, st.y_radius) for st in setups}) != 1:
        raise ValueError("a kernel matrix needs one or more set-ups that "
                         "share kernel, lattice and y radius")
    if setups in _LAST_BLOCK:
        return _LAST_BLOCK[setups]
    _LAST_BLOCK.clear()  # before the build: one block is held at most
    lat = setups[0].lattice
    pts = lat.points()
    supports, weights = [], []
    for setup in setups:
        phi = eval_test_function_many(setup.test, pts)
        support = np.nonzero(phi > 0.0)[0]
        if len(support) == 0:
            raise ResolutionError(
                f"test scale {setup.test.scale} resolves no lattice point at "
                f"step {lat.base_step}")
        supports.append(support)
        weights.append(phi[support] * lat.cell_volume)
    x_idx = reduce(np.union1d, supports)
    y_idx = np.nonzero(metric_many(pts, lat.geometry) <= setups[0].y_radius)[0]
    kmat = eval_K_many(pts[x_idx], pts[y_idx], setups[0].kernel, lat.base_step)
    live = np.any(kmat != 0.0, axis=0)
    block = MappingProxyType(dict(
        x_idx=x_idx, y_idx=y_idx[live], kmat=kmat[:, live] * lat.cell_volume,
        rows=tuple(np.searchsorted(x_idx, s) for s in supports),
        xw=tuple(weights)))
    for arr in (block["x_idx"], block["y_idx"], block["kmat"], *block["rows"],
                *block["xw"]):
        arr.setflags(write=False)
    _LAST_BLOCK[setups] = block
    return block


@dataclass(frozen=True)
class OperatorSetup:
    """The theta-independent part of the operator: a frozen value, whose
    kernel matrix an :class:`OperatorPlan` builds (see the module
    docstring)."""

    kernel: RenormKernel
    test: TestFunction
    lattice: Lattice
    y_radius: float = 2.0

    def __post_init__(self):
        if not self.y_radius > 0.0:  # NaN fails too
            raise ValueError(f"y_radius must be positive, got {self.y_radius}")
        scalings = {"kernel": self.kernel.g.s, "test": self.test.geometry.s,
                    "lattice": self.lattice.geometry.s}
        if len(set(scalings.values())) > 1:
            raise ValueError(f"the set-up's scaling vectors differ: {scalings}")


@dataclass(frozen=True)
class OperatorConfig:
    setup: OperatorSetup
    functional: TwoPointFunctional

    def sanity_envelope(self, f_sup: float) -> float:
        """Crude bound sup|F| * sum |K| |phi| * cell volumes for per-run
        checks, on the kernel matrix of the set-up alone.  ``f_sup`` must be
        finite and >= 0 (ValueError otherwise)."""
        if not 0.0 <= f_sup < math.inf:  # NaN fails too
            raise ValueError(f"f_sup must be finite and >= 0, got {f_sup!r}")
        st = _kernel_rows([self.setup])
        return float(np.sum(f_sup * np.abs(st["xw"][0]) @ np.abs(st["kmat"])))


def _lead(first: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The sorted indices ``idx`` with their sorted subset ``first`` moved
    to the front."""
    return np.concatenate([first, np.setdiff1d(idx, first, assume_unique=True)])


def _take(table: np.ndarray, positions) -> np.ndarray:
    return table if positions is None else table[:, positions]


class OperatorPlan:
    """What :func:`apply_configs` reads of ``configs`` (cell -> config)
    that no draw changes: the one kernel matrix, the plan's columns and
    each cell's positions in them (see the module docstring).  The configs'
    set-ups must share kernel, lattice and y radius, compared by value;
    building the plan builds the kernel matrix, or reads the kept block of
    equal set-ups, whose read-only ``kmat`` it shares."""

    def __init__(self, configs: dict):
        setups = tuple(dict.fromkeys(cfg.setup for cfg in configs.values()))
        block = _kernel_rows(setups)
        own = dict(zip(setups, zip(block["rows"], block["xw"])))
        x_idx, y_idx = block["x_idx"], block["y_idx"]
        # the matrix's columns first, so a y factor is a leading slice of
        # its table, read without a copy
        self.cols = _lead(y_idx, np.union1d(x_idx, y_idx))
        sorter = np.argsort(self.cols)
        xpos = sorter[np.searchsorted(self.cols, x_idx, sorter=sorter)]
        self.shape = setups[0].lattice.shape
        self.kmat, self.ny = block["kmat"], len(y_idx)
        # the last cell to read each factor table and each y key's contraction
        self.cells, self.last, self.last_y = {}, {}, {}
        for cell, cfg in configs.items():
            fn, (rows, xw) = cfg.functional, own[cfg.setup]
            kx = (fn.theta[0], fn.spec_x.phase, fn.spec_x.m, fn.deriv[0])
            ky = (fn.theta[1], fn.spec_y.phase, fn.spec_y.m, fn.deriv[1])
            self.cells[cell] = (kx, xpos[rows], ky,
                                None if len(rows) == len(x_idx) else rows, xw)
            self.last.update({kx: cell, ky: cell})
            self.last_y[ky] = cell


def apply_configs(plan: OperatorPlan, values: np.ndarray, sigma2: float,
                  alpha: float, epsilon: float) -> dict:
    """Double Riemann sums of phi_lam * K * F for every config of ``plan``
    over a batch of raw draws, shape (B, *lattice.shape): cell -> shape
    (B,).  sigma2, alpha and epsilon are those of the draws' spectrum.
    Each distinct factor key is evaluated once, on the plan's columns (see
    the module docstring)."""
    if values.shape[1:] != plan.shape:
        raise ValueError(f"draws of shape {values.shape[1:]} do not match "
                         f"the operator lattice {plan.shape}")
    # a copy, scaled in place; the column count also reshapes zero draws
    norm = values.reshape(len(values), math.prod(plan.shape))[:, plan.cols]
    norm *= epsilon ** (alpha / 2.0)
    tables, contracted, out, unbuilt = {}, {}, {}, set(plan.last)

    def factor(key):
        nonlocal norm
        if key not in tables:
            tables[key] = truncated_trig_deriv(norm, *key, sigma2)
            unbuilt.discard(key)
            if not unbuilt:
                norm = None  # every table is built
        return tables[key]

    for cell, (kx, xpos, ky, rows, xw) in plan.cells.items():
        if ky not in contracted:
            contracted[ky] = factor(ky)[:, :plan.ny] @ plan.kmat.T
        # one expression, so no gathered copy outlives its cell
        out[cell] = np.einsum("bx,x,bx->b", _take(contracted[ky], rows), xw,
                              factor(kx)[:, xpos])
        for key, store, last in ((kx, tables, plan.last),
                                 (ky, tables, plan.last),
                                 (ky, contracted, plan.last_y)):
            if last[key] == cell:
                store.pop(key, None)
    return out


def apply_batch(cfg: OperatorConfig, values: np.ndarray, sigma2: float,
                alpha: float, epsilon: float) -> np.ndarray:
    """Double Riemann sums of phi_lam * K * F over a batch of raw draws,
    shape (B, *lattice.shape); sigma2, alpha and epsilon are those of the
    draws' spectrum."""
    return apply_configs(OperatorPlan({0: cfg}), values, sigma2, alpha,
                         epsilon)[0]
