"""Operator studies and deterministic second moments.

The operator studies (:func:`freq_sweep`, :func:`scaling_scan`) are two
reports over one core, :func:`_study`: a table of 2n-th root moment norms,
one per (eps, lam, theta) cell.  A call reads one kernel matrix, which
every lambda reads at the rows of its test support, one spectrum per eps
and one noise per draw, all shared by every cell.  The matrix depends only
on the design's kernel, lattice and y radius and on the lambdas: a call
builds it once, and a call that repeats the last call's, at any eps, theta
or seed, reads the operator's kept block and builds none.  Each cell's
operator values are taken over the same draws, and one ``moment_norm``
call resamples the (draws x cells) table once, so every cell's bootstrap
interval comes from the same resamples.  The studies report
single-constant domination against the target power laws and fitted slopes;
the underlying bound is one-sided, so slope checks are lower bounds, never
equalities.  The deterministic routines integrate the |K|-smeared Wick
second moments G and H on two grids; they are implemented on the line with
s = (1,) only.  The Monte Carlo check of the restricted-volume integrals
lives in :mod:`clustering`, beside the other volume estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import ChaosTruncSpec, TwoPointFunctional
from .field import SAMPLE_CHUNK, CovarianceSpec, Spectrum, build_spectrum, \
    sample_fields
from .geometry import Lattice, ScalingGeometry, TestFunction, build_lattice, \
    eval_test_function_many
from .kernel import DIAGONAL_CELLS, RenormKernel, compute_re, eval_K_many
from .operator import OperatorConfig, OperatorPlan, OperatorSetup, \
    apply_configs
# the benchmark's tracer wraps moment_norm and reads BOOTSTRAP_RESAMPLES here
# by name: the studies resample through this name, once per call
from .stats import BOOTSTRAP_RESAMPLES, MomentEstimate, moment_norm  # noqa: F401
from .stats import check_integer


class QuadratureRefinementNeeded(RuntimeError):
    """Two-grid disagreement exceeded the tolerance; refine the step."""


_TWO_GRID_TOL = 0.10  # G/H quadrature: largest certified two-grid gap
# BOOTSTRAP substream tags of the studies' paired resamples, one per call;
# field.verify_assumption1 and the model studies open tags 1, 11 and 12
_FREQ_SWEEP_TAG = 21
_SCALING_SCAN_TAG = 22


@dataclass(frozen=True)
class StudyDesign:
    """Static ingredients of one operator study (everything but eps/lam/theta)."""

    alpha: float
    m1: int
    m2: int
    trig1: str
    trig2: str
    gamma: float
    s: tuple[float, ...] = (1.0,)
    h: float = 0.025
    extent: float = 4.0
    re_override: int | None = None
    cutoff: float = 1.0
    deriv: tuple[int, int] = (0, 0)
    y_radius: float = 2.0

    @property
    def geometry(self) -> ScalingGeometry:
        return ScalingGeometry(self.s)

    @property
    def diagonal_policy(self) -> int:
        """The operator's exclusion width in lattice steps (read-only)."""
        return DIAGONAL_CELLS

    @property
    def r_e(self) -> int:
        if self.re_override is not None:
            return self.re_override
        return compute_re(self.gamma, self.alpha, self.m2)

    def lattice(self) -> Lattice:
        return build_lattice(self.geometry, self.h, self.extent)

    def kernel(self) -> RenormKernel:
        return RenormKernel(gamma=self.gamma, g=self.geometry, r_e=self.r_e,
                            cutoff=self.cutoff)

    def functional(self, theta: tuple[float, float]) -> TwoPointFunctional:
        return TwoPointFunctional(
            ChaosTruncSpec(self.trig1, self.m1),
            ChaosTruncSpec(self.trig2, self.m2),
            (float(theta[0]), float(theta[1])), self.deriv)

    def spectrum(self, eps: float, lattice: Lattice) -> Spectrum:
        return build_spectrum(CovarianceSpec(alpha=self.alpha, epsilon=eps),
                              lattice)

    def operator_setup(self, lam: float, lattice=None) -> OperatorSetup:
        lat = lattice if lattice is not None else self.lattice()
        test = TestFunction(geometry=self.geometry, scale=lam)
        return OperatorSetup(kernel=self.kernel(), test=test, lattice=lat,
                             y_radius=self.y_radius)

    def operator_config(self, lam: float, theta, lattice=None) -> OperatorConfig:
        return OperatorConfig(self.operator_setup(lam, lattice),
                              self.functional(theta))


@dataclass
class FreqRow:
    theta: tuple[float, float]
    estimate: MomentEstimate


@dataclass
class FreqSweepResult:
    eps: float
    lam: float
    rows: list[FreqRow]
    max_min_ratio: float


def _study(design: StudyDesign, eps_grid: list[float], cells: list,
           n: int, n_samples: int, seed: int, tag: int) -> list[MomentEstimate]:
    """The moment-norm estimate of every (eps, cell) pair, eps-major, where a
    cell is (lam, theta).

    One :class:`operator.OperatorPlan` serves every cell and every sample
    block: one kernel matrix on the union of the lams' test supports, which
    each lam reads at its own rows.  It is built, or read from the
    operator's kept block, before any draw exists, so it never stacks on
    the draws.  Each block of SAMPLE_CHUNK draws is synthesised once for
    every eps (:func:`field.sample_fields`), and every
    sample's noise comes from its own counter substream, so the blocking
    changes no number.  The (draws x pairs) table is resampled once, from
    BOOTSTRAP tag ``tag``.  A bad half-order n raises before the plan is
    built.
    """
    check_integer("n", n, 1)
    lat = design.lattice()
    setups = {lam: design.operator_setup(lam, lat) for lam, _ in cells}
    spectra = [design.spectrum(eps, lat) for eps in eps_grid]
    plan = OperatorPlan({cell: OperatorConfig(setups[cell[0]],
                                              design.functional(cell[1]))
                         for cell in cells})
    blocks = []
    for lo in range(0, n_samples, SAMPLE_CHUNK):
        draws = sample_fields(spectra, seed,
                              np.arange(lo, min(lo + SAMPLE_CHUNK, n_samples)))
        # next() inside the call: no name keeps a spectrum's draws past its cells
        blocks.append([apply_configs(plan, next(draws), spec.sigma2,
                                     spec.spec.alpha, spec.spec.epsilon)
                       for spec in spectra])
    table = np.column_stack([np.concatenate([b[i][cell] for b in blocks])
                             for i in range(len(spectra)) for cell in cells])
    return moment_norm(table, n, seed=seed, tag=tag)


def _check_study(n_samples: int, **grids):
    """ValueError, naming the argument, for a draw count that is not an
    integer of at least 1 or an empty grid."""
    check_integer("n_samples", n_samples, 1)
    for name, grid in grids.items():
        if len(grid) == 0:
            raise ValueError(f"{name} is empty")


def freq_sweep(design: StudyDesign, eps: float, lam: float, theta_grid,
               n: int, n_samples: int, seed: int = 0) -> FreqSweepResult:
    """Moment-norm estimates across a frequency grid at one (eps, lam).

    Every frequency reads one operator set-up, the same field draws and the
    same bootstrap resamples (:func:`_study`), which removes sampling noise
    from the headline max/min ratio, the experiment's statistic.
    """
    cells = [(float(lam), (float(t[0]), float(t[1]))) for t in theta_grid]
    _check_study(n_samples, theta_grid=cells)
    ests = _study(design, [float(eps)], cells, n, n_samples, seed,
                  _FREQ_SWEEP_TAG)
    rows = [FreqRow(theta=cell[1], estimate=est)
            for cell, est in zip(cells, ests)]
    vals = [r.estimate.value for r in rows if r.estimate.value > 0]
    ratio = max(vals) / min(vals) if vals else math.inf
    return FreqSweepResult(eps=eps, lam=lam, rows=rows, max_min_ratio=float(ratio))


@dataclass
class ScalingRow:
    eps: float
    lam: float
    estimate: MomentEstimate
    excluded: bool


@dataclass
class ScalingReport:
    rows: list[ScalingRow]
    eps_slope: float
    eps_slope_se: float
    lam_slope: float
    lam_slope_se: float
    bound_constant: float
    target_eps_exponent: float
    target_lam_exponent: float
    eta: float


def scaling_scan(design: StudyDesign, theta, eps_grid, lambda_grid, n: int,
                 n_samples: int, seed: int = 0,
                 eta: float = 0.1) -> ScalingReport:
    """Log-log scan of the moment norm over a geometric (eps, lam) grid.

    Every grid point reads its lam's rows of one kernel matrix, the same field
    draws and the same bootstrap resamples (:func:`_study`).  Grid points
    whose interval reaches zero are flagged and left out of the slope fit.
    The slopes are NaN unless the fitted points hold two eps and two lam
    values off one log-log line, and their standard errors are NaN unless a
    degree of freedom is left.  The bound constant is the largest ratio of
    the estimate to eps^(a-eta) * lam^(b-eta) with a, b the target exponents.
    """
    a_t = design.alpha * (design.m1 + design.m2) / 2.0
    b_t = design.gamma - a_t
    theta = (float(theta[0]), float(theta[1]))
    eps_grid = [float(eps) for eps in eps_grid]
    cells = [(float(lam), theta) for lam in lambda_grid]
    _check_study(n_samples, eps_grid=eps_grid, lambda_grid=cells)
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")
    for eps in eps_grid:
        if eps < 2 * design.h:
            raise ValueError(f"eps {eps} below resolution 2h = {2 * design.h}")
    ests = _study(design, eps_grid, cells, n, n_samples, seed,
                  _SCALING_SCAN_TAG)
    grid = [(eps, lam) for eps in eps_grid for lam, _ in cells]
    rows = [ScalingRow(eps=eps, lam=lam, estimate=est,
                       excluded=est.ci[0] <= 0.0)
            for (eps, lam), est in zip(grid, ests)]
    fit_rows = [r for r in rows if not r.excluded and r.estimate.value > 0]
    eps_slope = lam_slope = eps_se = lam_se = math.nan
    if len(fit_rows) >= 3:
        x = np.array([[math.log(r.eps), math.log(r.lam), 1.0] for r in fit_rows])
        y = np.array([math.log(r.estimate.value) for r in fit_rows])
        coef, res, rank, _ = np.linalg.lstsq(x, y, rcond=None)
        if rank == 3:
            eps_slope, lam_slope = float(coef[0]), float(coef[1])
            if len(fit_rows) > 3:
                sigma2 = float(res[0]) / (len(fit_rows) - 3)
                covm = sigma2 * np.linalg.inv(x.T @ x)
                eps_se = float(np.sqrt(covm[0, 0]))
                lam_se = float(np.sqrt(covm[1, 1]))
    c = 0.0
    for r in rows:
        bound = r.eps ** (a_t - eta) * r.lam ** (b_t - eta)
        c = max(c, r.estimate.value / bound)
    return ScalingReport(rows=rows, eps_slope=eps_slope, eps_slope_se=eps_se,
                         lam_slope=lam_slope, lam_slope_se=lam_se,
                         bound_constant=float(c), target_eps_exponent=a_t,
                         target_lam_exponent=b_t, eta=eta)


# ---------------------------------------------------------------------------
# deterministic second-moment functionals


def _smeared_wick_norm(kern: RenormKernel, grid, kernel_row, m: int,
                       cov: CovarianceSpec, h: float) -> float:
    """sqrt(m! * v^T rho^m v) for v = |K| * weight * step on a 1-d grid.

    ``grid(step)`` gives the grid points and their weights, and
    ``kernel_row(points, step)`` the values of ``kern`` between those points
    and the base point, under the exclusion rule of ``eval_K_many`` on that
    step; rho is the normalised target covariance at the grid lags.  The
    norm is taken at steps h and h / 2, and a relative disagreement above
    _TWO_GRID_TOL raises rather than returning an uncertified value.
    """
    if kern.g.s != (1.0,):
        raise NotImplementedError(
            "deterministic quadrature is implemented for d = 1 with s = (1,)")
    vals = []
    for step in (h, h / 2.0):
        pts, weight = grid(step)
        v = np.abs(kernel_row(pts, step)) * weight * step
        rho = cov.normalised(np.abs(pts[:, None, 0] - pts[None, :, 0]))
        vals.append(math.sqrt(max(math.factorial(m) * float(v @ (rho ** m) @ v),
                                  0.0)))
    coarse, fine = vals
    if fine > 0 and abs(coarse - fine) / fine > _TWO_GRID_TOL:
        raise QuadratureRefinementNeeded(
            f"two-grid disagreement {abs(coarse - fine) / fine:.2%} at h = {h}")
    return fine


def second_moment_G(x, kern: RenormKernel, m2: int, cov: CovarianceSpec,
                    h: float = 0.01, y_radius: float = 2.0) -> float:
    """L2 norm of the |K|-smeared Wick power of the y-variable at basepoint x.

    Deterministic double quadrature of m2! * |K||K| rho^{m2} on the target
    covariance, square-rooted and certified on two grids.
    """
    check_integer("m2", m2, 0)
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    return _smeared_wick_norm(
        kern, lambda step: (build_lattice(kern.g, step, y_radius).points(), 1.0),
        lambda ys, step: eval_K_many(x_arr, ys, kern, step)[0],
        m2, cov, h)


def second_moment_H(y, kern: RenormKernel, test: TestFunction, m1: int,
                    cov: CovarianceSpec, h: float = 0.005) -> float:
    """L2 norm of the |K phi|-smeared Wick power of the x-variable at point y."""
    check_integer("m1", m1, 0)
    y_arr = np.atleast_2d(np.asarray(y, dtype=float))

    def grid(step):
        xs = build_lattice(kern.g, step, test.scale).points() \
            + np.asarray(test.center)[None, :]
        return xs, np.abs(eval_test_function_many(test, xs))

    return _smeared_wick_norm(kern, grid,
                              lambda xs, step: eval_K_many(xs, y_arr, kern,
                                                           step)[:, 0],
                              m1, cov, h)
