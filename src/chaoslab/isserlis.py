"""Exact Gaussian moments for the pointwise correlation lemmas.

Both sides of a correlation lemma are read off one generating-function
expansion, the t^k coefficients of exp(sum_m a_m t^(e_m)) over pair, square
and linear monomials.  The right side is a Wick sum E prod_i (sum_k
Z_i^{<>k}), the coefficients of prod_{i<j} exp(C_ij t_i t_j).  The left side
is a Gaussian moment of a product of chaos-truncated trig factors; one
builder expands each factor, n times z- and r times theta-differentiated,
into trig and polynomial atoms (cluster chaos coefficients are its n >= 1
case), and E prod Z^d exp(i tau.Z) is exp(-Var/2) times the coefficients of
exp(t'Ct/2 + i (C tau).t), the atoms' phases summed as integers so that a
moment zero by parity is exactly 0.0.  The module also holds the ratio
checks of the pointwise correlation bounds, exact on both sides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import chaos, rng
from .clustering import has_isolated_point
from .field import CovarianceSpec
from .geometry import ScalingGeometry, box_points, pair_distances
from .stats import check_integer


def _checked_cov(cov, k: int) -> np.ndarray:
    """``cov`` as a finite float (k, k) array, or a ValueError saying why not."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (k, k):
        raise ValueError(f"covariance must have shape ({k}, {k}), got {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance entries must be finite")
    return cov


def _exp_series(terms, hi: list[int]) -> np.ndarray:
    """Coefficients of exp(sum_m a_m prod_{v in vars_m} t_v), truncated at
    degree hi_i in t_i, on one dense array.

    Each term (a, vars) is a pair (i, j), a square (j, j) or a linear
    monomial (j,) with a real or complex coefficient a.  Its factor
    exp(a t^e) = sum_p a^p / p! t^(p e) multiplies in as one shifted add per
    power p.
    """
    k = len(hi)
    dtype = np.result_type(float, *(a for a, _ in terms))
    coef = np.zeros([b + 1 for b in hi], dtype=dtype)
    coef[(0,) * k] = 1.0
    for a, idx in terms:
        if a == 0.0:
            continue
        step = [idx.count(v) for v in range(k)]
        grown = coef.copy()
        term = 1.0
        for p in range(1, min(hi[v] // step[v] for v in idx) + 1):
            term *= a / p
            src = tuple(slice(0, b + 1 - p * e) for b, e in zip(hi, step))
            dst = tuple(slice(p * e, None) for e in step)
            grown[dst] += term * coef[src]
        coef = grown
    return coef


def wick_sum_moment(ranges, cov) -> float:
    """E prod_i (sum_{k=lo_i}^{hi_i} Z_i^{<>k}), ranges given as (lo, hi) pairs.

    The Hermite generating function sum_k Z^{<>k} t^k / k! = exp(tZ -
    t^2 sigma^2 / 2) gives E prod_i exp(t_i Z_i - t_i^2 sigma_i^2 / 2) =
    prod_{i<j} exp(C_ij t_i t_j), so E prod_i Z_i^{<>k_i} is prod_i k_i!
    times the t^k coefficient of that product.  Only off-diagonal
    covariances enter: Wick powers have no self-contractions.  A single
    degree vector is the case lo_i = hi_i.
    """
    for a, b in ranges:
        check_integer("lo", a, 0)
        check_integer("hi", b, a)
    lo, hi = [int(a) for a, _ in ranges], [int(b) for _, b in ranges]
    k = len(hi)
    cov = _checked_cov(cov, k)
    coef = _exp_series([(cov[i, j], (i, j))
                        for i, j in itertools.combinations(range(k), 2)], hi)
    window = coef[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]
    weight = np.ones(())
    for a, b in zip(lo, hi):
        weight = np.multiply.outer(weight, [math.factorial(n) for n in range(a, b + 1)])
    return math.fsum((weight * window).ravel())


# ---------------------------------------------------------------------------
# exact Gaussian moments of products of trig factors and polynomials


def _factor_atoms(trig: str, n: int, theta: float, t: int, r: int,
                  sigma2: float) -> list[tuple[float, int, float | None, int]]:
    """Atoms of d^n/dz^n d^r/dtheta^r T_(t-1)(trig(theta Z)), Var Z = sigma2.

    Each atom is (coeff, monomial degree, frequency or None, phase); a
    frequency of None marks a pure polynomial atom.  A z-derivative is theta
    times the factor phase-shifted by one at truncation depth t - 1, and
    Leibniz carries theta^n through the theta-derivatives; at n = 0 the one
    prefactor is exactly 1.0.
    """
    phase = chaos.trig_phase(trig) + n
    sigma = math.sqrt(sigma2)
    atoms: list[tuple[float, int, float | None, int]] = []
    for s in range(min(r, n) + 1):
        pref = math.comb(r, s) * math.perm(n, s) * theta ** (n - s)
        if pref == 0.0:
            continue
        atoms.append((pref, r - s, theta, phase + r - s))
        for k in range(max(t - n, 0)):
            c = chaos.phase_coeff_deriv(phase, k, theta, sigma2, r=r - s)
            if c == 0.0:
                continue
            herm = np.polynomial.hermite_e.herme2poly([0.0] * k + [1.0])
            atoms.extend((pref * (-c * hj * sigma ** (k - j)), j, None, 0)
                         for j, hj in enumerate(herm) if hj != 0.0)
    return atoms


def _poly_trig_expectation(var_idx: list[int], degrees: list[int],
                           trig_vars: list[int], trig_thetas: list[float],
                           phase: int, cov: np.ndarray) -> float:
    """E[ prod Z_{var_idx}^{deg} * cos(sum trig_thetas*Z_trig + phase*pi/2) ]
    in closed form: exp(-tau'C tau / 2) prod d! Re(i^phase [t^d] exp(t'Ct / 2
    + i (C tau).t)) over the variables of positive degree, tau the summed
    frequency vector.  The phase is an integer, so cos(phase pi/2) and
    sin(phase pi/2) = cos((phase - 1) pi/2) are exactly 0 or +-1, and a
    coefficient of odd degree is purely imaginary: parity zeros are exact."""
    tvec = np.zeros(cov.shape[0])
    for v, th in zip(trig_vars, trig_thetas):
        tvec[v] += th
    var_t = float(tvec @ cov @ tvec)
    if var_t > 1490.0:
        # exp(-var_t / 2) underflows and no polynomial factor can lift it back
        return 0.0
    cos_p = chaos._PHASE_SIGN[phase % 4]
    if not var_idx:
        return math.exp(-0.5 * var_t) * cos_p
    sin_p = chaos._PHASE_SIGN[(phase - 1) % 4]
    sub = cov[np.ix_(var_idx, var_idx)]
    cov_t = (cov @ tvec)[var_idx]
    k = len(var_idx)
    terms = [(sub[i, j] if i < j else 0.5 * sub[i, i], (i, j))
             for i, j in itertools.combinations_with_replacement(range(k), 2)]
    terms += [(1j * cov_t[i], (i,)) for i in range(k)]
    top = _exp_series(terms, degrees)[tuple(degrees)]
    scale = math.prod(math.factorial(q) for q in degrees)
    return math.exp(-0.5 * var_t) * scale * (cos_p * top.real - sin_p * top.imag)


def exact_trig_poly_moment(factor_atoms: list[list[tuple]], cov) -> float:
    """E of a product of factors, each a sum of trig/polynomial atoms.

    Factor j is a function of Gaussian Z_j; ``cov`` is the joint covariance.
    Exact at every frequency: the correlation lemmas and cluster
    coefficients read values far below any sampling or quadrature error.
    The atoms' phases are summed as integers, so a moment that parity makes
    zero is exactly 0.0.
    """
    cov = np.asarray(cov, dtype=float)
    total = []
    for combo in itertools.product(*factor_atoms):
        coeff = math.prod(c for c, _, _, _ in combo)
        if coeff == 0.0:
            continue
        var_idx = [j for j, atom in enumerate(combo) if atom[1]]
        degrees = [combo[j][1] for j in var_idx]
        trig_vars = [j for j, atom in enumerate(combo) if atom[2] is not None]
        trig_thetas = [combo[j][2] for j in trig_vars]
        trig_phases = [combo[j][3] for j in trig_vars]
        # product of cosines -> mean over +-1 frequency sign patterns
        n_signs = max(len(trig_vars) - 1, 0)
        acc = 0.0
        for signs in itertools.product((1, -1), repeat=n_signs):
            svec = (1,) + signs
            thetas = [s * th for s, th in zip(svec, trig_thetas)]
            phase = sum(s * p for s, p in zip(svec, trig_phases))
            acc += _poly_trig_expectation(var_idx, degrees, trig_vars, thetas,
                                          phase, cov)
        total.append(coeff * (acc / 2.0 ** n_signs))
    return math.fsum(total)


def exact_functional_product_moment(specs, thetas, derivs, cov) -> float:
    """Exact E prod_j d^r_j/dtheta^r_j T_(t_j-1)(trig_j(theta_j Z_j)).

    ``specs`` is a list of (trig, t) pairs; the joint covariance supplies the
    per-variable variances.
    """
    if not len(specs) == len(thetas) == len(derivs):
        raise ValueError("specs, thetas and derivs must have equal length")
    cov = _checked_cov(cov, len(specs))
    return exact_trig_poly_moment(
        [_factor_atoms(trig, 0, th, t, r, float(cov[j, j]))
         for j, ((trig, t), th, r) in enumerate(zip(specs, thetas, derivs))], cov)


# ---------------------------------------------------------------------------
# cluster chaos coefficients


@dataclass(frozen=True)
class ClusterCoeffQuery:
    """One cluster's chaos coefficient: degrees, frequencies, derivative and
    truncation orders per member, and the joint covariance."""

    degrees: tuple[int, ...]
    thetas: tuple[float, ...]
    derivs: tuple[int, ...]
    truncations: tuple[int, ...]
    trigs: tuple[str, ...]
    cov: np.ndarray = field(repr=False)

    def __post_init__(self):
        k = len(self.degrees)
        if not (len(self.thetas) == len(self.derivs) == len(self.truncations)
                == len(self.trigs) == k):
            raise ValueError("per-member fields must have equal length")
        for trig in self.trigs:
            chaos.trig_phase(trig)
        _checked_cov(self.cov, k)


def cluster_coeff(q: ClusterCoeffQuery) -> float:
    """Coefficient of the cluster's Wick monomial in the truncated-trig product.

    It is E prod_j d^n_j/dz^n_j d^r_j/dtheta^r_j T_j(Z_j) / prod_j n_j! under
    the joint Gaussian, one exact moment of the members' atoms at degrees n_j.
    """
    cov = _checked_cov(q.cov, len(q.degrees))
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("cluster covariance is not positive definite") from exc
    atoms = [_factor_atoms(trig, n, th, t, r, float(cov[j, j]))
             for j, (n, th, r, t, trig) in enumerate(zip(
                 q.degrees, q.thetas, q.derivs, q.truncations, q.trigs))]
    norm = math.prod(math.factorial(n) for n in q.degrees)
    return exact_trig_poly_moment(atoms, cov) / norm


# ---------------------------------------------------------------------------
# correlation-lemma ratio checks


@dataclass
class RatioEntry:
    theta: tuple[float, float]
    lhs: float
    rhs: float
    ratio: float


@dataclass
class RatioReport:
    lemma: str
    grid: list[RatioEntry]
    max_ratio: float
    rejections: int


@dataclass(frozen=True)
class LemmaCheckConfig:
    n: int = 1
    m1: int = 1
    m2: int = 1
    trig1: str = "sin"
    trig2: str = "sin"
    deriv: tuple[int, int] = (0, 0)
    alpha: float = 0.6
    eps: float = 0.05
    theta_grid: tuple[float, ...] = (1.0, 10.0, 100.0)
    n_configs: int = 8
    seed: int = 7

    def __post_init__(self):
        for name, low in (("n", 1), ("m1", 0), ("m2", 0), ("n_configs", 1),
                          ("seed", 0)):
            check_integer(name, getattr(self, name), low)
        chaos.trig_phase(self.trig1)
        chaos.trig_phase(self.trig2)
        chaos.check_deriv(self.deriv)
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not self.theta_grid or not all(math.isfinite(t) for t in self.theta_grid):
            raise ValueError(f"theta_grid must be a non-empty tuple of finite "
                             f"frequencies, got {self.theta_grid}")


# hypothesis constants; BOX is a power of two, so box_points draws it exactly
LAM_CONST = 1.5
L0 = 8.0
BOX = 1.0
_LINE = ScalingGeometry((1.0,))


def check_correlation_lemma(which: str, config: LemmaCheckConfig) -> RatioReport:
    """Ratio check of one pointwise correlation bound.

    ``which`` selects the hypothesis family: 'comparable' (equal frequencies,
    arbitrary configurations), 'singleton' (dominant frequency, its point
    family has an isolated point at scale 3*n*L0*eps), or 'fixed' (dominant
    frequency, its points all coincide; the epsilon-power factor enters the
    right-hand side).  Both sides are exact at every n: the left side is
    ``exact_functional_product_moment`` of the 4n factors, the right side a
    Wick sum.  The report carries, per frequency, the configuration with
    the largest ratio.  'singleton' raises ValueError before drawing when
    the isolation scale is not below the box diameter 2*BOX.

    ``config.deriv`` differentiates the left side's factors in theta; the
    right side is the same Wick sum over chaos orders m to max(m1, m2) + 1
    at every order, with no derivative factor.  A theta-derivative raises a
    factor's top chaos order by its order, so at deriv > 0 the ratio is not
    a check of the lemma: the 'comparable' ratio grows with the order (at
    n = 1, theta = 1 from 0.021 at (0, 0) to 2.2e9 at (8, 8)).
    """
    if which not in ("comparable", "singleton", "fixed"):
        raise ValueError("which must be 'comparable', 'singleton' or 'fixed'")
    cfg = config
    scale = 3 * cfg.n * L0 * cfg.eps
    if which == "singleton" and scale >= 2 * BOX:
        raise ValueError(f"isolation scale 3*n*L0*eps = {scale:g} is not below the "
                         f"box diameter {2 * BOX:g}: no configuration has an "
                         f"isolated point")
    n2 = 2 * cfg.n
    mtop = max(cfg.m1, cfg.m2) + 1
    gen = rng.substream(cfg.seed, rng.POINTS,
                        {"comparable": 1, "singleton": 2, "fixed": 3}[which])
    ratio_thresh = 100.0 * cfg.n * (1.0 + LAM_CONST**2)
    cov_spec = CovarianceSpec(alpha=cfg.alpha, epsilon=cfg.eps)
    specs = [(cfg.trig1, cfg.m1)] * n2 + [(cfg.trig2, cfg.m2)] * n2
    derivs = [cfg.deriv[0]] * n2 + [cfg.deriv[1]] * n2
    # 'fixed' bounds by the Wick sum of the y points alone, times eps^(-alpha mtop)
    pref, lo = (cfg.eps ** (-cfg.alpha * mtop), n2) if which == "fixed" else (1.0, 0)
    ranges = ([(cfg.m1, mtop)] * n2 + [(cfg.m2, mtop)] * n2)[lo:]
    entries: list[RatioEntry] = []
    rejections = 0
    for theta in cfg.theta_grid:
        theta_pair = ((theta, theta) if which == "comparable"
                      else (theta * 1.05 * ratio_thresh, theta))
        thetas = [theta_pair[0]] * n2 + [theta_pair[1]] * n2
        grid = []
        for _ in range(cfg.n_configs):
            if which == "fixed":
                x_pts = np.repeat(box_points(gen, (1,), _LINE, BOX), n2, axis=0)
                y_pts = box_points(gen, (n2,), _LINE, BOX)
            elif which == "singleton":
                for _try in range(200):
                    x_pts = box_points(gen, (n2,), _LINE, BOX)
                    if has_isolated_point(pair_distances(x_pts, _LINE), scale):
                        break
                    rejections += 1
                else:
                    raise RuntimeError("could not sample an isolated-point configuration")
                y_pts = box_points(gen, (n2,), _LINE, BOX)
            else:
                x_pts = box_points(gen, (n2,), _LINE, BOX)
                y_pts = x_pts + gen.uniform(-L0 * cfg.eps, L0 * cfg.eps, (n2, 1))
            cov = cov_spec.normalised(pair_distances(np.concatenate([x_pts, y_pts]),
                                                     _LINE))
            lhs = exact_functional_product_moment(specs, thetas, derivs, cov)
            rhs = pref * wick_sum_moment(ranges, cov[lo:, lo:])
            ratio = abs(lhs) / rhs if rhs > 0 else math.inf
            grid.append(RatioEntry(theta=theta_pair, lhs=float(lhs), rhs=float(rhs),
                                   ratio=float(ratio)))
        # the first largest ratio; a NaN never displaces an entry
        entries.append(max(grid, key=lambda e: e.ratio))
    return RatioReport(lemma=which, grid=entries,
                       max_ratio=float(max(e.ratio for e in entries)),
                       rejections=rejections)
