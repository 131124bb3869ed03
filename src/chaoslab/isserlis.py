"""Exact joint Wick moments via symmetric contraction matrices.

A contraction matrix D is a symmetric, zero-diagonal matrix of non-negative
integers; entry d_ij counts pairings between the legs of variables i and j.
The joint moment of Wick powers is the sum over all D with prescribed row
sums of

    (prod_i n_i!) / (prod_{i<j} d_ij!) * prod_{i<j} cov_ij ** d_ij,

with the combinatorial factor carried in exact integer arithmetic.  The
module also implements the reduction moves that push a matrix with a
distinguished index 0 into the zero-first-row class at a quantified
epsilon-exponent cost, cluster chaos coefficients by Gauss-Hermite
quadrature, a closed-form evaluator for Gaussian moments of products of
trig factors and polynomials, and Monte-Carlo-vs-exact ratio checks for the
pointwise correlation bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_hermitenorm

from . import chaos, rng
from .clustering import has_isolated_point
from .field import CovarianceSpec
from .geometry import ScalingGeometry, box_points, pair_distances

MAX_ENUM_VARS = 12


class StructuralError(RuntimeError):
    """A reduction move required by the algorithm is unavailable."""


@dataclass(frozen=True)
class DMatrix:
    """Symmetric zero-diagonal non-negative integer contraction matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != k:
                raise ValueError("matrix must be square")
            if row[i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(k):
                if row[j] < 0:
                    raise ValueError("entries must be non-negative")
                if row[j] != self.entries[j][i]:
                    raise ValueError("matrix must be symmetric")

    @classmethod
    def from_array(cls, arr) -> "DMatrix":
        a = np.asarray(arr, dtype=int)
        return cls(tuple(tuple(int(v) for v in row) for row in a))

    @property
    def size(self) -> int:
        return len(self.entries)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)


def enumerate_dmatrices(row_sums) -> list[DMatrix]:
    """All contraction matrices with the given row sums, lexicographic in the upper triangle.

    An odd total degree admits no matrix and yields the empty list.
    """
    rs = [int(v) for v in row_sums]
    k = len(rs)
    if k > MAX_ENUM_VARS:
        raise ValueError(f"at most {MAX_ENUM_VARS} variables supported")
    if any(v < 0 for v in rs):
        raise ValueError("row sums must be non-negative")
    if sum(rs) % 2 == 1:
        return []
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    mat = [[0] * k for _ in range(k)]
    resid = rs[:]
    out: list[DMatrix] = []

    def rec(idx: int):
        if idx == len(pairs):
            if all(v == 0 for v in resid):
                out.append(DMatrix(tuple(tuple(row) for row in mat)))
            return
        i, j = pairs[idx]
        closes_i = j == k - 1
        closes_j = (i, j) == (k - 2, k - 1)
        lo, hi = 0, min(resid[i], resid[j])
        if closes_i:
            # last free entry in row i: forced to exhaust its residual
            if resid[i] > resid[j]:
                return
            lo = hi = resid[i]
            if closes_j and resid[j] != resid[i]:
                return
        for v in range(lo, hi + 1):
            mat[i][j] = mat[j][i] = v
            resid[i] -= v
            resid[j] -= v
            rec(idx + 1)
            resid[i] += v
            resid[j] += v
            mat[i][j] = mat[j][i] = 0

    rec(0)
    return out


def _pairing_weight(degrees, d: DMatrix) -> int:
    num = 1
    for n in degrees:
        num *= math.factorial(n)
    den = 1
    for i in range(d.size):
        for j in range(i + 1, d.size):
            den *= math.factorial(d.entries[i][j])
    return num // den


def wick_moment(degrees, cov) -> float:
    """Exact E prod_i Z_i^{<>n_i} for jointly Gaussian Z with covariance ``cov``.

    Self-contractions never occur (Wick powers are Hermite-orthogonalised),
    so only off-diagonal covariances enter.
    """
    deg = [int(v) for v in degrees]
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (len(deg), len(deg)):
        raise ValueError("degree/covariance size mismatch")
    terms = []
    for d in enumerate_dmatrices(deg):
        w = float(_pairing_weight(deg, d))
        p = 1.0
        for i in range(d.size):
            for j in range(i + 1, d.size):
                if d.entries[i][j]:
                    p *= cov[i, j] ** d.entries[i][j]
        terms.append(w * p)
    return math.fsum(terms)


def wick_sum_moment(ranges, cov) -> float:
    """E prod_i (sum_{k in range_i} Z_i^{<>k}), ranges given as (lo, hi) pairs."""
    terms = []
    for degs in itertools.product(*[range(lo, hi + 1) for lo, hi in ranges]):
        terms.append(wick_moment(degs, cov))
    return math.fsum(terms)


def reduce_to_dstar(d: DMatrix, alpha: float, m2: int) -> tuple[DMatrix, float]:
    """Push a matrix with distinguished index 0 into the zero-first-row class.

    Two moves: (i) while two links d_0i, d_0j > 0 exist, trade them for two
    units on d_ij (no cost); (ii) zero the last remaining 0-link, then, while
    that row's sum is below m2, move one unit off some d_ij onto d_{i*,i} and
    d_{i*,j} at an epsilon-exponent cost of 2*alpha per move.  Returns the
    reduced matrix and the accumulated penalty exponent (at most
    alpha*(m2+1)).
    """
    k = d.size
    mat = [list(row) for row in d.entries]
    while True:
        pos = [i for i in range(1, k) if mat[0][i] > 0]
        if len(pos) <= 1:
            break
        i, j = pos[0], pos[1]
        mat[0][i] -= 1
        mat[i][0] -= 1
        mat[0][j] -= 1
        mat[j][0] -= 1
        mat[i][j] += 2
        mat[j][i] += 2
    penalty = 0.0
    pos = [i for i in range(1, k) if mat[0][i] > 0]
    if pos:
        istar = pos[0]
        mat[0][istar] = 0
        mat[istar][0] = 0
        while sum(mat[istar]) < m2:
            move = None
            for i in range(1, k):
                if i == istar:
                    continue
                for j in range(i + 1, k):
                    if j != istar and mat[i][j] > 0:
                        move = (i, j)
                        break
                if move:
                    break
            if move is None:
                raise StructuralError("no rebalancing edge available; malformed degrees")
            i, j = move
            mat[istar][i] += 1
            mat[i][istar] += 1
            mat[istar][j] += 1
            mat[j][istar] += 1
            mat[i][j] -= 1
            mat[j][i] -= 1
            penalty += 2.0 * alpha
    out = DMatrix(tuple(tuple(row) for row in mat))
    sums = out.row_sums()
    if any(out.entries[0][i] != 0 for i in range(1, k)) or any(s < m2 for s in sums[1:]):
        raise StructuralError("reduction did not reach the target class; malformed input")
    return out, penalty


# ---------------------------------------------------------------------------
# cluster chaos coefficients


_CLUSTER_QUAD_ORDER = 60  # Gauss-Hermite nodes per member in cluster_coeff


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
        if k > 4:
            raise ValueError("cluster quadrature supports at most 4 members")
        if not (len(self.thetas) == len(self.derivs) == len(self.truncations)
                == len(self.trigs) == k):
            raise ValueError("per-member fields must have equal length")


def cluster_coeff(q: ClusterCoeffQuery) -> float:
    """Coefficient of the cluster's Wick monomial in the truncated-trig product.

    Tensorised Gauss-Hermite over the joint Gaussian (Cholesky factor), with
    the integrand built from the closed-form mixed derivatives.
    """
    cov = np.asarray(q.cov, dtype=float)
    k = len(q.degrees)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("cluster covariance is not positive definite") from exc
    nodes, weights = roots_hermitenorm(_CLUSTER_QUAD_ORDER)
    weights = weights / math.sqrt(2.0 * math.pi)
    grids = np.meshgrid(*([nodes] * k), indexing="ij")
    xi = np.stack([g.reshape(-1) for g in grids], axis=0)
    z = chol @ xi
    w = np.ones(xi.shape[1])
    wg = np.meshgrid(*([weights] * k), indexing="ij")
    for g in wg:
        w = w * g.reshape(-1)
    integrand = np.ones(xi.shape[1])
    for j in range(k):
        phase = chaos._TRIG_PHASE[q.trigs[j]]
        integrand = integrand * chaos.dtheta_dz_truncated_trig(
            z[j], q.thetas[j], phase, q.truncations[j], q.degrees[j], q.derivs[j],
            float(cov[j, j]))
    norm = 1.0
    for n in q.degrees:
        norm *= math.factorial(n)
    return float(np.sum(w * integrand)) / norm


# ---------------------------------------------------------------------------
# exact Gaussian moments of products of trig factors and polynomials


def truncated_factor_atoms(phase: int, theta: float, t: int, r: int,
                           sigma2: float) -> list[tuple[float, int, float | None, int]]:
    """Expand d^r/dtheta^r of a truncated trig factor into atoms.

    Each atom is (coeff, monomial degree, frequency or None, phase); a
    frequency of None marks a pure polynomial atom.
    """
    atoms: list[tuple[float, int, float | None, int]] = [(1.0, r, theta, phase + r)]
    sigma = math.sqrt(sigma2)
    for k in range(max(t, 0)):
        c = chaos.phase_coeff_deriv(phase, k, theta, sigma2, r=r)
        if c == 0.0:
            continue
        herm = np.polynomial.hermite_e.herme2poly([0.0] * k + [1.0])
        for j, hj in enumerate(herm):
            if hj != 0.0:
                atoms.append((-c * hj * sigma ** (k - j), j, None, 0))
    return atoms


def _partial_pairings(legs: list[int]):
    """Yield (pairs, singles) decompositions of the index list ``legs``."""
    if not legs:
        yield [], []
        return
    first, rest = legs[0], legs[1:]
    for pairs, singles in _partial_pairings(rest):
        yield pairs, [first] + singles
    for i in range(len(rest)):
        sub = rest[:i] + rest[i + 1:]
        for pairs, singles in _partial_pairings(sub):
            yield [(first, rest[i])] + pairs, singles


def _poly_trig_expectation(var_idx: list[int], degrees: list[int],
                           trig_vars: list[int], trig_thetas: list[float],
                           phi: float, cov: np.ndarray) -> float:
    """E[ prod Z_{var_idx}^{deg} * cos(sum trig_thetas*Z_trig + phi) ] in closed form."""
    tvec = np.zeros(cov.shape[0])
    for v, th in zip(trig_vars, trig_thetas):
        tvec[v] += th
    var_t = float(tvec @ cov @ tvec)
    legs: list[int] = []
    for v, q in zip(var_idx, degrees):
        legs.extend([v] * q)
    cov_t = cov @ tvec
    total = 0.0
    for pairs, singles in _partial_pairings(legs):
        prod = 1.0
        for a, b in pairs:
            prod *= cov[a, b]
        n_single = len(singles)
        for s in singles:
            prod *= cov_t[s]
        # i**n_single folded into the real part below
        if n_single % 2 == 0:
            contrib = prod * ((-1.0) ** (n_single // 2)) * math.cos(phi)
        else:
            contrib = -prod * ((-1.0) ** ((n_single - 1) // 2)) * math.sin(phi)
        total += contrib
    if var_t > 1490.0:
        return 0.0
    return math.exp(-0.5 * var_t) * total


def exact_trig_poly_moment(factor_atoms: list[list[tuple]], cov) -> float:
    """E of a product of factors, each a sum of trig/polynomial atoms.

    Factor j is a function of Gaussian Z_j; ``cov`` is the joint covariance.
    Used as the exact small-configuration route for the correlation lemmas
    (Monte Carlo and quadrature both lose the exponentially small values at
    large frequencies).
    """
    cov = np.asarray(cov, dtype=float)
    total = []
    for combo in itertools.product(*factor_atoms):
        coeff = 1.0
        var_idx, degrees = [], []
        trig_vars, trig_thetas, trig_phis = [], [], []
        for j, (c, deg, theta, phase) in enumerate(combo):
            coeff *= c
            if deg:
                var_idx.append(j)
                degrees.append(deg)
            if theta is not None:
                trig_vars.append(j)
                trig_thetas.append(theta)
                trig_phis.append(phase * math.pi / 2.0)
        if coeff == 0.0:
            continue
        if sum(degrees) > 14:
            raise ValueError("polynomial degree too large for exact pairing expansion")
        if trig_vars:
            # product of cosines -> mean over +-1 frequency sign patterns
            acc = 0.0
            for signs in itertools.product((1.0, -1.0), repeat=len(trig_vars) - 1):
                svec = (1.0,) + signs
                thetas = [s * th for s, th in zip(svec, trig_thetas)]
                phi = sum(s * p for s, p in zip(svec, trig_phis))
                acc += _poly_trig_expectation(var_idx, degrees, trig_vars, thetas,
                                              phi, cov)
            acc /= 2.0 ** (len(trig_vars) - 1)
            total.append(coeff * acc)
        else:
            total.append(coeff * _poly_trig_expectation(var_idx, degrees, [], [],
                                                        0.0, cov))
    return math.fsum(total)


def exact_functional_product_moment(specs, thetas, derivs, cov) -> float:
    """Exact E prod_j d^r_j/dtheta^r_j T_(t_j-1)(trig_j(theta_j Z_j)).

    ``specs`` is a list of (trig, t) pairs; the joint covariance supplies the
    per-variable variances.
    """
    cov = np.asarray(cov, dtype=float)
    atoms = []
    for j, ((trig, t), th, r) in enumerate(zip(specs, thetas, derivs)):
        phase = chaos._TRIG_PHASE[trig]
        atoms.append(truncated_factor_atoms(phase, th, t, r, float(cov[j, j])))
    return exact_trig_poly_moment(atoms, cov)


# ---------------------------------------------------------------------------
# correlation-lemma ratio checks


@dataclass
class RatioEntry:
    theta: tuple[float, float]
    lhs: float
    rhs: float
    ratio: float
    ci: tuple[float, float]


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
    n_mc: int = 20000
    seed: int = 7


# hypothesis constants; BOX is a power of two, so box_points draws it exactly
LAM_CONST = 1.5
L0 = 8.0
BOX = 1.0
_LINE = ScalingGeometry((1.0,))


def _mc_lhs(cov: np.ndarray, specs, thetas, derivs, n_mc: int,
            gen: np.random.Generator) -> tuple[float, float, float]:
    """Monte-Carlo estimate (mean, lo, hi) of the functional-product mean;
    variables are columns of the draw."""
    w, v = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    root = v * np.sqrt(w)
    xi = gen.standard_normal((n_mc, cov.shape[0]))
    z = xi @ root.T
    prod = np.ones(n_mc)
    for j, ((trig, t), th, r) in enumerate(zip(specs, thetas, derivs)):
        phase = chaos._TRIG_PHASE[trig]
        prod *= chaos.truncated_trig_deriv(z[:, j], th, phase, t, r, float(cov[j, j]))
    mean = float(np.mean(prod))
    se = float(np.std(prod, ddof=1) / math.sqrt(n_mc))
    return mean, mean - 3 * se, mean + 3 * se


def check_correlation_lemma(which: str, config: LemmaCheckConfig) -> RatioReport:
    """Ratio check of one pointwise correlation bound.

    ``which`` selects the hypothesis family: 'comparable' (equal frequencies,
    arbitrary configurations), 'singleton' (dominant frequency, its point
    family has an isolated point at scale 3*n*L0*eps), or 'fixed' (dominant
    frequency, its points all coincide; the epsilon-power factor enters the
    right-hand side).  The left side is estimated by Monte Carlo (exactly for
    2n = 2), the right side is exact, and the report carries the largest
    observed ratio.
    """
    if which not in ("comparable", "singleton", "fixed"):
        raise ValueError("which must be 'comparable', 'singleton' or 'fixed'")
    cfg = config
    n2 = 2 * cfg.n
    mtop = max(cfg.m1, cfg.m2) + 1
    which_tag = {"comparable": 1, "singleton": 2, "fixed": 3}[which]
    gen = rng.substream(cfg.seed, rng.POINTS, which_tag)
    ratio_thresh = 100.0 * cfg.n * (1.0 + LAM_CONST**2)
    entries: list[RatioEntry] = []
    rejections = 0
    use_exact = cfg.n == 1
    for theta in cfg.theta_grid:
        if which == "comparable":
            theta_pair = (theta, theta)
        else:
            theta_pair = (theta * 1.05 * ratio_thresh, theta)
        best = None
        for _ in range(cfg.n_configs):
            if which == "fixed":
                x_pts = np.repeat(box_points(gen, (1,), _LINE, BOX), n2, axis=0)
                y_pts = box_points(gen, (n2,), _LINE, BOX)
            elif which == "singleton":
                scale = 3 * cfg.n * L0 * cfg.eps
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
            pts = np.concatenate([x_pts, y_pts])
            cov = CovarianceSpec(alpha=cfg.alpha, epsilon=cfg.eps).normalised(
                pair_distances(pts, _LINE))
            specs = [(cfg.trig1, cfg.m1)] * n2 + [(cfg.trig2, cfg.m2)] * n2
            thetas = [theta_pair[0]] * n2 + [theta_pair[1]] * n2
            derivs = [cfg.deriv[0]] * n2 + [cfg.deriv[1]] * n2
            if use_exact:
                lhs = exact_functional_product_moment(specs, thetas, derivs, cov)
                lo = hi = lhs
            else:
                lhs, lo, hi = _mc_lhs(cov, specs, thetas, derivs, cfg.n_mc, gen)
            if which == "fixed":
                ranges = [(cfg.m2, mtop)] * n2
                rhs = (cfg.eps ** (-cfg.alpha * mtop)
                       * wick_sum_moment(ranges, cov[n2:, n2:]))
            else:
                ranges = ([(cfg.m1, mtop)] * n2) + ([(cfg.m2, mtop)] * n2)
                rhs = wick_sum_moment(ranges, cov)
            ratio = abs(lhs) / rhs if rhs > 0 else math.inf
            entry = RatioEntry(theta=theta_pair, lhs=float(lhs), rhs=float(rhs),
                               ratio=float(ratio), ci=(float(lo), float(hi)))
            if best is None or entry.ratio > best.ratio:
                best = entry
        entries.append(best)
    max_ratio = max(e.ratio for e in entries)
    return RatioReport(lemma=which, grid=entries, max_ratio=float(max_ratio),
                       rejections=rejections)
