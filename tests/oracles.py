"""Independent numerical oracles shared by the test suite.

Nothing here reuses the package's analytic formulas: expectations come from
quadrature, joint moments from explicit pairing enumeration, and derivatives
from finite differences.
"""

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_hermitenorm, roots_legendre

from chaoslab import kernel, rng, stats
from chaoslab.chaos import phase_coeff_deriv, truncated_trig_deriv
from chaoslab.geometry import eval_test_function_many, metric_many
from chaoslab.nonlinearity import (
    _BLOCK,
    _TAIL_TOL,
    TailTruncationError,
    _bump_rule,
    _probe_family,
    _probe_transform,
)


def _orthonormal_hermite(x, order):
    """Orthonormal probabilists' Hermite values p_order, p_{order-1}, sum_{k<order} p_k^2."""
    norm = np.longdouble(1.0) / np.sqrt(np.sqrt(np.longdouble(2.0) * np.pi))
    pkm1 = np.ones_like(x) * norm
    pk = x * norm
    s = pkm1**2
    for k in range(1, order):
        s = s + pk**2
        pkp1 = (x * pk - np.sqrt(np.longdouble(k)) * pkm1) / np.sqrt(np.longdouble(k + 1))
        pkm1, pk = pk, pkp1
    return pk, pkm1, s


@lru_cache(maxsize=8)
def gh_rule(order: int):
    """Gauss-Hermite rule for weight exp(-x^2/2), refined in extended precision.

    Double-precision nodes limit the rule to ~1e-14 absolute accuracy on
    oscillatory integrands; three Newton corrections in longdouble push the
    floor to ~1e-18, which the chaos-coefficient identity needs after its
    theta**n/n! amplification.
    """
    x = roots_hermitenorm(order)[0].astype(np.longdouble)
    for _ in range(3):
        pn, pn1, _ = _orthonormal_hermite(x, order)
        x = x - pn / (np.sqrt(np.longdouble(order)) * pn1)
    _, _, s = _orthonormal_hermite(x, order)
    w = 1.0 / s
    return x, w / np.sum(w)


def gauss_expect(f, order: int = 400) -> float:
    """E f(Z) for standard normal Z by the extended-precision rule."""
    x, w = gh_rule(order)
    return float(np.sum(w * f(x)))


def isserlis_monomial_moment(powers, cov) -> float:
    """E prod_i Z_i^{q_i} by full pairing enumeration (self-pairs allowed)."""
    legs = []
    for i, q in enumerate(powers):
        legs.extend([i] * q)
    if len(legs) % 2 == 1:
        return 0.0

    def pairings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for i in range(len(rest)):
            for tail in pairings(rest[:i] + rest[i + 1:]):
                yield [(first, rest[i])] + tail

    cov = np.asarray(cov, dtype=float)
    total = []
    for p in pairings(legs):
        prod = 1.0
        for a, b in p:
            prod *= cov[a, b]
        total.append(prod)
    return math.fsum(total)


def hermite_monomial_coeffs(k: int, sigma2: float):
    """Coefficients c_j with Z^{<>k} = sum_j c_j Z^j for Var Z = sigma2."""
    sigma = math.sqrt(sigma2)
    herm = np.polynomial.hermite_e.herme2poly([0.0] * k + [1.0])
    return [float(h) * sigma ** (k - j) for j, h in enumerate(herm)]


def brute_wick_moment(degrees, cov) -> float:
    """E prod Z_i^{<>n_i} by expanding every Wick power into plain monomials.

    Fully independent of the contraction-matrix route: uses Hermite
    coefficient expansion plus plain Isserlis with self-pairings.
    """
    cov = np.asarray(cov, dtype=float)
    per_var = [
        [(j, c) for j, c in enumerate(hermite_monomial_coeffs(n, cov[i, i])) if c != 0.0]
        for i, n in enumerate(degrees)
    ]
    total = []
    for combo in itertools.product(*per_var):
        coeff = 1.0
        powers = []
        for j, c in combo:
            coeff *= c
            powers.append(j)
        total.append(coeff * isserlis_monomial_moment(powers, cov))
    return math.fsum(total)


@lru_cache(maxsize=4096)
def matching_contributions(degrees: tuple) -> tuple:
    """All no-self-loop perfect matchings for a degree vector, as index pairs.

    Cached per degree vector so that sweeping many covariances stays cheap.
    Returns a tuple of matchings; each matching is a tuple of (i, j) pairs of
    variable indices.
    """
    legs = []
    for i, q in enumerate(degrees):
        legs.extend([i] * q)
    out = []

    def rec(items, acc):
        if not items:
            out.append(tuple(acc))
            return
        first, rest = items[0], items[1:]
        for i in range(len(rest)):
            if rest[i] == first:
                continue  # Wick powers forbid self-contractions
            acc.append((first, rest[i]))
            rec(rest[:i] + rest[i + 1:], acc)
            acc.pop()

    if len(legs) % 2 == 0:
        rec(legs, [])
    return tuple(out)


def matching_wick_moment(degrees, cov) -> float:
    """E prod Z_i^{<>n_i} by direct no-self-loop perfect-matching enumeration."""
    ms = matching_contributions(tuple(int(d) for d in degrees))
    if not ms:
        return 0.0
    cov = np.asarray(cov, dtype=float)
    total = [math.prod(cov[a, b] for a, b in m) for m in ms]
    return math.fsum(total)


# ---------------------------------------------------------------------------
# Wick moments by contraction-matrix enumeration: the sum over symmetric
# zero-diagonal D with prescribed row sums n_i of
# (prod_i n_i!) / (prod_{i<j} d_ij!) * prod_{i<j} cov_ij ** d_ij

MAX_ENUM_VARS = 12


# The contraction matrices D (entry d_ij counts pairings between the legs of
# variables i and j), with the reduction moves that push a matrix with a
# distinguished index 0 into the zero-first-row class at a quantified
# epsilon-exponent cost.  No study reports the reduction; its tests keep it
# checked against the exact Wick sums.


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


def dmatrix_wick_moment(degrees, cov) -> float:
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


def dmatrix_wick_sum_moment(ranges, cov) -> float:
    """E prod_i (sum_{k in range_i} Z_i^{<>k}), ranges given as (lo, hi) pairs.

    The enumeration route the package used before it read Wick sums off the
    Hermite generating function.
    """
    terms = []
    for degs in itertools.product(*[range(lo, hi + 1) for lo, hi in ranges]):
        terms.append(dmatrix_wick_moment(degs, cov))
    return math.fsum(terms)


def _ld_truncated_trig_deriv(z, theta: float, phase: int, t: int, r: int,
                            sigma2: float):
    """``chaos.truncated_trig_deriv`` in extended precision: the trig term
    and the Wick powers in longdouble, the chaos coefficients as the
    package rounds them."""
    ld = np.longdouble
    sigma = np.sqrt(ld(sigma2))
    out = z**r * np.cos(ld(theta) * z + ld(phase + r) * (np.pi / ld(2.0)))
    hkm1, hk = np.ones_like(z), z / sigma
    for k in range(max(t, 0)):
        c = phase_coeff_deriv(phase, k, theta, sigma2, r=r)
        out = out - ld(c) * sigma**k * hkm1
        hkm1, hk = hk, (z / sigma) * hk - (k + 1) * hkm1
    return out


def tensor_gh_cluster_coeff(q, order: int) -> float:
    """``isserlis.cluster_coeff`` by a tensor Gauss-Hermite rule of ``order``
    nodes per member over the Cholesky factor of the joint covariance, in
    extended precision.  The integrand is each member's mixed derivative
    d^n/dz^n d^r/dtheta^r, taken as theta^n times the factor phase-shifted
    by n with n fewer chaos terms removed, with Leibniz in theta."""
    cov = np.asarray(q.cov, dtype=float)
    k = len(q.degrees)
    nodes, weights = gh_rule(order)
    xi = np.stack([g.reshape(-1) for g in
                   np.meshgrid(*([nodes] * k), indexing="ij")])
    z = np.linalg.cholesky(cov).astype(np.longdouble) @ xi
    f = np.ones(xi.shape[1], dtype=np.longdouble)
    for g in np.meshgrid(*([weights] * k), indexing="ij"):
        f = f * g.reshape(-1)
    for j, (n, th, r, t, trig) in enumerate(zip(q.degrees, q.thetas, q.derivs,
                                                 q.truncations, q.trigs)):
        phase = {"cos": 0, "sin": 3}[trig]
        deriv = np.zeros_like(z[j])
        for s in range(min(r, n) + 1):
            pref = math.comb(r, s) * math.perm(n, s) * np.longdouble(th) ** (n - s)
            deriv = deriv + pref * _ld_truncated_trig_deriv(
                z[j], th, phase + n, t - n, r - s, float(cov[j, j]))
        f = f * deriv
    return float(np.sum(f)) / math.prod(math.factorial(n) for n in q.degrees)


def random_correlation(gen, k: int) -> np.ndarray:
    """Random PSD correlation-like matrix with unit-order diagonal."""
    a = gen.standard_normal((k, k + 2))
    c = a @ a.T / (k + 2)
    d = np.sqrt(np.diag(c))
    return c / np.outer(d, d)


def _bump(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def two_panel_mollified_deriv(spec, ell: int, u, nodes: int = 96):
    """(F^(ell) * rho_delta)(u) with two Gauss-Legendre panels at every point.

    The slow route the package used before it took one panel away from the
    kink: a power kind splits (-1, 1) at t* = clip(u / delta) for every
    point, so points with |u| >= delta carry a zero-width second panel; a
    polynomial kind takes one panel.  Only ``spec._raw_deriv`` is shared
    with the package.
    """
    u_in = np.asarray(u, dtype=float)
    u = np.atleast_1d(u_in)
    delta = spec.delta
    t, w = roots_legendre(nodes)
    mass = float(np.sum(w * _bump(t)))
    if spec.kind == "polynomial":
        vals = spec._raw_deriv(ell, u[..., None] - delta * t)
        out = (vals * _bump(t)) @ w / mass
    else:
        tstar = np.clip(u / delta, -1.0, 1.0)
        out = np.zeros_like(u)
        panels = ((np.full_like(u, -1.0), tstar), (tstar, np.full_like(u, 1.0)))
        for a, b in panels:
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            tt = mid[..., None] + half[..., None] * t
            vals = spec._raw_deriv(ell, u[..., None] - delta * tt)
            out += half * ((_bump(tt) * vals) @ w) / mass
    return float(out[0]) if u_in.ndim == 0 else out


@lru_cache(maxsize=1)
def _legendre_rule():
    return roots_legendre(96)


@lru_cache(maxsize=1)
def _mollifier_mass() -> float:
    t, w = _legendre_rule()
    return float(np.sum(w * _bump(t)))


@lru_cache(maxsize=1)
def _mollifier_weights() -> np.ndarray:
    t, w = _legendre_rule()
    return w * _bump(t) / _mollifier_mass()


def legendre_mollified_deriv(spec, ell: int, u: np.ndarray) -> np.ndarray:
    """The package's former ``nonlinearity._mollified_block``, kept verbatim
    (with ``_bump`` for ``geometry.bump_profile``, the same function).

    One 96-node Gauss-Legendre panel times the bump for points with no kink
    inside the support, two panels split at the kink otherwise; accurate to
    about 3.5e-7 relative inside (-delta, delta) at ell = 2.  A test that
    monkeypatches it in for ``_mollified_block`` reproduces the numbers
    recorded in ``golden_design.json`` bit for bit.
    """
    delta = spec.delta
    t, w = _legendre_rule()
    out = np.empty_like(u)
    if spec.kind == "polynomial":
        smooth = np.ones(u.shape, dtype=bool)
    else:
        smooth = np.abs(u) >= delta
    us = u[smooth]
    out[smooth] = spec._raw_deriv(ell, us[:, None] - delta * t) @ _mollifier_weights()
    if smooth.all():
        return out
    ui = u[~smooth]
    mass = _mollifier_mass()
    tstar = np.clip(ui / delta, -1.0, 1.0)
    acc = np.zeros_like(ui)
    for a, b in ((np.full_like(ui, -1.0), tstar), (tstar, np.full_like(ui, 1.0))):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        tt = mid[:, None] + half[:, None] * t
        vals = spec._raw_deriv(ell, ui[:, None] - delta * tt)
        acc += half * ((_bump(tt) * vals) @ w) / mass
    out[~smooth] = acc
    return out



def allocating_raw_deriv(spec, ell: int, u):
    """F^(ell) of a power kind as ``NonlinearitySpec._raw_deriv`` wrote it
    before it worked in place: ``c * |u| ** a * sgn``, which allocates the
    modulus, its power, a sign array (ones for an even kind) and two
    products.  (c, a, odd) come from the spec's ``_power_law``."""
    u = np.asarray(u, dtype=float)
    c, a, odd = spec._power_law(ell)
    sgn = np.sign(u) if odd else np.ones_like(u)
    return c * np.abs(u) ** a * sgn


def allocating_outside_rule(spec, ell: int, u: np.ndarray) -> np.ndarray:
    """The outside rule of ``nonlinearity._mollified_block`` as the package
    wrote it before it took one temporary: :func:`allocating_raw_deriv` at
    u - delta t, then ``@ w`` over the 32-node bump rule.

    A power kind's points with |u / delta| < 1 read NaN; the rest are taken
    per block of ``_BLOCK`` points as the package walks them, so every row
    of the node sum sits where the package puts it.
    """
    t, w = _bump_rule()
    delta = spec.delta
    out = np.full(u.shape, np.nan)
    for start in range(0, u.size, _BLOCK):
        block = u[start:start + _BLOCK]
        smooth = np.abs(block / delta) >= 1.0
        out[start:start + _BLOCK][smooth] = allocating_raw_deriv(
            spec, ell, block[smooth][:, None] - delta * t) @ w
    return out

def _rho(t: float) -> float:
    return math.exp(1.0 - 1.0 / (1.0 - t * t)) if abs(t) < 1.0 else 0.0


@lru_cache(maxsize=1)
def quad_bump_mass() -> float:
    """The bump's mass on (-1, 1) by adaptive quadrature."""
    return quad(_rho, -1.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400)[0]


def _power_law(spec, ell: int):
    """(c, a, odd) with F^(ell)(v) = c |v|^a sign(v)^odd, from the definitions."""
    p = spec.beta + (2.0 if spec.kind == "power_even" else 3.0)
    return (math.prod(p - j for j in range(ell)), p - ell,
            bool((ell + (spec.kind == "power_odd")) % 2))


def _scalar_deriv(spec, ell: int):
    """F^(ell) as a function of one float, written from the definitions."""
    if spec.kind == "polynomial":
        coeffs = [float(c) for c in np.polynomial.polynomial.polyder(spec.coeffs, ell)]
        return lambda v: math.fsum(c * v**k for k, c in enumerate(coeffs))
    c, a, odd = _power_law(spec, ell)
    return lambda v: c * abs(v) ** a * (math.copysign(1.0, v) if odd else 1.0)


@lru_cache(maxsize=1)
def _reference_rules() -> dict:
    """(n, a) -> (nodes, weights) of the Gauss rules for the weight
    (1 - x)^a on (-1, 1) in gauss_rules.json, computed at 40 digits by
    make_gauss_rules.py and stored as the nearest doubles."""
    data = json.loads((Path(__file__).parent / "gauss_rules.json").read_text())
    return {(r["n"], r["a"]): (np.array(r["x"]), np.array(r["w"]))
            for r in data["rules"]}


def reference_gauss_rule(n: int, a: float):
    """The committed n-point reference rule for the weight (1 - x)^a; a
    missing (n, a) is added in make_gauss_rules.py."""
    return _reference_rules()[(n, a)]


def gauss_jacobi_kink_deriv(spec, ell: int, u):
    """(F^(ell) * rho_delta)(u) for a power kind at points inside (-delta, delta),
    by the 80-node reference Gauss-Jacobi rule on each side of the kink at
    every point.

    The package's route before it read the sides from a cached table.  The
    kink sits at t* = u / delta; on the side of half-width h, F^(ell)(u -
    delta t) is c (delta h)^a (1 - x)^a (times a sign on the right side of
    an odd case) with a = p - ell and x the side's reference coordinate, so
    the rule for the weight (1 - x)^a leaves only the bump, at the distances
    z = h (1 + x) to the support's end, where 1 - t^2 = z (2 - z).  The
    power law, the bump and its mass are computed here, not taken from the
    package.
    """
    u_in = np.asarray(u, dtype=float)
    tstar = u_in.reshape(-1) / spec.delta
    if spec.kind == "polynomial" or np.any(np.abs(tstar) >= 1.0):
        raise ValueError("the kink route needs a power kind and |u| < delta")
    c, a, odd = _power_law(spec, ell)
    x, w = reference_gauss_rule(80, a)
    mass = quad_bump_mass()
    sides = []
    for h in (0.5 * (1.0 + tstar), 0.5 * (1.0 - tstar)):
        z = h[:, None] * (1.0 + x)
        sides.append(h ** (a + 1.0) * (np.exp(1.0 - 1.0 / (z * (2.0 - z))) @ w))
    left, right = sides
    out = c * spec.delta**a / mass * (left - right if odd else left + right)
    return float(out[0]) if u_in.ndim == 0 else out.reshape(u_in.shape)


def quad_mollified_deriv(spec, ell: int, u):
    """(F^(ell) * rho_delta)(u) by adaptive quadrature, split at the kink.

    A power kind's integrand t -> F^(ell)(u - delta t) is non-smooth at
    t* = clip(u / delta, -1, 1), so (-1, 1) is split there and each part
    goes to scipy ``quad``; a polynomial kind takes one part.  The bump's
    mass comes from ``quad`` too.  Nothing is shared with the package.
    """
    u_in = np.asarray(u, dtype=float)
    delta = spec.delta
    fd = _scalar_deriv(spec, ell)
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=400)
    mass = quad_bump_mass()
    out = np.empty(u_in.shape)
    for i, x in np.ndenumerate(u_in):
        def integrand(t, x=float(x)):
            return fd(x - delta * t) * _rho(t)

        cuts = [-1.0, 1.0]
        if spec.kind != "polynomial":
            cuts.insert(1, min(max(x / delta, -1.0), 1.0))
        out[i] = sum(quad(integrand, a, b, **opts)[0]
                     for a, b in zip(cuts, cuts[1:]) if b > a) / mass
    return float(out) if u_in.ndim == 0 else out


def quad_gaussian_mean(fn, sigma2: float) -> float:
    """The package's former ``nonlinearity.gaussian_mean``, kept verbatim.

    Adaptive ``quad`` over each half-line in z = u / sigma with a scalar
    integrand, so the kink at 0 sits at an endpoint.  A test that
    monkeypatches it in for ``gaussian_mean`` reproduces the numbers
    recorded in ``golden_design.json`` bit for bit.
    """
    if not 0.0 <= sigma2 < math.inf:  # also rejects NaN
        raise ValueError(f"Gaussian mean needs a finite, non-negative variance, "
                         f"got sigma2 = {sigma2!r}")
    sigma = math.sqrt(sigma2)

    def integrand(z):
        return float(fn(sigma * z)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    left, _ = quad(integrand, -np.inf, 0.0, epsabs=1e-11, epsrel=1e-11, limit=200)
    right, _ = quad(integrand, 0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=200)
    return left + right


def split_quad_gaussian_mean(fn, sigma2: float, cut: float) -> float:
    """E fn(Z), Z ~ N(0, sigma2), by scalar ``quad`` in z = u / sigma, split
    at 0 and +-cut: every point where a mollified derivative at scale
    cut * sigma stops being analytic is an endpoint.  Each of (0, cut) and
    (-cut, 0) is handed over in four equal parts, where one part let
    ``quad`` stop at two subintervals 7e-14 short of the integral.
    """
    sigma = math.sqrt(sigma2)

    def integrand(z):
        return float(fn(sigma * z)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    inner = list(np.linspace(0.0, cut, 5)) if cut > 0.0 else [0.0]
    cuts = [-np.inf] + [-c for c in inner[:0:-1]] + inner + [np.inf]
    return math.fsum(quad(integrand, a, b, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(cuts, cuts[1:]))


def full_torus_field_values(spectrum, seed: int, indices) -> np.ndarray:
    """Whole-torus field draws by one full complex transform per draw.

    The route the package used before it paired draws 2j and 2j + 1 in one
    complex transform: each draw's real noise, of the spectrum's torus
    shape, goes through its own complex ``fftn``/``ifftn`` and the imaginary
    half is discarded.  Only the noise substreams and the spectrum are
    shared with the package.
    """
    indices = np.asarray(indices, dtype=int)
    shape = spectrum.eigenvalues.shape
    w = np.empty((len(indices),) + shape)
    for row, idx in enumerate(indices):
        w[row] = rng.substream(seed, rng.FIELD, int(idx)).standard_normal(shape)
    axes = tuple(range(1, len(shape) + 1))
    wh = np.fft.fftn(w, axes=axes)
    xh = wh * np.sqrt(spectrum.eigenvalues)[None, ...]
    return np.real(np.fft.ifftn(xh, axes=axes))


def full_complex_field_values(spectrum, seed: int, indices) -> np.ndarray:
    """:func:`full_torus_field_values` sliced to the lattice, the torus's
    leading window."""
    window = tuple(slice(n) for n in spectrum.lattice.shape)
    return full_torus_field_values(spectrum, seed, indices)[(slice(None),)
                                                             + window]


def torus_lag_products(values: np.ndarray, lags) -> np.ndarray:
    """Site averages of x(p) x(p + k) over whole torus draws, one column per
    lag multi-index k, by shifting each draw (no transform)."""
    axes = tuple(range(1, values.ndim))
    return np.stack([np.mean(values * np.roll(values, [-k_i for k_i in k],
                                              axis=axes), axis=axes)
                     for k in lags], axis=1)


def own_operator_arrays(setup) -> dict:
    """x/y index sets, test weights and kernel matrix of one operator set-up,
    built on its own: x over the set-up's test support, y over its ball of
    radius y_radius less the columns where the kernel vanishes on that
    support, and the kernel from :func:`dense_eval_K_many`.  Nothing is read
    of the package's operator arrays, so a wrong row map or a shared matrix
    read at the wrong rows shows against it."""
    lat = setup.lattice
    pts = lat.points()
    phi = eval_test_function_many(setup.test, pts)
    x_idx = np.nonzero(phi > 0.0)[0]
    y_idx = np.nonzero(metric_many(pts, lat.geometry) <= setup.y_radius)[0]
    kmat = dense_eval_K_many(pts[x_idx], pts[y_idx], setup.kernel,
                             lat.base_step)
    live = np.any(kmat != 0.0, axis=0)
    return dict(x_idx=x_idx, y_idx=y_idx[live], xw=phi[x_idx] * lat.cell_volume,
                kmat=kmat[:, live] * lat.cell_volume)


def per_config_operator_values(cfg, values, sigma2: float, alpha: float,
                               epsilon: float) -> np.ndarray:
    """Operator sums of one config over a batch of raw draws, factor by factor.

    The route ``operator`` used before configs shared their trig factors and
    their kernel matrix: the set-up's arrays are built on their own
    (:func:`own_operator_arrays`), the whole draw is normalised, and both
    factors are evaluated on the config's own x and y columns.  Only the
    test function, the metric, the kernel profile and the truncated trig
    factor are shared with the package.
    """
    st, fn = own_operator_arrays(cfg.setup), cfg.functional
    flat = (epsilon ** (alpha / 2.0) * values).reshape(len(values), -1)
    fx = truncated_trig_deriv(flat[:, st["x_idx"]], fn.theta[0],
                              fn.spec_x.phase, fn.spec_x.m, fn.deriv[0], sigma2)
    gy = truncated_trig_deriv(flat[:, st["y_idx"]], fn.theta[1],
                              fn.spec_y.phase, fn.spec_y.m, fn.deriv[1], sigma2)
    inner = gy @ st["kmat"].T
    return np.einsum("bx,x,bx->b", inner, st["xw"], fx)


def dense_eval_K_many(x_points, y_points, k, step: float) -> np.ndarray:
    """``kernel.eval_K_many`` from the full (Nx, Ny, d) difference array.

    The route the package used before it read the pair radii off per-axis
    distance tables: every pair's metric is the max over the last axis of
    |x - y|^(1/s), the profile is taken on every kept pair and the Taylor
    terms are subtracted from the columns with y != 0.  The profile, its
    gradient and the exclusion width are shared with the package.
    """
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
    exps = 1.0 / np.asarray(k.g.s)
    r = np.max(np.abs(x_points[:, None, :] - y_points[None, :, :]) ** exps,
               axis=-1)
    keep = (r >= kernel.DIAGONAL_CELLS * step) & (r > 0.0)
    out = np.zeros_like(r)
    out[keep] = kernel._k0_of_radius(r[keep], k)
    if k.r_e >= 1:
        off = np.any(y_points != 0.0, axis=1)
        keep &= off
        out[:, off] -= kernel.eval_K0_many(-y_points[off], k)
        if k.r_e >= 2:
            grad = kernel.grad_K0_many(-y_points[off], k)
            out[:, off] -= np.einsum("xi,yi->xy", x_points, grad)
    out[~keep] = 0.0
    return out


def per_draw_model_field(mf, seed: int, indices) -> np.ndarray:
    """Model field draws by one full complex transform per draw.

    The route ``models`` used before its draws went through the paired
    synthesiser of ``field``: each draw's real noise is convolved with the
    stencil by its own complex ``fftn``/``ifftn`` and the imaginary half is
    discarded.  Only the noise substreams and the stencil are shared with
    the package.
    """
    shape = mf.lattice.shape
    out = np.empty((len(indices),) + shape)
    for row, idx in enumerate(indices):
        w = rng.substream(seed, rng.MODEL, int(idx)).standard_normal(shape)
        conv = np.real(np.fft.ifftn(np.fft.fftn(w) * mf.stencil_fft))
        out[row] = math.sqrt(mf.lattice.cell_volume) * conv
    return out


def gather_bootstrap_means(x: np.ndarray, seed: int, tag: int) -> np.ndarray:
    """``stats.bootstrap_means`` by gathering the resampled rows.

    The route the package used before it counted each block's resample
    indices: a block of resamples gathers its rows, (rows, m, *rest), and
    takes their mean over m, with the block holding at most
    ``stats.BOOTSTRAP_BLOCK`` resampled values.  The index stream and the
    constants are shared with the package.
    """
    m = len(x)
    gen = rng.substream(seed, rng.BOOTSTRAP, tag)
    out = np.empty((stats.BOOTSTRAP_RESAMPLES,) + x.shape[1:])
    rows = max(1, stats.BOOTSTRAP_BLOCK // x.size)
    for lo in range(0, stats.BOOTSTRAP_RESAMPLES, rows):
        hi = min(lo + rows, stats.BOOTSTRAP_RESAMPLES)
        out[lo:hi] = np.mean(x[gen.integers(0, m, size=(hi - lo, m))], axis=1)
    return out


def loop_bootstrap_moment_norm(values, n: int, seed: int = 0, tag: int = 0,
                               resamples: int = 500):
    """[(point, (lo, hi))] of the moment norm per column of ``values``, with
    one resample per loop step.

    ``values`` holds draws, or (draws, cells).  The bootstrap the package
    used before it drew its resample indices in (rows, m) blocks: each
    resample is one ``integers(0, m, size=m)`` call on the (seed, BOOTSTRAP,
    tag) substream, shared by every column, and one mean of the picked rows.
    """
    values = np.asarray(values, dtype=float)
    table = values.reshape(len(values), -1)
    m = len(table)
    powers = np.abs(table) ** (2 * n)
    points = [float(np.mean(col) ** (1.0 / (2 * n))) for col in powers.T]
    gen = rng.substream(seed, rng.BOOTSTRAP, tag)
    boot = np.empty((resamples, table.shape[1]))
    for b in range(resamples):
        pick = gen.integers(0, m, size=m)
        boot[b] = np.mean(powers[pick], axis=0) ** (1.0 / (2 * n))
    out = []
    for col, point in zip(boot.T, points):
        lo, hi = np.percentile(col, [2.5, 97.5])
        out.append((point, (float(min(lo, point)), float(max(hi, point)))))
    return out


def permutation_chain_class(points, L_eps: float, g) -> bool:
    """Chain-class membership by walking every ordering of the points.

    The route the package used before its chain test shared the chain
    enumeration of the partition check: a Hamiltonian path in the proximity
    graph, each ordering tried once up to reversal.  Only the metric is
    shared with the package.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    if m == 1:
        return True
    adj = metric_many(pts[:, None, :] - pts[None, :, :], g) <= L_eps
    for perm in itertools.permutations(range(m)):
        if perm[0] > perm[-1]:
            continue  # path reversal symmetry
        if all(adj[perm[i], perm[i + 1]] for i in range(m - 1)):
            return True
    return False

# ---------------------------------------------------------------------------
# clustering by union-find: an independent route to the isolated-point test


@dataclass(frozen=True)
class ClusterPartition:
    scale: float
    classes: tuple[tuple[int, ...], ...]
    singletons: tuple[tuple[int, ...], ...]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def build_clusters(points, L_eps: float, g) -> ClusterPartition:
    """Union-find closure of the relation |z_i - z_j| <= L_eps.

    A configuration has an isolated point iff some class is a singleton,
    which ``clustering.has_isolated_point`` decides from distances alone.
    Only the metric is shared with the package.
    """
    if L_eps <= 0:
        raise ValueError("clustering scale must be positive")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != g.d:
        raise ValueError("point dimension mismatch")
    n = pts.shape[0]
    dist = metric_many(pts[:, None, :] - pts[None, :, :], g)
    uf = _UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= L_eps:
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    classes = tuple(sorted(tuple(sorted(v)) for v in groups.values()))
    singles = tuple(c for c in classes if len(c) == 1)
    return ClusterPartition(scale=float(L_eps), classes=classes, singletons=singles)


def probe_transform_full_fft(n_probes: int, m_probe: int, x_max: float,
                             dx_target: float):
    """(x, Psi, step) of ``nonlinearity._probe_transform``, the x >= 0 half
    and its grid step, by one complex FFT per probe.

    The slow route the package used before it took one batched real FFT at
    the shortest exact length: each probe is zero-padded to 2^21 samples,
    transformed in full and every ``stride``-th bin is kept.  Only the probe
    family is shared with the package.
    """
    u, probes = _probe_family(n_probes, m_probe)
    du = float(u[1] - u[0])
    nfft = 1 << 21
    dx0 = 2.0 * math.pi / (nfft * du)
    stride = max(int(round(dx_target / dx0)), 1)
    step = stride * dx0
    m_max = int(x_max / step)
    xpos = np.arange(m_max + 1) * step
    out_pos = np.empty((n_probes, m_max + 1), dtype=complex)
    for j in range(n_probes):
        padded = np.zeros(nfft)
        padded[:len(u)] = probes[j]
        fh = np.fft.fft(padded)[::stride][:m_max + 1]
        out_pos[j] = du * np.exp(-1j * u[0] * xpos) * fh
    return xpos, out_pos, step


def per_probe_factor_pairings(values, center: int, m_probe: int,
                              n_probes: int, x_max: float, dx: float):
    """(pairings, absolute masses) of ``nonlinearity._factor_pairings``,
    one probe at a time on the whole grid.

    The route the package took before it formed f times the modulation once,
    paired every probe in one matrix product and folded the grid onto
    x >= 0: the two-sided transform is rebuilt from Psi(-x) = conj Psi(x),
    and per probe the integrand f(x) e^{-i center x} Psi_j(x) over
    -x_max..x_max, its trapezoid sum at the grid's own spacing (the x >= 0
    half's x[1] - x[0]) and the sum of its modulus, with the same tail
    guard.  The masses sum |integrand| step / 2 pi are the scale of the
    pairings' rounding.  Only the probe transform's x >= 0 half is shared
    with the package.
    """
    xpos, psi_pos, _, fits = _probe_transform(n_probes, m_probe, x_max, dx)
    step = float(xpos[1] - xpos[0])  # exact: xpos[0] = 0
    x = np.concatenate([-xpos[:0:-1], xpos])
    psi = np.concatenate([np.conj(psi_pos[:, :0:-1]), psi_pos], axis=1)
    xt = np.geomspace(x_max, 20.0 * x_max, 200)
    with np.errstate(all="ignore"):
        fvals = values(x)
        ft = np.abs(values(xt))
    mod = np.exp(-1j * center * x)
    out = np.empty(n_probes)
    mass = np.empty(n_probes)
    for j in range(n_probes):
        integrand = fvals * mod * psi[j]
        total = np.trapezoid(integrand, dx=step) / (2.0 * math.pi)
        whole_abs = float(np.sum(np.abs(integrand))) * step
        amp, rate = fits[j]
        if rate <= 0.0:
            raise TailTruncationError("no usable decay fit; widen x_max")
        tail_abs = 200.0 * float(np.trapezoid(
            ft * amp * np.exp(-rate * np.sqrt(xt)), xt))
        if tail_abs > _TAIL_TOL * whole_abs:
            raise TailTruncationError(
                f"extrapolated tail share {tail_abs / whole_abs:.3g} exceeds "
                f"{_TAIL_TOL:.1g}; widen x_max")
        out[j] = abs(total)
        mass[j] = whole_abs / (2.0 * math.pi)
    return out, mass


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


def pairing_poly_trig_expectation(var_idx, degrees, trig_vars, trig_thetas,
                                  phase: int, cov) -> float:
    """``isserlis._poly_trig_expectation`` by enumerating every partial
    matching of the monomial legs: matched legs contract through C, each
    unmatched leg through (C tau) times a factor i folded into the real part.
    The count grows like the telephone numbers, so keep the degree small.
    """
    cos_q = (1.0, 0.0, -1.0, 0.0)  # cos(q*pi/2) for q mod 4
    tvec = np.zeros(cov.shape[0])
    for v, th in zip(trig_vars, trig_thetas):
        tvec[v] += th
    var_t = float(tvec @ cov @ tvec)
    if var_t > 1490.0:
        return 0.0
    legs: list[int] = []
    for v, q in zip(var_idx, degrees):
        legs.extend([v] * q)
    cov_t = cov @ tvec
    cos_p = cos_q[phase % 4]
    sin_p = cos_q[(phase - 1) % 4]
    total = 0.0
    for pairs, singles in _partial_pairings(legs):
        prod = 1.0
        for a, b in pairs:
            prod *= cov[a, b]
        n_single = len(singles)
        for s in singles:
            prod *= cov_t[s]
        if n_single % 2 == 0:
            total += prod * ((-1.0) ** (n_single // 2)) * cos_p
        else:
            total += -prod * ((-1.0) ** ((n_single - 1) // 2)) * sin_p
    return math.exp(-0.5 * var_t) * total
