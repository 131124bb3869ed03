import itertools
import math

import numpy as np
import pytest

from chaoslab import isserlis, rng
from chaoslab.chaos import PHASE_COS, PHASE_SIN, ChaosTruncSpec, \
    phase_coeff_deriv, truncated_trig_deriv
from chaoslab.field import CovarianceSpec
from chaoslab.geometry import ScalingGeometry, box_points, pair_distances
from chaoslab.isserlis import (
    LAM_CONST,
    ClusterCoeffQuery,
    LemmaCheckConfig,
    check_correlation_lemma,
    cluster_coeff,
    exact_functional_product_moment,
    exact_trig_poly_moment,
    wick_sum_moment,
)

from oracles import DMatrix, StructuralError, brute_wick_moment, \
    dmatrix_wick_sum_moment, enumerate_dmatrices, matching_wick_moment, \
    pairing_poly_trig_expectation, random_correlation, reduce_to_dstar, \
    tensor_gh_cluster_coeff

G1 = ScalingGeometry((1.0,))
PHASE = {"cos": PHASE_COS, "sin": PHASE_SIN}


def wick_moment(degrees, cov) -> float:
    """E prod_i Z_i^{<>n_i}: the Wick sum over the one-point ranges (n_i, n_i)."""
    return wick_sum_moment([(n, n) for n in degrees], cov)


def test_enumerate_forced():
    out = enumerate_dmatrices((2, 2))
    assert len(out) == 1
    assert out[0].entries[0][1] == 2


def test_enumerate_three_rows():
    out = enumerate_dmatrices((1, 1, 2))
    assert len(out) == 1
    d = out[0]
    assert d.entries[0][2] == 1 and d.entries[1][2] == 1 and d.entries[0][1] == 0


def test_enumerate_odd_total_empty():
    assert enumerate_dmatrices((1, 1, 1)) == []


def test_enumerate_row_sums_and_order():
    out = enumerate_dmatrices((2, 2, 2))
    for d in out:
        assert d.row_sums() == (2, 2, 2)
    uppers = [tuple(d.entries[i][j] for i in range(3) for j in range(i + 1, 3))
              for d in out]
    assert uppers == sorted(uppers)


def test_dmatrix_validation():
    with pytest.raises(ValueError):
        DMatrix(((1, 0), (0, 0)))  # nonzero diagonal
    with pytest.raises(ValueError):
        DMatrix(((0, 1), (2, 0)))  # asymmetric


def test_wick_moment_examples():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert wick_moment((2, 2), cov) == pytest.approx(0.5)
    rho13, rho23 = 0.3, -0.4
    cov3 = np.array([[1.0, 0.1, rho13], [0.1, 1.0, rho23], [rho13, rho23, 1.0]])
    assert wick_moment((1, 1, 2), cov3) == pytest.approx(2 * rho13 * rho23)
    assert wick_moment((1, 1, 1), cov3) == 0.0


def test_wick_moment_orthogonality():
    # E[X^{<>m} Y^{<>n}] = delta_{mn} n! rho^n at unit variances
    rho = 0.37
    cov = np.array([[1.0, rho], [rho, 1.0]])
    for m in range(5):
        for n in range(5):
            got = wick_moment((m, n), cov)
            want = math.factorial(n) * rho**n if m == n else 0.0
            assert got == pytest.approx(want, abs=1e-14)


def test_wick_moment_vs_bruteforce_small():
    gen = rng.substream(101, 1)
    for trial in range(20):
        k = int(gen.integers(2, 5))
        cov = random_correlation(gen, k)
        degs = tuple(int(v) for v in gen.integers(0, 4, size=k))
        got = wick_moment(degs, cov)
        assert got == pytest.approx(brute_wick_moment(degs, cov), abs=1e-10)
        assert got == pytest.approx(matching_wick_moment(degs, cov), rel=1e-13,
                                    abs=0.0)
        assert got == pytest.approx(dmatrix_wick_sum_moment(
            [(n, n) for n in degs], cov), rel=1e-13, abs=0.0)
    # Wick sums over ranges against the contraction-matrix enumeration
    for k in range(2, 9):
        for _ in range(3):
            cov = random_correlation(gen, k)
            lo = [int(v) for v in gen.integers(0, 3, size=k)]
            # the enumeration's cost grows with the range box; keep 8 variables
            # at most one wide range per two variables
            width = gen.integers(0, 2, size=k) if k < 7 else np.arange(k) % 2
            ranges = [(a, a + int(w)) for a, w in zip(lo, width)]
            assert wick_sum_moment(ranges, cov) == pytest.approx(
                dmatrix_wick_sum_moment(ranges, cov), rel=1e-13, abs=0.0)
    # the lemma checks' ranges
    for k, ranges in ((4, (1, 2)), (4, (2, 3)), (6, (1, 2))):
        cov = random_correlation(gen, k)
        assert wick_sum_moment([ranges] * k, cov) == pytest.approx(
            dmatrix_wick_sum_moment([ranges] * k, cov), rel=1e-13, abs=0.0)


def test_reduce_identity_when_already_reduced():
    d = DMatrix(((0, 0, 0), (0, 0, 2), (0, 2, 0)))
    out, pen = reduce_to_dstar(d, alpha=0.6, m2=2)
    assert out.entries == d.entries
    assert pen == 0.0


def test_reduce_trade_move():
    # two 0-links traded for two units on d_12, no penalty
    d = DMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    out, pen = reduce_to_dstar(d, alpha=0.6, m2=2)
    assert pen == 0.0
    assert out.entries[0][1] == 0 and out.entries[0][2] == 0
    assert out.entries[1][2] == 3


def test_reduce_rebalancing_penalty():
    # zeroing the last 0-link drops row 1 below m2 = 2; one rebalance costs 2*alpha
    alpha = 0.6
    arr = np.zeros((4, 4), dtype=int)
    arr[0, 1] = arr[1, 0] = 2
    arr[2, 3] = arr[3, 2] = 2
    d = DMatrix.from_array(arr)
    out, pen = reduce_to_dstar(d, alpha=alpha, m2=2)
    assert pen == pytest.approx(2 * alpha)
    sums = out.row_sums()
    assert all(s >= 2 for s in sums[1:])
    assert all(out.entries[0][i] == 0 for i in range(4))


def test_reduce_structural_error():
    # no rebalancing edge at all: rows 2, 3 unlinked
    arr = np.zeros((3, 3), dtype=int)
    arr[0, 1] = arr[1, 0] = 2
    d = DMatrix.from_array(arr)
    with pytest.raises(StructuralError):
        reduce_to_dstar(d, alpha=0.6, m2=2)


def _w_value(d: DMatrix, cov: np.ndarray) -> float:
    w = 1.0
    for i in range(d.size):
        for j in range(i + 1, d.size):
            if d.entries[i][j]:
                w *= cov[i, j] ** d.entries[i][j]
    return w


def test_reduce_dominates_w_numerically():
    # W_D <= C eps^{-penalty} W_{D*} on sandwich-class covariances over a
    # bounded domain; the constant absorbs the bounded-domain correlation floor
    alpha, eps, m2, mtop = 0.6, 0.1, 2, 3
    gen = rng.substream(55, 2)
    checked = 0
    for _ in range(40):
        pts = np.sort(gen.uniform(-2.0, 2.0, size=4))
        lags = np.abs(pts[:, None] - pts[None, :])
        cov = (eps / (lags + eps)) ** alpha
        for d0 in range(0, mtop + 1):
            for rest in itertools.product(range(m2, mtop + 1), repeat=3):
                for d in enumerate_dmatrices((d0,) + rest):
                    dstar, pen = reduce_to_dstar(d, alpha=alpha, m2=m2)
                    lhs = _w_value(d, cov)
                    rhs = eps ** (-pen) * _w_value(dstar, cov)
                    floor = (1.0 / (4.0 + eps)) ** alpha  # min covariance on the box
                    c = (3.0 ** alpha / floor) ** (mtop + 1)
                    assert lhs <= c * rhs + 1e-12
                    checked += 1
    assert checked > 100


def test_cluster_coeff_mean_removed():
    q = ClusterCoeffQuery(degrees=(0,), thetas=(1.3,), derivs=(0,),
                          truncations=(1,), trigs=("cos",),
                          cov=np.array([[1.0]]))
    assert cluster_coeff(q) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("trig,m", [("sin", 1), ("cos", 2), ("sin", 3)])
def test_cluster_coeff_matches_analytic(trig, m):
    theta, sigma2 = 1.1, 0.8
    for k in range(m, m + 4):
        q = ClusterCoeffQuery(degrees=(k,), thetas=(theta,), derivs=(0,),
                              truncations=(m,), trigs=(trig,),
                              cov=np.array([[sigma2]]))
        want = phase_coeff_deriv(PHASE[trig], k, theta, sigma2)
        if want == 0.0:
            # zero by parity: the integer phase sum makes it exactly 0.0
            assert cluster_coeff(q) == 0.0
        else:
            assert cluster_coeff(q) == pytest.approx(want, abs=1e-10)


def test_cluster_coeff_independence_factorizes():
    theta1, theta2 = 0.9, 1.4
    cov = np.diag([1.0, 1.2])
    q = ClusterCoeffQuery(degrees=(1, 2), thetas=(theta1, theta2), derivs=(0, 0),
                          truncations=(1, 2), trigs=("sin", "cos"),
                          cov=cov)
    got = cluster_coeff(q)
    want = (phase_coeff_deriv(PHASE_SIN, 1, theta1, 1.0)
            * phase_coeff_deriv(PHASE_COS, 2, theta2, 1.2))
    assert got == pytest.approx(want, abs=1e-10)


def test_cluster_coeff_rejects_non_psd():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])
    q = ClusterCoeffQuery(degrees=(1, 1), thetas=(1.0, 1.0), derivs=(0, 0),
                          truncations=(1, 1), trigs=("sin", "sin"), cov=cov)
    with pytest.raises(ValueError):
        cluster_coeff(q)


@pytest.mark.parametrize("k", [2, 3])
def test_cluster_coeff_at_degree_zero_is_the_factor_moment(k):
    # one atom builder serves both: at all-zero degrees its prefactor is
    # exactly 1.0, so the two agree bit for bit
    gen = rng.substream(31, k)
    nonzero = 0
    for _ in range(16):
        scale = gen.uniform(0.7, 1.3, size=k)
        cov = random_correlation(gen, k) * np.outer(scale, scale)
        trigs = tuple(str(v) for v in gen.choice(["sin", "cos"], size=k))
        ts = tuple(int(v) for v in gen.integers(0, 5, size=k))
        rs = tuple(int(v) for v in gen.integers(0, 4, size=k))
        thetas = tuple(float(v) for v in gen.uniform(0.2, 3.0, size=k))
        q = ClusterCoeffQuery(degrees=(0,) * k, thetas=thetas, derivs=rs,
                              truncations=ts, trigs=trigs, cov=cov)
        want = exact_functional_product_moment(list(zip(trigs, ts)), list(thetas),
                                               list(rs), cov)
        assert cluster_coeff(q) == want
        nonzero += want != 0.0
    assert nonzero >= 8


def _box_cov(gen, k: int) -> np.ndarray:
    """Normalised covariance of k points uniform in the radius-0.3 ball."""
    pts = box_points(gen, (k,), G1, 0.3)
    return CovarianceSpec(alpha=0.6, epsilon=0.05).normalised(
        pair_distances(pts, G1))


def test_cluster_coeff_matches_quadrature_at_moderate_frequency():
    # a 60-node tensor Gauss-Hermite rule is off by 1.6e-4 relative here
    q = ClusterCoeffQuery(degrees=(3, 3, 3), thetas=(5.0,) * 3, derivs=(1,) * 3,
                          truncations=(3,) * 3, trigs=("sin",) * 3,
                          cov=_box_cov(rng.substream(22, 1), 3))
    assert cluster_coeff(q) == pytest.approx(tensor_gh_cluster_coeff(q, 100),
                                             rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cluster_coeff_exact_at_high_frequency(k):
    # degree-1 members of sin(theta Z): the coefficient is E prod theta
    # cos(theta Z_j), the mean over frequency signs of exp(-theta^2 s'Cs / 2)
    theta = 20.0
    cov = _box_cov(rng.substream(3, k), k)
    q = ClusterCoeffQuery(degrees=(1,) * k, thetas=(theta,) * k, derivs=(0,) * k,
                          truncations=(1,) * k, trigs=("sin",) * k, cov=cov)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
    var = np.einsum("si,ij,sj->s", signs, cov, signs)
    want = theta**k * float(np.mean(np.exp(-0.5 * theta**2 * var)))
    assert 0.0 < want < 1e-100
    assert cluster_coeff(q) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cluster_coeff_block_factorizes_beyond_four_members():
    left = ClusterCoeffQuery(degrees=(1, 2), thetas=(0.9, 1.4), derivs=(0, 1),
                             truncations=(1, 2), trigs=("sin", "cos"),
                             cov=_box_cov(rng.substream(4, 1), 2))
    right = ClusterCoeffQuery(degrees=(1, 1, 3), thetas=(1.2, 0.7, 1.1),
                              derivs=(0, 0, 0), truncations=(1, 3, 3),
                              trigs=("sin", "sin", "sin"),
                              cov=_box_cov(rng.substream(4, 2), 3))
    cov = np.zeros((5, 5))
    cov[:2, :2] = left.cov
    cov[2:, 2:] = right.cov
    full = ClusterCoeffQuery(
        degrees=left.degrees + right.degrees, thetas=left.thetas + right.thetas,
        derivs=left.derivs + right.derivs,
        truncations=left.truncations + right.truncations,
        trigs=left.trigs + right.trigs, cov=cov)
    want = cluster_coeff(left) * cluster_coeff(right)
    assert want != 0.0
    assert cluster_coeff(full) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_exact_moment_vs_quadrature_pair():
    # E[T_(0)(sin(a X)) T_(1)(cos(b Y))] against tensor quadrature
    from oracles import gh_rule
    a, b, rho = 0.9, 1.4, 0.55
    cov = np.array([[1.0, rho], [rho, 1.0]])
    got = exact_functional_product_moment([("sin", 1), ("cos", 2)], [a, b], [0, 0], cov)
    x, w = gh_rule(80)
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    zx = xx
    zy = rho * xx + math.sqrt(1 - rho**2) * yy
    f = np.sin(a * zx) * (np.cos(b * zy) - math.exp(-b**2 / 2.0))
    want = float(np.sum(ww * f))
    assert got == pytest.approx(want, abs=1e-10)


def _tensor_gh_moment(specs, thetas, derivs, cov, order: int) -> float:
    """E prod_j d^r_j T_(t_j-1)(trig_j(theta_j Z_j)) by a tensor Gauss-Hermite
    rule of ``order`` nodes per variable."""
    from oracles import gh_rule
    x, w = gh_rule(order)
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    k = len(specs)
    xi = np.stack([g.reshape(-1) for g in np.meshgrid(*[x] * k, indexing="ij")])
    z = np.linalg.cholesky(cov) @ xi
    f = np.ones(())
    for _ in range(k):
        f = np.multiply.outer(f, w)
    f = f.reshape(-1)
    for j, ((trig, t), th, r) in enumerate(zip(specs, thetas, derivs)):
        f = f * truncated_trig_deriv(z[j], th, ChaosTruncSpec(trig, t).phase,
                                     t, r, cov[j, j])
    return float(np.sum(f))


COV3 = np.array([[1.3, 0.5, 0.2], [0.5, 0.8, 0.3], [0.2, 0.3, 1.1]])


@pytest.mark.parametrize("specs, thetas, derivs, order", [
    ([("sin", 3), ("sin", 3)], [1.3, 0.7], [0, 0], 120),
    ([("cos", 4), ("cos", 2)], [1.1, 2.0], [0, 0], 120),
    ([("sin", 5), ("sin", 3)], [0.9, 1.6], [0, 1], 120),
    # 6 + 5 + 5 monomial legs, past the 14 a pairing enumeration affords
    ([("sin", 3), ("cos", 2), ("sin", 1)], [1.1, 0.8, 1.4], [6, 5, 5], 60),
], ids=["sin3-sin3", "cos4-cos2", "sin5-dsin3", "dsin3-dcos2-dsin1"])
def test_exact_moment_with_polynomial_atoms_matches_quadrature(specs, thetas,
                                                                derivs, order):
    # these truncations (and the theta-derivatives) leave atoms of degree
    # >= 1, so the closed form runs through its polynomial expansion; pairs
    # of mixed parity vanish by symmetry and would test nothing
    cov = COV3[:len(specs), :len(specs)]
    got = exact_functional_product_moment(specs, thetas, derivs, cov)
    want = _tensor_gh_moment(specs, thetas, derivs, cov, order)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _random_atoms(gen, k: int, kind: str):
    """Random factor atoms for ``exact_trig_poly_moment`` on k variables.

    Factor j's first atom has the factor's largest monomial degree, at most
    6, and these sum to at most 8 (a parity fix may lift a degree 0 to 1),
    which keeps the pairing enumeration cheap.  'degree0' draws only degree-0
    atoms; 'parity0' gives every atom of factor j the parity b_j of degree
    plus phase, with sum_j b_j odd, so that the moment is 0 by symmetry.
    """
    bits = gen.integers(0, 2, size=k)
    if kind == "parity0" and bits.sum() % 2 == 0:
        bits[0] ^= 1
    while True:
        tops = gen.integers(0, 7, size=k) if kind != "degree0" else np.zeros(k, int)
        if tops.sum() <= 8:
            break
    factors = []
    for j in range(k):
        atoms = []
        for a in range(int(gen.integers(1, 4))):
            coeff = float(gen.normal())
            deg = int(tops[j]) if a == 0 else int(gen.integers(0, tops[j] + 1))
            if gen.uniform() < 0.3:
                theta, phase = None, 0
            else:
                theta, phase = float(gen.uniform(0.2, 3.0)), int(gen.integers(0, 4))
            if kind == "parity0" and (deg + phase) % 2 != bits[j]:
                if theta is None:
                    deg = deg - 1 if deg else 1
                else:
                    phase += 1
            atoms.append((coeff, deg, theta, phase))
        factors.append(atoms)
    return factors


@pytest.mark.parametrize("kind", ["mixed", "degree0", "parity0"])
def test_trig_poly_moment_matches_pairing_oracle(monkeypatch, kind):
    gen = rng.substream(20, {"mixed": 1, "degree0": 2, "parity0": 3}[kind])
    nonzero = 0
    for _ in range(24):
        k = int(gen.integers(1, 5))
        scale = gen.uniform(0.7, 1.3, size=k)
        cov = random_correlation(gen, k) * np.outer(scale, scale)
        atoms = _random_atoms(gen, k, kind)
        got = exact_trig_poly_moment(atoms, cov)
        with monkeypatch.context() as m:
            m.setattr(isserlis, "_poly_trig_expectation",
                      pairing_poly_trig_expectation)
            want = exact_trig_poly_moment(atoms, cov)
        if kind == "degree0":
            assert got == want
        elif kind == "parity0":
            assert got == 0.0 and want == 0.0
        else:
            # a mixed draw can still vanish by parity; then both are 0.0
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        nonzero += want != 0.0
    if kind != "parity0":
        assert nonzero >= 16


def test_exact_moment_block_factorization():
    # independent blocks: moment equals the product of block moments
    rho = 0.7
    block = np.array([[1.0, rho], [rho, 1.0]])
    cov = np.zeros((4, 4))
    cov[:2, :2] = block
    cov[2:, 2:] = block
    specs = [("sin", 1), ("sin", 1), ("cos", 2), ("cos", 2)]
    thetas = [1.2, 1.2, 0.8, 0.8]
    full = exact_functional_product_moment(specs, thetas, [0] * 4, cov)
    left = exact_functional_product_moment(specs[:2], thetas[:2], [0, 0], block)
    right = exact_functional_product_moment(specs[2:], thetas[2:], [0, 0], block)
    assert full == pytest.approx(left * right, abs=1e-12)
    # the Wick-sum right-hand side factorizes the same way
    rfull = wick_sum_moment([(1, 2)] * 2 + [(2, 3)] * 2, cov)
    rl = wick_sum_moment([(1, 2)] * 2, block)
    rr = wick_sum_moment([(2, 3)] * 2, block)
    assert rfull == pytest.approx(rl * rr, abs=1e-12)


def test_no_singleton_moment_positive():
    # clustered configurations keep the exact Wick-sum moment bounded below
    alpha, m = 0.6, 1
    for eps in (0.2, 0.1, 0.05):
        pts = np.array([0.0, 0.3 * eps, 0.7 * eps, 1.1 * eps])
        lags = np.abs(pts[:, None] - pts[None, :])
        cov = (eps / (lags + eps)) ** alpha
        val = wick_sum_moment([(m, m + 1)] * 4, cov)
        assert val > 0.25


def test_correlation_product_bound():
    # E(X Y_i) E(X Y_j) <= c E(Y_i Y_j) on the target covariance, d = 1
    alpha, eps = 0.6, 0.05
    gen = rng.substream(77, 3)
    lam = 1.0
    c_bound = 3.0**alpha * lam**3
    for _ in range(500):
        x, yi, yj = gen.uniform(-2, 2, size=3)
        exy_i = (eps / (abs(x - yi) + eps)) ** alpha
        exy_j = (eps / (abs(x - yj) + eps)) ** alpha
        eyy = (eps / (abs(yi - yj) + eps)) ** alpha
        assert exy_i * exy_j <= c_bound * eyy + 1e-12


def test_lemma_comparable_ratio_bounded():
    cfg = LemmaCheckConfig(n=1, theta_grid=(1.0, 10.0, 100.0), n_configs=6, seed=11)
    rep = check_correlation_lemma("comparable", cfg)
    assert rep.rejections == 0
    assert all(np.isfinite(e.ratio) for e in rep.grid)
    assert rep.max_ratio < 100.0


def test_lemma_singleton_ratio_bounded():
    cfg = LemmaCheckConfig(n=1, theta_grid=(1.0, 10.0), n_configs=6, seed=13)
    rep = check_correlation_lemma("singleton", cfg)
    assert all(np.isfinite(e.ratio) for e in rep.grid)
    assert rep.max_ratio < 100.0
    for e in rep.grid:
        assert abs(e.theta[0]) > 100 * cfg.n * (1 + LAM_CONST**2) * abs(e.theta[1])


def test_lemma_fixed_ratio_bounded():
    cfg = LemmaCheckConfig(n=1, theta_grid=(1.0, 10.0), n_configs=6, seed=17)
    rep = check_correlation_lemma("fixed", cfg)
    assert all(np.isfinite(e.ratio) for e in rep.grid)
    # the eps^{-alpha(mtop)} factor makes the right side generous
    assert rep.max_ratio < 10.0


def test_lemma_singleton_rejects_scale_beyond_box():
    # at n = 2 the isolation scale 3 * 2 * L0 * 0.05 = 2.4 exceeds the box
    # diameter 2, so no configuration can have an isolated point
    with pytest.raises(ValueError, match="isolation scale"):
        check_correlation_lemma("singleton", LemmaCheckConfig(n=2))


@pytest.mark.parametrize("which", ["comparable", "fixed"])
def test_lemma_n2_left_sides_are_exact(which):
    # at theta >= 10 the exact left side is far below any Monte Carlo error
    rep = check_correlation_lemma(which, LemmaCheckConfig(n=2))
    assert [e.theta[1] for e in rep.grid] == [1.0, 10.0, 100.0]
    assert rep.grid[0].lhs != 0.0
    for e in rep.grid[1:]:
        assert abs(e.lhs) < 1e-40
    assert all(np.isfinite(e.ratio) for e in rep.grid)


def test_lemma_check_runs_past_sixteen_legs():
    # deriv = (4, 4) puts 16 monomial legs on the four factors
    rep = check_correlation_lemma("comparable", LemmaCheckConfig(
        n=1, deriv=(4, 4), n_configs=1, theta_grid=(1.0,)))
    assert rep.grid[0].lhs != 0.0
    assert all(np.isfinite(e.ratio) for e in rep.grid)


@pytest.mark.parametrize("which", ["comparable", "fixed"])
def test_lemma_n3_runs(which):
    cfg = LemmaCheckConfig(n=3, eps=0.02, theta_grid=(1.0, 10.0), n_configs=2)
    rep = check_correlation_lemma(which, cfg)
    assert len(rep.grid) == 2
    assert all(np.isfinite(e.ratio) for e in rep.grid)
    assert rep.max_ratio < 100.0


@pytest.mark.parametrize("bad, match", [
    ({"n_configs": 0}, "n_configs"),
    ({"n": 0}, "n must"),
    ({"theta_grid": ()}, "theta_grid"),
    ({"theta_grid": (1.0, math.inf)}, "theta_grid"),
    ({"trig1": "tan"}, "trig"),
    ({"trig2": "tan"}, "trig"),
    ({"eps": math.nan}, "eps"),
    ({"eps": 1.5}, "eps"),
    ({"alpha": math.nan}, "alpha"),
    ({"m1": -1}, "m1 must be an integer >= 0, got -1"),
    ({"deriv": (0, -1)}, "deriv"),
    ({"n": 2.0}, "n must be an integer"),
    ({"n_configs": 2.0}, "n_configs must be an integer"),
    ({"m1": 1.0}, "m1 must be an integer"),
    ({"deriv": (1.0, 0)}, "deriv must be an integer >= 0, got 1.0"),
    ({"seed": 7.0}, "seed must be an integer"),
], ids=["no-configs", "n-zero", "empty-grid", "inf-theta", "trig1", "trig2",
        "nan-eps", "eps-above-one", "nan-alpha", "negative-m1", "negative-deriv",
        "float-n", "float-configs", "float-m1", "float-deriv", "float-seed"])
def test_lemma_config_rejects_bad_input(bad, match):
    with pytest.raises(ValueError, match=match):
        LemmaCheckConfig(**bad)


@pytest.mark.parametrize("ranges, cov, match", [
    ([(2, 1)] * 2, np.eye(2), "hi must be an integer >= 2, got 1"),
    ([(-1, 1)] * 2, np.eye(2), "lo must be an integer >= 0, got -1"),
    ([(1, 2)] * 2, np.array([[1.0, math.nan], [math.nan, 1.0]]), "finite"),
    ([(1, 2)] * 2, np.eye(3), "shape"),
    ([(1, 1.9)], np.eye(1), "integer"),  # once truncated to (1, 1)
], ids=["empty-range", "negative-lo", "nan-cov", "wrong-shape", "float-hi"])
def test_wick_sum_moment_rejects_bad_input(ranges, cov, match):
    with pytest.raises(ValueError, match=match):
        wick_sum_moment(ranges, cov)


@pytest.mark.parametrize("cov, match", [
    (np.array([[1.0, math.nan], [math.nan, 1.0]]), "finite"),
    (np.eye(3), "shape"),
], ids=["nan-cov", "wrong-shape"])
def test_exact_moment_rejects_bad_covariance(cov, match):
    with pytest.raises(ValueError, match=match):
        exact_functional_product_moment([("sin", 1), ("sin", 1)], [1.0, 1.0],
                                        [0, 0], cov)


@pytest.mark.parametrize("trigs, cov, match", [
    (("sin", "sin"), np.eye(3), "shape"),
    (("sin", "tan"), np.eye(2), "trig"),
], ids=["wrong-shape", "unknown-trig"])
def test_cluster_query_rejects_bad_input(trigs, cov, match):
    with pytest.raises(ValueError, match=match):
        ClusterCoeffQuery(degrees=(1, 1), thetas=(1.0, 1.0), derivs=(0, 0),
                          truncations=(1, 1), trigs=trigs, cov=cov)
