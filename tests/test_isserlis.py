import itertools
import math

import numpy as np
import pytest

from chaoslab import rng
from chaoslab.chaos import ChaosTruncSpec, trig_chaos_coeff, \
    truncated_trig_deriv
from chaoslab.isserlis import (
    LAM_CONST,
    ClusterCoeffQuery,
    DMatrix,
    LemmaCheckConfig,
    StructuralError,
    check_correlation_lemma,
    cluster_coeff,
    enumerate_dmatrices,
    exact_functional_product_moment,
    reduce_to_dstar,
    wick_moment,
    wick_sum_moment,
)

from oracles import brute_wick_moment, matching_wick_moment, random_correlation


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
        assert got == pytest.approx(matching_wick_moment(degs, cov), abs=1e-10)


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
        assert cluster_coeff(q) == pytest.approx(
            trig_chaos_coeff(trig, k, theta, sigma2), abs=1e-10)


def test_cluster_coeff_independence_factorizes():
    theta1, theta2 = 0.9, 1.4
    cov = np.diag([1.0, 1.2])
    q = ClusterCoeffQuery(degrees=(1, 2), thetas=(theta1, theta2), derivs=(0, 0),
                          truncations=(1, 2), trigs=("sin", "cos"),
                          cov=cov)
    got = cluster_coeff(q)
    want = trig_chaos_coeff("sin", 1, theta1, 1.0) * trig_chaos_coeff("cos", 2, theta2, 1.2)
    assert got == pytest.approx(want, abs=1e-10)


def test_cluster_coeff_rejects_non_psd():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])
    q = ClusterCoeffQuery(degrees=(1, 1), thetas=(1.0, 1.0), derivs=(0, 0),
                          truncations=(1, 1), trigs=("sin", "sin"), cov=cov)
    with pytest.raises(ValueError):
        cluster_coeff(q)


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


@pytest.mark.parametrize("specs, thetas, derivs", [
    ([("sin", 3), ("sin", 3)], [1.3, 0.7], [0, 0]),
    ([("cos", 4), ("cos", 2)], [1.1, 2.0], [0, 0]),
    ([("sin", 5), ("sin", 3)], [0.9, 1.6], [0, 1]),
], ids=["sin3-sin3", "cos4-cos2", "sin5-dsin3"])
def test_exact_moment_with_polynomial_atoms_matches_quadrature(specs, thetas,
                                                                derivs):
    # these truncations (and the theta-derivative) leave atoms of degree >= 1,
    # so the closed form runs through its pairings; pairs of mixed parity
    # vanish by symmetry and would test nothing
    from oracles import gh_rule
    cov = np.array([[1.3, 0.5], [0.5, 0.8]])
    got = exact_functional_product_moment(specs, thetas, derivs, cov)
    x, w = gh_rule(120)
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    xi = np.stack([g.reshape(-1) for g in np.meshgrid(x, x, indexing="ij")])
    z = np.linalg.cholesky(cov) @ xi
    f = np.outer(w, w).reshape(-1)
    for j, ((trig, t), th, r) in enumerate(zip(specs, thetas, derivs)):
        f = f * truncated_trig_deriv(z[j], th, ChaosTruncSpec(trig, t).phase,
                                     t, r, cov[j, j])
    want = float(np.sum(f))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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
