import math

import numpy as np
import pytest

from chaoslab.experiments import StudyDesign
from chaoslab.geometry import (ScalingGeometry, TestFunction, build_lattice,
                               eval_test_function_many, metric_many)
from chaoslab.kernel import (
    DIAGONAL_CELLS,
    RenormKernel,
    SingularEvaluationError,
    check_region_bounds,
    compute_re,
    eval_K0_many,
    eval_K_many,
    eval_K_pairs,
    grad_K0_many,
)
from oracles import dense_eval_K_many

G1 = ScalingGeometry((1.0,))


def eval_K0(x, k: RenormKernel) -> float:
    """The base profile at one point, by the vector route."""
    return float(eval_K0_many(np.array([x], dtype=float), k)[0])


def eval_K(x, y, k: RenormKernel) -> float:
    """The renormalised kernel at one pair, by the paired route."""
    return float(eval_K_pairs(np.array([x], dtype=float),
                              np.array([y], dtype=float), k)[0])


def taylor_cancellation_slope(k: RenormKernel, y) -> float:
    """Log-log slope of |K(x_t, y)| as x_t -> 0 along an anisotropic
    dilation of the base point, |x_t| = 0.3 t for t from 1e-3 to 0.3."""
    ts = np.geomspace(1e-3, 0.3, 12)
    xs = (0.3 * ts[:, None]) ** np.asarray(k.g.s)
    vals = np.abs(eval_K_pairs(xs, np.broadcast_to(y, xs.shape), k))
    keep = vals > 0
    if np.sum(keep) < 3:
        return math.inf
    slope, _ = np.polyfit(np.log(ts[keep]), np.log(vals[keep]), 1)
    return float(slope)


def test_compute_re_examples():
    assert compute_re(2.0, 1.0, 3) == 1
    assert compute_re(0.3, 0.6, 1) == 0
    assert compute_re(0.5, 0.2, 1) == 1
    # integer boundary: exact zero argument stays at zero
    assert compute_re(1.0, 1.0, 2) == 0
    # float dust just above an integer must not bump the ceiling
    assert compute_re(1.0 + 1e-12, 1.0, 2) == 0


def test_k0_support_and_value():
    k = RenormKernel(gamma=0.4, g=G1, r_e=0)
    assert eval_K0((1.5,), k) == 0.0
    assert eval_K0((1.0,), k) == 0.0
    assert eval_K0((0.25,), k) == pytest.approx(0.25 ** (-0.6))
    assert np.isinf(eval_K0((0.0,), k))


def test_k0_homogeneity_on_plateau():
    k = RenormKernel(gamma=0.4, g=G1, r_e=0)
    # on the chi = 1 region the profile is exactly the power
    x = 0.3
    ratio = eval_K0((x / 2.0,), k) / eval_K0((x,), k)
    assert ratio == pytest.approx(2.0 ** (1.0 - 0.4))


def test_eval_k_re0_identity():
    k = RenormKernel(gamma=0.4, g=G1, r_e=0)
    x, y = (0.1,), (0.3,)
    assert eval_K(x, y, k) == pytest.approx(eval_K0((-0.2,), k))


def test_eval_k_re1_cancels_at_zero():
    k = RenormKernel(gamma=0.4, g=G1, r_e=1)
    y = (0.4,)
    assert eval_K((0.0,), y, k) == pytest.approx(0.0, abs=1e-15)


def test_eval_k_re1_form():
    k = RenormKernel(gamma=0.4, g=G1, r_e=1)
    x, y = (0.12,), (0.5,)
    want = eval_K0((x[0] - y[0],), k) - eval_K0((-y[0],), k)
    assert eval_K(x, y, k) == pytest.approx(want)


def test_eval_k_re2_taylor_term():
    g = G1
    k = RenormKernel(gamma=0.45, g=g, r_e=2)
    x, y = (0.05,), (0.5,)
    got = eval_K(x, y, k)
    # first-order Taylor: K0(x-y) - K0(-y) - x * K0'(-y)
    step = 1e-6
    d = (eval_K0((-y[0] + step,), k) - eval_K0((-y[0] - step,), k)) / (2 * step)
    want = eval_K0((x[0] - y[0],), k) - eval_K0((-y[0],), k) - x[0] * d
    assert got == pytest.approx(want, rel=1e-5)


def test_eval_k_many_matches_scalar():
    # every entry of the matrix is the paired kernel at that pair
    k = RenormKernel(gamma=0.4, g=G1, r_e=1)
    xs = np.array([[0.05], [0.1], [-0.2]])
    ys = np.array([[0.3], [-0.7], [1.4]])
    mat = eval_K_many(xs, ys, k, step=0.0)
    xi, yj = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    pairs = eval_K_pairs(xs[xi.ravel()], ys[yj.ravel()], k).reshape(3, 3)
    assert mat == pytest.approx(pairs, rel=1e-14)


def test_eval_k_raises_at_singular_pairs():
    for r_e in (0, 1, 2):
        k = RenormKernel(gamma=0.45, g=G1, r_e=r_e)
        with pytest.raises(SingularEvaluationError):
            eval_K((0.3,), (0.3,), k)
        # one singular pair among regular ones is enough
        with pytest.raises(SingularEvaluationError):
            eval_K_pairs([[0.1], [0.3], [0.2]], [[0.5], [0.3], [0.4]], k)
        if r_e >= 1:
            for x in ((0.0,), (0.1,)):
                with pytest.raises(SingularEvaluationError):
                    eval_K(x, (0.0,), k)
            with pytest.raises(SingularEvaluationError):
                eval_K_pairs([[0.1], [0.2]], [[0.4], [0.0]], k)
    # without Taylor terms y = 0 is a regular point
    k = RenormKernel(gamma=0.45, g=G1, r_e=0)
    assert eval_K((0.1,), (0.0,), k) == eval_K0((0.1,), k)


@pytest.mark.parametrize("r_e", [0, 1, 2])
def test_eval_k_many_exclusion_rule(r_e):
    # pairs closer than DIAGONAL_CELLS steps, x = y and (at r_e >= 1) y = 0
    # read 0; every other pair is the scalar kernel
    g = ScalingGeometry((2.0, 1.0))
    k = RenormKernel(gamma=0.45, g=g, r_e=r_e)
    xs = np.array([[0.0, 0.0], [0.01, 0.1], [-0.04, 0.3]])
    ys = np.array([[0.0, 0.0], [0.01, 0.1], [0.01, 0.3], [0.09, -0.5]])
    step = 0.25
    mat = eval_K_many(xs, ys, k, step)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            r = max(abs(x[0] - y[0]) ** 0.5, abs(x[1] - y[1]))
            if r < DIAGONAL_CELLS * step or (r_e >= 1 and not np.any(y)):
                assert mat[i, j] == 0.0
            else:
                assert mat[i, j] == pytest.approx(eval_K(x, y, k), rel=1e-14)


def _operator_pairs(test: TestFunction, lattice, y_radius: float = 2.0):
    """The x and y points of an operator set-up's kernel matrix."""
    pts = lattice.points()
    x = pts[eval_test_function_many(test, pts) > 0.0]
    return x, pts[metric_many(pts, lattice.geometry) <= y_radius]


def _float_dust_case():
    # d = 1, h = 0.05, lambda = 0.4: the float rule drops 14 of the 30
    # nearest-neighbour pairs, and the table route must drop the same ones
    lat = build_lattice(G1, 0.05, 2.0)
    x, y = _operator_pairs(TestFunction(G1, 0.4), lat)
    offsets = np.rint((x[:, None, 0] - y[None, :, 0]) / 0.05)
    neighbours = np.abs(offsets) == 1
    r = np.abs(x[:, None, 0] - y[None, :, 0])
    assert (neighbours.sum(), (neighbours & (r < 0.05)).sum()) == (30, 14)
    return G1, x, y, 0.05


def _sweep_d2_case():
    # the kernel matrix of the sweep_d2 benchmark design, s = (2, 1)
    design = StudyDesign(alpha=0.6, m1=1, m2=1, trig1="sin", trig2="sin",
                         gamma=0.4, s=(2.0, 1.0), h=0.1, extent=3.0)
    setup = design.operator_setup(0.2)
    return (design.geometry, *_operator_pairs(setup.test, setup.lattice),
            design.h)


def _random_case(s):
    # off-lattice points, with duplicate pairs (x = y), y = 0, shared
    # coordinates on axis 0 and pairs at radius up to 0.01 .. 0.1, on both
    # sides of the exclusion width 0.05
    g = ScalingGeometry(s)
    gen = np.random.default_rng(5)
    x = gen.uniform(-1.0, 1.0, (40, g.d))
    y = gen.uniform(-1.5, 1.5, (60, g.d))
    y[:5] = x[:5]
    y[5] = 0.0
    x[6:10, 0] = y[6:10, 0]
    radius = np.linspace(0.01, 0.1, 10)[:, None]
    y[10:20] = x[10:20] + gen.uniform(-1.0, 1.0, (10, g.d)) * radius ** np.asarray(s)
    r = metric_many(x[10:20] - y[10:20], g)
    assert np.any(r < 0.05) and np.any(r > 0.05)
    return g, x, y, 0.05


CASES = {"float_dust_d1": _float_dust_case, "sweep_d2": _sweep_d2_case,
         "random_d2": lambda: _random_case((2.0, 1.0)),
         "random_d3": lambda: _random_case((1.0, 2.0, 3.0))}


@pytest.mark.parametrize("r_e", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_eval_k_many_matches_dense_oracle(case, r_e):
    # the per-axis table route reproduces the full-difference route bit for
    # bit, exclusion rule included
    g, x, y, step = CASES[case]()
    k = RenormKernel(gamma=0.45 if r_e == 2 else 0.4, g=g, r_e=r_e)
    got = eval_K_many(x, y, k, step)
    want = dense_eval_K_many(x, y, k, step)
    assert np.array_equal(got, want)
    assert np.count_nonzero(got) > 0 and np.count_nonzero(got == 0.0) > 0


def test_region_bounds_re0_at_most_one():
    k = RenormKernel(gamma=0.4, g=G1, r_e=0)
    rep = check_region_bounds(k, n_samples=4000, seed=1)
    assert rep.max_ratio["all"] <= 1.0 + 1e-9


def test_region_bounds_re1_finite_and_stable():
    k = RenormKernel(gamma=0.4, g=G1, r_e=1)
    rep1 = check_region_bounds(k, n_samples=4000, seed=1)
    rep2 = check_region_bounds(k, n_samples=8000, seed=2)
    for name in ("far", "mid", "near"):
        assert np.isfinite(rep1.max_ratio[name])
        assert np.isfinite(rep2.max_ratio[name])
        assert rep2.max_ratio[name] <= rep1.max_ratio[name] * 1.2 + 1e-9 or \
            rep1.max_ratio[name] <= rep2.max_ratio[name]


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, 0.0])
def test_kernel_rejects_bad_cutoff(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        RenormKernel(gamma=0.4, g=G1, r_e=0, cutoff=cutoff)


@pytest.mark.parametrize("n_samples", [0, -3, 4000.0])
def test_region_bounds_reject_no_samples(n_samples):
    k = RenormKernel(gamma=0.4, g=G1, r_e=1)
    with pytest.raises(ValueError, match="n_samples"):
        check_region_bounds(k, n_samples)


def test_taylor_cancellation_slopes():
    for r_e in (0, 1, 2):
        gamma = 0.45 if r_e == 2 else 0.4
        k = RenormKernel(gamma=gamma, g=G1, r_e=r_e)
        slope = taylor_cancellation_slope(k, (0.45,))
        assert slope >= r_e - 0.05


def test_integrable_singularity():
    # away from fixed windows around the singular points the Riemann sums
    # agree on refinement; inside, dyadic shell masses decay geometrically,
    # so the full integral of |K(x, .)| over |y| <= 2 is finite
    k = RenormKernel(gamma=0.4, g=G1, r_e=1)
    x0 = 0.07
    x = np.array([[x0]])
    delta = 0.02
    vals = {}
    for h in (0.01, 0.005):
        lat = build_lattice(G1, h, 2.0)
        ys = lat.points()
        kv = eval_K_many(x, ys, k, step=0.0)[0]
        # fractional weights for cells straddling the exclusion boundary
        w = np.clip((np.abs(ys[:, 0] - x0) + h / 2 - delta) / h, 0.0, 1.0)
        w *= np.clip((np.abs(ys[:, 0]) + h / 2 - delta) / h, 0.0, 1.0)
        vals[h] = float(np.sum(np.abs(kv) * w) * lat.cell_volume)
    assert vals[0.01] == pytest.approx(vals[0.005], rel=0.02)
    # dyadic shell masses around the x-singularity decay geometrically
    # (asymptotic ratio 2^{-gamma} ~ 0.76), so the excluded mass is summable
    h = 2e-5
    offs = np.arange(-int(0.13 / h), int(0.13 / h) + 1) * h
    ys = (x0 + offs).reshape(-1, 1)
    kv = np.abs(eval_K_many(x, ys, k, step=0.0)[0])
    r = np.abs(ys[:, 0] - x0)
    masses = []
    for kshell in range(7, 12):
        hi, lo = 2.0 ** (-kshell), 2.0 ** (-kshell - 1)
        sel = (r >= lo) & (r < hi)
        masses.append(float(np.sum(kv[sel]) * h))
    ratios = [b / a for a, b in zip(masses, masses[1:])]
    assert all(rr < 0.9 for rr in ratios)


def test_kernel_norm_finiteness():
    # sup over |x| <= 1 of |x|^{|s|-gamma+|k|} |D^k K0| finite for |k| <= 3
    k = RenormKernel(gamma=0.4, g=G1, r_e=0)
    xs = np.geomspace(1e-4, 0.999, 200).reshape(-1, 1)
    p = 1.0 - 0.4
    step = 1e-5
    vals0 = eval_K0_many(xs, k)
    assert np.all(np.isfinite(xs[:, 0] ** p * vals0))
    # first derivative by central differences
    d1 = (eval_K0_many(xs + step, k) - eval_K0_many(xs - step, k)) / (2 * step)
    w1 = np.abs(xs[:, 0] ** (p + 1) * d1)
    assert np.max(w1) < 50.0


def test_gradient_integrates_to_profile_across_cutoff():
    # on the line the gradient is K0', so its integral over the cutoff's
    # transition region (0.5, 1) must give back the profile's increment
    from scipy.integrate import quad
    k = RenormKernel(gamma=0.4, g=G1, r_e=0)
    integral, _ = quad(lambda x: grad_K0_many(np.array([[x]]), k)[0, 0],
                       0.5, 0.95, epsabs=0.0, epsrel=1e-13, limit=200)
    want = eval_K0((0.95,), k) - eval_K0((0.5,), k)
    assert integral == pytest.approx(want, rel=1e-10, abs=0.0)
