import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.clustering import (
    _chain_mask,
    has_isolated_point,
    partition_sum_check,
    volume_lemma_check,
    volume_Sc,
)
from chaoslab.geometry import ScalingGeometry, pair_distances
from chaoslab.kernel import RenormKernel
from oracles import build_clusters, permutation_chain_class

G1 = ScalingGeometry((1.0,))


def pts(*vals):
    return np.array(vals, dtype=float).reshape(-1, 1)


def isolated(points, L_eps: float, g: ScalingGeometry = G1) -> bool:
    """Whether one configuration has a point farther than L_eps from the rest."""
    return bool(has_isolated_point(pair_distances(points, g), L_eps))


def chain_class(points, L_eps: float, g: ScalingGeometry) -> bool:
    """Whether some ordering of one configuration has all gaps <= L_eps."""
    adj = pair_distances(points, g) <= L_eps
    return bool(_chain_mask(adj[None], tuple(range(len(points))))[0])


def test_build_clusters_forced():
    L = 0.1
    part = build_clusters(pts(0.0, 0.4 * L, 10 * L), L, G1)
    assert part.classes == ((0, 1), (2,))
    assert part.singletons == ((2,),)


def test_build_clusters_coincident():
    part = build_clusters(pts(0.3, 0.3, 0.3), 0.05, G1)
    assert part.classes == ((0, 1, 2),)


def test_build_clusters_chain_condition():
    L = 1.0
    part = build_clusters(pts(0.0, 0.9 * L, 1.8 * L), L, G1)
    assert part.classes == ((0, 1, 2),)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6), st.randoms())
def test_build_clusters_permutation_invariant(vals, rnd):
    order = list(range(len(vals)))
    rnd.shuffle(order)
    a = build_clusters(pts(*vals), 0.3, G1)
    arr = [vals[i] for i in order]
    b = build_clusters(pts(*arr), 0.3, G1)
    # class structure matches up to the relabelling
    remapped = tuple(sorted(tuple(sorted(order.index(i) for i in c)) for c in a.classes))
    # order maps new index -> old position; invert
    inv = {old: new for new, old in enumerate(order)}
    remapped = tuple(sorted(tuple(sorted(inv[i] for i in c)) for c in a.classes))
    assert remapped == b.classes


def test_in_s2n_examples():
    L = 0.2
    assert isolated(pts(0.0, 2 * L), L) is True
    assert isolated(pts(0.0, 0.5 * L), L) is False
    # two tight pairs far apart: no isolated point
    assert isolated(pts(0.0, 0.3 * L, 5.0, 5.0 + 0.3 * L), L) is False


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6))
def test_in_s2n_iff_singleton_cluster(vals):
    L = 0.25
    part = build_clusters(pts(*vals), L, G1)
    assert isolated(pts(*vals), L) == (len(part.singletons) >= 1)


def test_chain_class_membership():
    L = 1.0
    assert chain_class(pts(0.0, 0.9, 1.8), L, G1) is True
    assert chain_class(pts(0.0, 0.9, 5.0), L, G1) is False


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                min_size=1, max_size=6),
       st.sampled_from([(1.0, 1.0), (2.0, 1.0)]))
def test_chain_class_matches_permutation_oracle(vals, s):
    g = ScalingGeometry(s)
    points = np.array(vals, dtype=float).reshape(-1, 2)
    assert chain_class(points, 0.6, g) is \
        permutation_chain_class(points, 0.6, g)


def test_volume_all_clustered():
    # eps >= 4*lam: the whole ball diameter is below the scale, zero separated
    n, eps, lam = 1, 0.4, 0.1
    est = volume_Sc(n, eps, lam, G1, n_mc=20_000, seed=3)
    box = (2 * (2 * lam)) ** (2 * n)
    assert est.volume == pytest.approx(box)
    assert est.hits == est.n_mc


def test_volume_two_point_exact():
    # d=1, n=1: |{(z1,z2) in [-a,a]^2 : |z1-z2| <= scale}| = 4*a*scale - scale^2
    n, eps, lam = 1, 0.05, 0.5
    a = 2 * lam
    scale = eps
    exact = 4 * a * scale - scale**2
    est = volume_Sc(n, eps, lam, G1, n_mc=400_000, seed=5)
    assert est.ci[0] <= exact <= est.ci[1]
    assert est.volume == pytest.approx(exact, rel=0.15)


def test_volume_bound_ratio_stable():
    n, lam = 1, 0.25
    ratios = []
    for i, eps in enumerate((lam, lam / 4, lam / 16)):
        est = volume_Sc(n, eps, lam, G1, n_mc=400_000, seed=11 + i)
        ratios.append(est.volume / est.bound)
    assert max(ratios) / min(ratios) < 6.0


@pytest.mark.parametrize("n, L, match", [
    (0, 1.0, "n must be an integer >= 1, got 0"),
    (1.5, 1.0, "n must be an integer >= 1, got 1.5"),
    # partition_sum_check raised a bare TypeError from its 2n budget test
    (None, 1.0, "n must be an integer >= 1, got None"),
    (1, -1.0, "L must be positive, got -1.0"),
    (1, 0.0, "L must be positive, got 0.0")],
    ids=["n0", "fractional-n", "none-n", "negative-L", "zero-L"])
def test_volume_checks_reject_invalid_input(n, L, match):
    with pytest.raises(ValueError, match=match):
        volume_Sc(n, 0.1, 0.25, G1, n_mc=100, L=L)
    with pytest.raises(ValueError, match=match):
        partition_sum_check(n, 0.1, 0.25, n_mc=100, L=L)


@pytest.mark.parametrize("eps, lam", [(float("nan"), 0.5), (0.1, -0.5),
                                      (0.0, 0.5), (0.1, float("inf"))],
                         ids=["nan-eps", "negative-lam", "zero-eps", "inf-lam"])
def test_volume_checks_reject_bad_scales(eps, lam):
    with pytest.raises(ValueError, match="eps must|lam must"):
        volume_Sc(1, eps, lam, G1, n_mc=1000)
    with pytest.raises(ValueError, match="eps must|lam must"):
        partition_sum_check(1, eps, lam, n_mc=1000)
    kern = RenormKernel(gamma=0.4, g=G1, r_e=1)
    with pytest.raises(ValueError, match="grid must"):
        volume_lemma_check(1, kern, [eps], [lam], alpha=0.6, m2=1, n_mc=100)


@pytest.mark.parametrize("which", ["eps_grid", "lambda_grid"])
def test_volume_lemma_check_rejects_empty_grid(which):
    grids = {"eps_grid": [0.1], "lambda_grid": [0.5], which: []}
    kern = RenormKernel(gamma=0.4, g=G1, r_e=1)
    with pytest.raises(ValueError, match=f"{which} is empty"):
        volume_lemma_check(1, kern, alpha=0.6, m2=1, n_mc=100, **grids)


@pytest.mark.parametrize("n_mc", [0, -5, 100.0])
def test_volume_checks_reject_no_samples(n_mc):
    # a float count failed with a bare TypeError
    with pytest.raises(ValueError, match="n_mc must be an integer >= 1"):
        volume_Sc(1, 0.1, 0.25, G1, n_mc=n_mc)
    with pytest.raises(ValueError, match="n_mc must be an integer >= 1"):
        partition_sum_check(1, 0.1, 0.3, n_mc)
    with pytest.raises(ValueError, match="n_mc must be an integer >= 1"):
        volume_lemma_check(1, RenormKernel(gamma=0.4, g=G1, r_e=1), [0.1],
                           [0.5], alpha=0.6, m2=1, n_mc=n_mc)


def test_partition_check_small():
    rep = partition_sum_check(n=1, eps=0.1, lam=0.3, n_mc=5_000, seed=2)
    assert rep.violations == 0
    rep4 = partition_sum_check(n=2, eps=0.1, lam=0.3, n_mc=5_000, seed=2)
    assert rep4.violations == 0
    assert rep4.witness is None


def test_partition_check_2d_reports_hub_witness():
    # in d >= 2 a hub with three far-apart spokes defeats the one-scale identity;
    # the checker must report it rather than pass silently
    from chaoslab.clustering import _partitions_min_two, _chain_mask

    g2 = ScalingGeometry((1.0, 1.0))
    L = 1.0
    hub = np.array([[0.0, 0.0], [0.99, 0.0], [-0.5, 0.85], [-0.5, -0.85]])
    assert isolated(hub, L, g2) is False  # every point has the hub within reach
    parts = list(_partitions_min_two((0, 1, 2, 3)))
    covered = False
    for part in parts:
        covered = covered or all(chain_class(hub[list(b)], L, g2) for b in part)
    assert covered is False  # no chain partition at the same scale
