import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.geometry import (
    Lattice,
    ResourceBudgetError,
    ScalingGeometry,
    TestFunction,
    build_lattice,
    eval_test_function_many,
    metric_many,
)


def metric(x, g):
    """Distance of one point from the origin, by the vector route."""
    return float(metric_many(np.array([x], dtype=float), g)[0])


def tf_value(tf, y):
    """The rescaled test function at one point, by the vector route."""
    return float(eval_test_function_many(tf, np.array([y], dtype=float))[0])


def test_metric_examples():
    g = ScalingGeometry((2.0, 1.0))
    assert metric((4.0, 3.0), g) == pytest.approx(3.0)
    g1 = ScalingGeometry((1.0,))
    assert metric((-0.5,), g1) == pytest.approx(0.5)
    g4 = ScalingGeometry((2.0, 1.0, 1.0, 1.0))
    assert metric((0.0, 0.0, 0.0, 0.0), g4) == 0.0


def test_metric_dimension_mismatch():
    g = ScalingGeometry((2.0, 1.0))
    with pytest.raises(ValueError, match="3 coordinates"):
        metric((1.0, 2.0, 3.0), g)


def test_geometry_invariants():
    g = ScalingGeometry((2.0, 1.0))
    assert g.d == 2
    assert g.total == pytest.approx(3.0)
    # a NaN exponent gave a NaN metric, and an infinite one put every point,
    # the origin too, at distance 1
    for bad in (0.5, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="exponents s must be finite and >= 1"):
            ScalingGeometry((bad, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1.0, 3.0), min_size=1, max_size=3),
    st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    st.floats(0.05, 4.0),
)
def test_metric_homogeneity(s, coords, scale):
    g = ScalingGeometry(tuple(s))
    x = np.array(coords[: g.d])
    dilated = np.array([scale ** si * xi for si, xi in zip(g.s, x)])
    assert metric(dilated, g) == pytest.approx(scale * metric(x, g), rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1.0, 3.0), min_size=2, max_size=2),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
)
def test_metric_quasi_triangle(s, xs, ys):
    g = ScalingGeometry(tuple(s))
    x, y = np.array(xs), np.array(ys)
    c = 2.0 ** max(g.s)
    assert metric(x + y, g) <= c * (metric(x, g) + metric(y, g)) + 1e-12


def test_test_function_prefactor():
    g = ScalingGeometry((2.0, 1.0))
    tf = TestFunction(geometry=g, scale=0.5)
    assert tf_value(tf, (0.0, 0.0)) == pytest.approx(0.5 ** -3.0)


def test_test_function_support():
    g = ScalingGeometry((1.0,))
    tf = TestFunction(geometry=g, scale=0.25, center=(0.1,))
    # outside the anisotropic ball of radius scale
    assert tf_value(tf, (0.4,)) == 0.0
    assert tf_value(tf, (0.1 + 0.26,)) == 0.0
    assert tf_value(tf, (0.1,)) > 0.0


def test_test_function_identity_scale():
    g = ScalingGeometry((1.0,))
    tf = TestFunction(geometry=g, scale=1.0)
    assert tf_value(tf, (0.0,)) == pytest.approx(1.0)


def test_build_lattice_counts():
    g = ScalingGeometry((1.0,))
    lat = build_lattice(g, 0.25, 1.0)
    assert lat.shape == (9,)
    assert lat.axes[0][0] == pytest.approx(-1.0)
    assert lat.axes[0][-1] == pytest.approx(1.0)
    assert np.array_equal(lat.axes[0], np.arange(-4, 5) * 0.25)


def test_lattices_are_values():
    # a lattice is the value of its geometry, base step and counts: equal
    # ones are equal with equal hashes however they were made, and a change
    # to any of the three makes another lattice
    g = ScalingGeometry((2.0, 1.0))
    lat = build_lattice(g, 0.1, 1.0)
    assert lat.counts == lat.shape == (201, 21)
    copy = build_lattice(g, 0.1, 1.0)
    assert copy is not lat and copy == lat and hash(copy) == hash(lat)
    assert len({lat, copy}) == 1
    for same in (Lattice(g, 0.1, [201, 21]),
                 Lattice(g, np.float64(0.1), np.array([201, 21]))):
        assert same == lat and hash(same) == hash(lat)
        assert type(same.base_step) is float
        assert all(type(n) is int for n in same.counts)
    assert Lattice(g, 0.1, 5) == Lattice(g, 0.1, (5, 5))  # one for every axis
    for other in (build_lattice(g, 0.1, 1.5), build_lattice(g, 0.2, 1.0),
                  build_lattice(ScalingGeometry((1.0, 1.0)), 0.1, 1.0),
                  Lattice(g, 0.1, [21, 11])):
        assert other != lat
    assert lat != (lat.geometry, lat.base_step, lat.counts)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lat.counts = (21, 11)


def test_lattice_axes_are_computed_from_the_counts():
    # every read gives fresh arrays, (k - n // 2) * h**s_i bit for bit, so
    # writing into one read changes neither the lattice nor the next read
    g = ScalingGeometry((2.0, 1.0))
    lat = Lattice(g, 0.1, (8, 5))
    want = ((np.arange(8) - 4) * 0.1 ** 2.0, (np.arange(5) - 2) * 0.1 ** 1.0)
    axes = lat.axes
    assert all(np.array_equal(a, w) for a, w in zip(axes, want))
    axes[0][:] = 0.0
    assert np.array_equal(lat.axes[0], want[0])
    assert lat == Lattice(g, 0.1, (8, 5))


@pytest.mark.parametrize("counts, match", [
    ((21, 0), "counts must be an integer >= 1, got 0"),
    ((21.0, 11), "counts must be an integer >= 1, got 21.0"),
    ((21, 11, 3), "one count per axis"),
], ids=["zero", "float", "three-axes"])
def test_lattice_rejects_bad_counts(counts, match):
    with pytest.raises(ValueError, match=match):
        Lattice(ScalingGeometry((2.0, 1.0)), 0.1, counts)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0])
def test_lattice_rejects_bad_step(h):
    g = ScalingGeometry((1.0,))
    with pytest.raises(ValueError, match="base step must be positive"):
        build_lattice(g, h, 1.0)
    with pytest.raises(ValueError, match="base step must be positive"):
        Lattice(g, h, 8)
    with pytest.raises(ValueError, match="extent"):
        build_lattice(g, 0.25, float("nan"))


def test_build_lattice_steps_and_volume():
    g = ScalingGeometry((2.0, 1.0))
    lat = build_lattice(g, 0.5, (1.0, 1.0))
    assert lat.steps == pytest.approx((0.25, 0.5))
    assert lat.cell_volume == pytest.approx(0.5 ** 3.0)


def test_build_lattice_budget():
    g = ScalingGeometry((1.0, 1.0))
    with pytest.raises(ResourceBudgetError):
        build_lattice(g, 1e-4, (1.0, 1.0))
    # counts far beyond int64
    with pytest.raises(ResourceBudgetError):
        build_lattice(g, 1e-300, (1.0, 1.0))
    # the int64 product of these counts is 2**64, which wraps round to 0
    with pytest.raises(ResourceBudgetError, match=str(2**64)):
        Lattice(ScalingGeometry((1.0,) * 4), 0.1, (2**16,) * 4)


def test_riemann_sum_two_grid():
    # integral of the rescaled bump is scale-invariant; Riemann sums converge
    g = ScalingGeometry((1.0,))
    tf = TestFunction(geometry=g, scale=0.5)
    sums = {}
    for h in (0.02, 0.01, 0.005):
        lat = build_lattice(g, h, 1.0)
        vals = eval_test_function_many(tf, lat.points())
        sums[h] = float(np.sum(vals) * lat.cell_volume)
    # base integral of the profile (scale-independent)
    err_coarse = abs(sums[0.02] - sums[0.005])
    err_fine = abs(sums[0.01] - sums[0.005])
    assert err_fine <= err_coarse + 1e-12
    assert err_coarse < 0.02  # O(h) envelope at h = 0.02


def test_lattice_points_row_major():
    g = ScalingGeometry((1.0, 1.0))
    lat = build_lattice(g, 0.5, (0.5, 0.5))
    pts = lat.points()
    assert pts.shape == (9, 2)
    # first axis varies slowest
    assert pts[0].tolist() == [-0.5, -0.5]
    assert pts[1].tolist() == [-0.5, 0.0]
    assert pts[3].tolist() == [0.0, -0.5]
