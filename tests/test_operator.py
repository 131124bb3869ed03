import dataclasses

import numpy as np
import pytest

from chaoslab import kernel, operator
from chaoslab.chaos import ChaosTruncSpec, TwoPointFunctional
from chaoslab.field import CovarianceSpec, build_spectrum, sample_field_values, \
    sample_fields
from chaoslab.geometry import ScalingGeometry, TestFunction, build_lattice
from chaoslab.kernel import RenormKernel
from chaoslab.operator import (
    OperatorConfig,
    OperatorPlan,
    OperatorSetup,
    ResolutionError,
    apply_batch,
    apply_configs,
)
from oracles import own_operator_arrays, per_config_operator_values

G1 = ScalingGeometry((1.0,))


def make_setup(h=0.05, extent=2.0, eps=0.2, theta=(1.0, 1.0), m=(1, 1),
               trig=("sin", "sin"), gamma=0.4, r_e=0, lam=0.4, deriv=(0, 0)):
    lat = build_lattice(G1, h, extent)
    spec = build_spectrum(CovarianceSpec(alpha=0.6, epsilon=eps), lat)
    kern = RenormKernel(gamma=gamma, g=G1, r_e=r_e)
    fn = TwoPointFunctional(ChaosTruncSpec(trig[0], m[0]),
                            ChaosTruncSpec(trig[1], m[1]), theta, deriv)
    setup = OperatorSetup(kernel=kern, test=TestFunction(geometry=G1, scale=lam),
                          lattice=lat)
    cfg = OperatorConfig(setup, fn)
    return cfg, spec


# (sigma2, alpha, eps) read with a synthetic draw
SYNTHETIC = (1.0, 0.6, 0.2)


def synthetic_draw(lat, fn):
    """One draw, shape (1, *lat.shape), of a fixed function of x."""
    return fn(lat.points()[:, 0]).reshape((1,) + lat.shape)


def spectrum_args(spec):
    """(sigma2, alpha, eps) of draws from ``spec``."""
    return spec.sigma2, spec.spec.alpha, spec.spec.epsilon


def apply_draws(cfg, spec, seed, indices):
    return apply_batch(cfg, sample_field_values(spec, seed, indices),
                       *spectrum_args(spec))


def test_zero_theta_vanishes():
    cfg, spec = make_setup(theta=(0.0, 0.0))
    assert apply_draws(cfg, spec, 1, [0])[0] == 0.0


def test_zero_test_function():
    cfg, spec = make_setup()
    zero_tf = TestFunction(geometry=G1, scale=0.4, profile=lambda r: np.zeros_like(r))
    with pytest.raises(ResolutionError):
        OperatorPlan({0: dataclasses.replace(
            cfg, setup=dataclasses.replace(cfg.setup, test=zero_tf))})


def test_scale_below_step_raises():
    cfg, spec = make_setup()
    tiny = TestFunction(geometry=G1, scale=0.01)
    bad = dataclasses.replace(cfg.setup, test=tiny)
    # scale 0.01 < h = 0.05: only the center point x=0 has phi > 0, which is
    # still resolvable; shift the center off-grid to empty the support
    off = TestFunction(geometry=G1, scale=0.01, center=(0.024,))
    bad = dataclasses.replace(cfg.setup, test=off)
    with pytest.raises(ResolutionError):
        OperatorPlan({0: dataclasses.replace(cfg, setup=bad)})


def test_linearity_in_test_function():
    cfg, spec = make_setup()
    s = sample_field_values(spec, 3, [1])

    def p1(r):
        return np.where(np.abs(r) < 1, np.cos(np.pi * r / 2) ** 2, 0.0)

    def p2(r):
        return np.where(np.abs(r) < 1, 1.0 - np.abs(r), 0.0) * 0.5

    def psum(r):
        return p1(r) + p2(r)

    vals = []
    for prof in (p1, p2, psum):
        tf = TestFunction(geometry=G1, scale=0.4, profile=prof)
        c = OperatorConfig(dataclasses.replace(cfg.setup, test=tf), cfg.functional)
        vals.append(apply_batch(c, s, *spectrum_args(spec))[0])
    assert vals[2] == pytest.approx(vals[0] + vals[1], rel=1e-12)


def test_batch_matches_scalar():
    cfg, spec = make_setup()
    batch = sample_field_values(spec, 9, np.arange(4))
    got = apply_batch(cfg, batch, *spectrum_args(spec))
    for i in range(4):
        one = apply_batch(cfg, batch[i:i + 1], *spectrum_args(spec))[0]
        assert got[i] == pytest.approx(one, rel=1e-13)


def test_two_grid_agreement():
    # one fixed smooth synthetic field on nested grids; the diagonal-excluded
    # mass is O(h^gamma), so the differences must shrink at that rate and the
    # finest pair must sit within 5%
    theta = (0.9, 1.3)
    vals = {}
    for h in (0.01, 0.005, 0.0025):
        cfg, spec = make_setup(h=h, extent=2.0, gamma=0.5, r_e=0, theta=theta)
        s = synthetic_draw(cfg.setup.lattice, lambda x: np.sin(2.0 * x) + 0.3)
        vals[h] = apply_batch(cfg, s, *SYNTHETIC)[0]
    d1 = abs(vals[0.01] - vals[0.005])
    d2 = abs(vals[0.005] - vals[0.0025])
    assert d2 < d1  # Richardson: differences contract
    assert vals[0.005] == pytest.approx(vals[0.0025], rel=0.05)


def test_diagonal_policy_robust(monkeypatch):
    # widening the exclusion from 1 to 2 cells moves the value by less than
    # the two-grid quadrature error bound at the same step
    theta = (0.9, 1.3)
    h = 0.0025
    cfg1, _ = make_setup(h=h, extent=2.0, gamma=0.5, r_e=0, theta=theta)
    s = synthetic_draw(cfg1.setup.lattice, lambda x: np.sin(2.0 * x) + 0.3)
    cfg_half, _ = make_setup(h=2 * h, extent=2.0, gamma=0.5, r_e=0, theta=theta)
    s_half = synthetic_draw(cfg_half.setup.lattice, lambda x: np.sin(2.0 * x) + 0.3)
    narrow = apply_batch(cfg1, s, *SYNTHETIC)[0]
    two_grid_err = abs(narrow - apply_batch(cfg_half, s_half, *SYNTHETIC)[0])
    monkeypatch.setattr(kernel, "DIAGONAL_CELLS", 2)
    # the kept block was built under the old width: drop it, so the equal
    # set-up builds its kernel matrix under the patched one
    operator._LAST_BLOCK.clear()
    cfg2 = OperatorConfig(dataclasses.replace(cfg1.setup), cfg1.functional)
    policy_diff = abs(apply_batch(cfg2, s, *SYNTHETIC)[0] - narrow)
    assert policy_diff < 2.0 * two_grid_err


def test_setup_is_frozen_and_replace_rebuilds():
    # a set-up is a frozen value that keeps no arrays, so building a plan
    # leaves nothing on it to go stale; changing a field gives a new set-up,
    # whose kernel matrix is that of a set-up built with the new field
    cfg, spec = make_setup(h=0.025)
    OperatorPlan({0: cfg})
    assert vars(cfg.setup).keys() == \
        {f.name for f in dataclasses.fields(OperatorSetup)}
    full = np.count_nonzero(operator._kernel_rows([cfg.setup])["kmat"])
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.setup.y_radius = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.setup = dataclasses.replace(cfg.setup, y_radius=0.5)
    small = dataclasses.replace(cfg, setup=dataclasses.replace(cfg.setup,
                                                               y_radius=0.5))
    fresh = OperatorSetup(kernel=cfg.setup.kernel, test=cfg.setup.test,
                          lattice=cfg.setup.lattice, y_radius=0.5)
    small_kmat = operator._kernel_rows([small.setup])["kmat"]
    assert np.array_equal(small_kmat, operator._kernel_rows([fresh])["kmat"])
    assert np.count_nonzero(small_kmat) < full
    assert np.count_nonzero(operator._kernel_rows([cfg.setup])["kmat"]) == full


def test_sanity_envelope():
    cfg, spec = make_setup()
    v = apply_draws(cfg, spec, 13, [0])[0]
    assert abs(v) <= cfg.sanity_envelope(f_sup=4.0)


def test_lattice_mismatch_rejected():
    cfg, spec = make_setup(h=0.05)
    other_lat = build_lattice(G1, 0.04, 2.0)
    other_spec = build_spectrum(CovarianceSpec(alpha=0.6, epsilon=0.2), other_lat)
    s = sample_field_values(other_spec, 1, [0])
    with pytest.raises(ValueError):
        apply_batch(cfg, s, *spectrum_args(other_spec))


def test_shared_factors_match_per_config_route():
    # apply_configs evaluates each factor key once, on the union of the
    # points its configs read, and gathers each config's columns from it;
    # per spectrum and config that must give the same floating-point numbers
    # as drawing each spectrum alone and evaluating each config's factors on
    # its own columns.  The mix: sin and cos, theta_x != theta_y, one key
    # read as x by one config and as y by another, deriv = (1, 0), and an x
    # support (lam = 0.8) reaching outside the y ball of radius 0.3.  A plan
    # serves one y radius, so each set-up gets its own.
    lat = build_lattice(G1, 0.05, 2.0)
    kern = RenormKernel(gamma=0.4, g=G1, r_e=0)
    setups = [OperatorSetup(kernel=kern,
                            test=TestFunction(geometry=G1, scale=lam),
                            lattice=lat, y_radius=y_radius)
              for lam, y_radius in ((0.8, 0.3), (0.4, 2.0))]
    sin1, cos0, cos2 = (ChaosTruncSpec("sin", 1), ChaosTruncSpec("cos", 0),
                        ChaosTruncSpec("cos", 2))
    fns = [TwoPointFunctional(sin1, sin1, (1.0, 1.0)),
           TwoPointFunctional(cos2, sin1, (1.0, 2.5)),
           TwoPointFunctional(sin1, sin1, (2.5, 1.0)),
           TwoPointFunctional(sin1, cos0, (2.5, 1.0), deriv=(1, 0))]
    configs = [{(i, j): OperatorConfig(setup, fn) for j, fn in enumerate(fns)}
               for i, setup in enumerate(setups)]
    own = own_operator_arrays(setups[0])
    assert not set(own["x_idx"]) <= set(own["y_idx"])
    spectra = [build_spectrum(CovarianceSpec(alpha=0.6, epsilon=eps), lat)
               for eps in (0.4, 0.2)]
    indices = np.arange(3, 40)
    for spec, values in zip(spectra, sample_fields(spectra, 6, indices)):
        alone = sample_field_values(spec, 6, indices)
        assert np.array_equal(values, alone)
        for plan_configs in configs:
            got = apply_configs(OperatorPlan(plan_configs), values,
                                *spectrum_args(spec))
            assert got.keys() == plan_configs.keys()
            for cell, cfg in plan_configs.items():
                want = per_config_operator_values(cfg, alone,
                                                  *spectrum_args(spec))
                assert np.array_equal(got[cell], want), cell
                assert np.array_equal(
                    apply_batch(cfg, alone, *spectrum_args(spec)), want), cell


def test_shared_factors_evaluated_once_per_key(monkeypatch):
    # four lam cells at one theta read one factor key: one evaluation per
    # batch, on the union of their x supports and y columns
    calls = []
    trig = operator.truncated_trig_deriv

    def counting(x, *args):
        calls.append(x.shape)
        return trig(x, *args)

    monkeypatch.setattr(operator, "truncated_trig_deriv", counting)
    cfg, spec = make_setup()
    configs = {lam: OperatorConfig(dataclasses.replace(
        cfg.setup, test=TestFunction(geometry=G1, scale=lam)), cfg.functional)
        for lam in (1.0, 0.8, 0.6, 0.4)}
    values = sample_field_values(spec, 2, np.arange(5))
    apply_configs(OperatorPlan(configs), values, *spectrum_args(spec))
    union = set()
    for c in configs.values():
        own = operator._kernel_rows([c.setup])
        union |= set(own["x_idx"]) | set(own["y_idx"])
    assert calls == [(5, len(union))]
    # mixed keys: a cos factor at theta 2 read only as the x factor, beside a
    # sin key read as both; each is evaluated once, on all the plan's columns
    calls.clear()
    sin1, cos2 = ChaosTruncSpec("sin", 1), ChaosTruncSpec("cos", 2)
    fns = (TwoPointFunctional(sin1, sin1, (1.0, 1.0)),
           TwoPointFunctional(cos2, sin1, (2.0, 1.0)))
    plan = OperatorPlan({(lam, i): OperatorConfig(c.setup, fn)
                         for lam, c in configs.items()
                         for i, fn in enumerate(fns)})
    apply_configs(plan, values, *spectrum_args(spec))
    assert calls == [(5, len(plan.cols))] * 2


@pytest.mark.parametrize("r_e", [0, 2])
@pytest.mark.parametrize("s", [(1.0,), (2.0, 1.0)])
def test_shared_kernel_rows_match_own_set_ups(monkeypatch, s, r_e):
    # set-ups that share kernel, lattice and y radius share one kernel
    # matrix on the union of their supports and read it at their own rows.
    # Two y radii give two plans, one matrix each; in each, two test
    # functions with different centres and scales have supports that overlap
    # but neither holds the other.  Every value must be the one of the
    # set-up's own matrix, built by the oracle on its own support and y ball.
    g = ScalingGeometry(s)
    lat = build_lattice(g, 0.05, 2.0) if len(s) == 1 else \
        build_lattice(g, 0.2, 1.2)
    kern = RenormKernel(gamma=0.45 if r_e == 2 else 0.4, g=g, r_e=r_e)
    tests = [(-0.3, 0.6), (0.4, 0.5), (0.1, 0.7), (-0.5, 0.3)]  # (centre, lam)
    setups = [OperatorSetup(kernel=kern, lattice=lat, y_radius=y_radius,
                            test=TestFunction(geometry=g, scale=lam,
                                              center=(c,) if len(s) == 1
                                              else (c / 2, c)))
              for (c, lam), y_radius in zip(tests, (1.0, 1.0, 2.0, 2.0))]
    supports = [set(own_operator_arrays(st)["x_idx"]) for st in setups]
    for a, b in ((0, 1), (2, 3)):
        xa, xb = supports[a], supports[b]
        assert xa & xb and not xa <= xb and not xb <= xa
    builds = []
    eval_K_many = operator.eval_K_many

    def counting(*args):
        builds.append(len(args[0]))
        return eval_K_many(*args)

    monkeypatch.setattr(operator, "eval_K_many", counting)
    sin1, cos2 = ChaosTruncSpec("sin", 1), ChaosTruncSpec("cos", 2)
    fns = [TwoPointFunctional(sin1, sin1, (1.0, 2.0)),
           TwoPointFunctional(cos2, sin1, (2.0, 1.0), deriv=(0, 1))]
    values = np.random.default_rng(8).standard_normal((6,) + lat.shape)
    for a, b in ((0, 1), (2, 3)):
        configs = {(i, j): OperatorConfig(setups[i], fn)
                   for i in (a, b) for j, fn in enumerate(fns)}
        builds.clear()
        plan = OperatorPlan(configs)
        assert builds == [len(supports[a] | supports[b])]
        got = apply_configs(plan, values, *SYNTHETIC)
        for cell, cfg in configs.items():
            want = per_config_operator_values(cfg, values, *SYNTHETIC)
            assert np.array_equal(got[cell], want), cell


def test_set_up_rejects_mixed_scaling_vectors():
    # a kernel, test function and lattice on different scaling vectors
    # would pair a support measured in one metric with a kernel in another
    g21, g11 = ScalingGeometry((2.0, 1.0)), ScalingGeometry((1.0, 1.0))
    lat = build_lattice(g21, 0.1, 2.0)
    for kern_g, test_g in ((g21, g11), (g11, g21)):
        with pytest.raises(ValueError, match="scaling vectors"):
            OperatorSetup(kernel=RenormKernel(gamma=0.4, g=kern_g, r_e=0),
                          test=TestFunction(geometry=test_g, scale=0.4),
                          lattice=lat)


@pytest.mark.parametrize("change", ["kernel", "lattice", "y_radius", "none"])
def test_plan_needs_one_kernel_lattice_and_y_radius(monkeypatch, change):
    # a plan owns one kernel matrix, so set-ups with another kernel, a
    # lattice of another value (here the same step on a wider box) or
    # another y radius, or no config at all, raise before any build
    builds = []
    monkeypatch.setattr(operator, "eval_K_many",
                        lambda *args: builds.append(args))
    cfg, _ = make_setup()
    other = {"kernel": dict(kernel=RenormKernel(gamma=0.5, g=G1, r_e=0)),
             "lattice": dict(lattice=build_lattice(G1, 0.05, 2.5)),
             "y_radius": dict(y_radius=1.0)}
    configs = {} if change == "none" else {0: cfg, 1: dataclasses.replace(
        cfg, setup=dataclasses.replace(cfg.setup, **other[change]))}
    with pytest.raises(ValueError, match="share kernel, lattice and y radius"):
        OperatorPlan(configs)
    assert builds == []


def test_equal_lattice_copies_share_one_kernel_block(monkeypatch):
    # lattices are values: set-ups on two equal build_lattice copies share
    # one plan and one matrix build, and a later plan on a third copy reads
    # the kept block, the very same read-only arrays
    builds = []
    eval_K_many = operator.eval_K_many

    def counting(*args):
        builds.append(len(args[0]))
        return eval_K_many(*args)

    monkeypatch.setattr(operator, "eval_K_many", counting)
    cfg, _ = make_setup()
    copy = build_lattice(G1, 0.05, 2.0)
    assert copy is not cfg.setup.lattice and copy == cfg.setup.lattice
    other = OperatorConfig(dataclasses.replace(
        cfg.setup, lattice=copy, test=TestFunction(geometry=G1, scale=0.8)),
        cfg.functional)
    plan = OperatorPlan({0: cfg, 1: other})
    assert len(builds) == 1
    again = OperatorPlan({0: dataclasses.replace(cfg, setup=dataclasses.replace(
        cfg.setup, lattice=build_lattice(G1, 0.05, 2.0))), 1: other})
    assert len(builds) == 1
    assert again.kmat is plan.kmat
    # another set of test functions is another block, built once
    OperatorPlan({0: cfg})
    assert len(builds) == 2


def test_kept_kernel_block_is_read_only():
    # a kept block is shared by every plan built on equal set-ups, so none
    # of its arrays can be written through a plan or the builder
    cfg, _ = make_setup()
    plan = OperatorPlan({0: cfg})
    with pytest.raises(ValueError, match="read-only"):
        plan.kmat[0, 0] = 1.0
    block = operator._kernel_rows([cfg.setup])
    assert block["kmat"] is plan.kmat
    with pytest.raises(TypeError):
        block["kmat"] = np.zeros_like(plan.kmat)
    for arr in (block["x_idx"], block["y_idx"], *block["rows"], *block["xw"]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_zero_draw_batch_gives_empty_values():
    # a batch of no draws, as sample_field_values returns it for no
    # indices, gives a zero-length value array per cell
    cfg, spec = make_setup()
    values = sample_field_values(spec, 1, [])
    assert values.shape == (0,) + cfg.setup.lattice.shape
    got = apply_batch(cfg, values, *spectrum_args(spec))
    assert got.shape == (0,) and got.dtype == float
    other = OperatorConfig(dataclasses.replace(
        cfg.setup, test=TestFunction(geometry=G1, scale=0.8)), cfg.functional)
    out = apply_configs(OperatorPlan({0: cfg, 1: other}), values,
                        *spectrum_args(spec))
    assert {cell: v.shape for cell, v in out.items()} == {0: (0,), 1: (0,)}


@pytest.mark.parametrize("f_sup", [float("nan"), float("inf"), -1.0])
def test_sanity_envelope_rejects_bad_sup(f_sup):
    cfg, _ = make_setup()
    with pytest.raises(ValueError, match="f_sup"):
        cfg.sanity_envelope(f_sup)


def test_kept_block_is_not_read_for_a_changed_lattice(monkeypatch):
    # the kept block is found by the set-ups' hash and value, so a lattice
    # whose axes were written after the build misses it and builds afresh
    builds = []
    eval_K_many = operator.eval_K_many

    def counting(*args):
        builds.append(1)
        return eval_K_many(*args)

    monkeypatch.setattr(operator, "eval_K_many", counting)
    cfg, _ = make_setup()
    before = OperatorPlan({0: cfg})
    cfg.setup.lattice.axes[0][:] *= 0.5
    after = OperatorPlan({0: cfg})
    assert len(builds) == 2
    assert not np.array_equal(after.kmat, before.kmat)
