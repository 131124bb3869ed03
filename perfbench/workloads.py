"""The four benchmark workloads.

Each workload imports the chaoslab modules it uses in :meth:`prepare`, so
that the set-up time covers exactly its own imports and one-off work.  A
round is a fixed list of calls of one public experiment function; runs
repeat whole rounds.  ``check_calls`` tests every call's output against
properties the method must have and ``check_run`` compares the program with
the reference computations in ``checks.py``.
"""

from __future__ import annotations

import math

import numpy as np

import checks


def _ci_ok(est) -> bool:
    return math.isfinite(est.value) and est.ci[0] <= est.value <= est.ci[1]


class Workload:
    name = ""
    round_size = 1    # calls per round

    def __init__(self, seed: int):
        self.seed = seed

    def call_seed(self, index: int) -> int:
        """Distinct input seed for every call of a run."""
        return self.seed * 100_000 + index

    def prepare(self):
        raise NotImplementedError

    def round(self, index: int):
        """[(thunk, work items)] for round ``index``."""
        raise NotImplementedError

    def check_calls(self, results: list) -> list[bool]:
        raise NotImplementedError

    def check_run(self) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class OperatorStudy(Workload):
    """A study of ``experiments.StudyDesign(**DESIGN)`` with sin/sin factors."""

    DESIGN: dict = {}

    def _load(self):
        from chaoslab import experiments, field, operator
        self.experiments, self.field, self.operator = experiments, field, operator
        self.design = experiments.StudyDesign(**self.DESIGN)
        return self.design.lattice()

    def _moment_check(self, eps, lam, thetas, run_study):
        """The public study over three draws against the reference double sum.

        ``run_study(seed)`` runs the experiment with n = 1 over draws 0..2
        and returns one moment estimate per theta; each must equal the root
        mean square of the three reference operator values.  The operator
        layer (apply_batch) is also compared draw by draw.
        """
        design, seed = self.design, self.call_seed(99_999)
        op = checks.dense_operator(design, lam)
        lat = design.lattice()
        if lat.shape != op["shape"]:
            return [("lattice", False, f"{lat.shape} != {op['shape']}")]
        spec = design.spectrum(eps, lat)
        raw = self.field.sample_field_values(spec, seed, np.arange(3))
        norm = eps ** (design.alpha / 2.0) * raw
        out = []
        for theta, est in zip(thetas, run_study(seed)):
            ref, scale = checks.dense_values(op, design, theta, norm)
            cfg = design.operator_config(lam, theta)
            got = self.operator.apply_batch(cfg, raw, spec.sigma2, design.alpha,
                                            eps)
            err = float(np.max(np.abs(got - ref) / scale))
            out.append((f"apply_batch theta={theta}", err < 1e-9,
                        f"rel err {err:.2e}"))
            rms = float(np.sqrt(np.mean(ref ** 2)))
            rel = abs(est.value - rms) / rms
            out.append((f"moment theta={theta}", rel < 1e-9, f"rel err {rel:.2e}"))
        return out


class SweepD2(OperatorStudy):
    """freq_sweep at d = 2, s = (2, 1): kernel set-up dominates a call."""

    name = "sweep_d2"
    DESIGN = dict(alpha=0.6, m1=1, m2=1, trig1="sin", trig2="sin", gamma=0.4,
                  s=(2.0, 1.0), h=0.1, extent=3.0)
    EPS = 0.05
    LAM = 0.2
    DRAWS = 32
    THETAS = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (4.0, 4.0),
              (8.0, 8.0)]

    def prepare(self):
        lat = self._load()
        self.design.spectrum(self.EPS, lat)
        self.design.operator_config(self.LAM, (1.0, 1.0), lattice=lat) \
            .sanity_envelope(1.0)

    def round(self, index):
        seed = self.call_seed(index)
        return [(lambda: self.experiments.freq_sweep(
            self.design, self.EPS, self.LAM, self.THETAS, n=1,
            n_samples=self.DRAWS, seed=seed),
            self.DRAWS * len(self.THETAS))]

    def check_calls(self, results):
        env = checks.envelope(checks.dense_operator(self.design, self.LAM))
        ok = []
        for res in results:
            rows = res.rows
            ok.append(rows[0].estimate.value == 0.0
                      and all(r.estimate.value > 0.0 for r in rows[1:])
                      and all(_ci_ok(r.estimate) for r in rows)
                      and all(r.estimate.value <= env for r in rows))
        return ok

    def check_run(self):
        thetas = [(1.0, 1.0), (4.0, 4.0)]
        return self._moment_check(
            self.EPS, self.LAM, thetas,
            lambda seed: [r.estimate for r in self.experiments.freq_sweep(
                self.design, self.EPS, self.LAM, thetas, n=1, n_samples=3,
                seed=seed).rows])


class ScanD1(OperatorStudy):
    """scaling_scan at d = 1: synthesis, trig factors and bootstrap dominate."""

    name = "scan_d1"
    DESIGN = dict(alpha=0.6, m1=1, m2=1, trig1="sin", trig2="sin", gamma=0.5,
                  h=0.0125, extent=4.0)
    EPS = [0.2, 0.1, 0.05, 0.025]
    LAMS = [1.0, 0.8, 0.6, 0.4]
    THETA = (3.0, 3.0)
    DRAWS = 1024
    ETA = 0.1

    def prepare(self):
        lat = self._load()
        for eps in self.EPS:
            self.design.spectrum(eps, lat)
        for lam in self.LAMS:
            self.design.operator_config(lam, self.THETA, lattice=lat) \
                .sanity_envelope(1.0)

    def round(self, index):
        seed = self.call_seed(index)
        return [(lambda: self.experiments.scaling_scan(
            self.design, self.THETA, self.EPS, self.LAMS, n=1,
            n_samples=self.DRAWS, seed=seed, eta=self.ETA),
            self.DRAWS * len(self.EPS) * len(self.LAMS))]

    def check_calls(self, results):
        env = {lam: checks.envelope(checks.dense_operator(self.design, lam))
               for lam in self.LAMS}
        ok = []
        for rep in results:
            ok.append(len(rep.rows) == len(self.EPS) * len(self.LAMS)
                      and rep.eps_slope >= rep.target_eps_exponent - rep.eta
                      and math.isfinite(rep.bound_constant)
                      and all(not r.excluded and r.estimate.value > 0.0
                              and _ci_ok(r.estimate)
                              and r.estimate.value <= env[r.lam]
                              for r in rep.rows))
        return ok

    def check_run(self):
        eps, lam = self.EPS[2], self.LAMS[1]
        return self._moment_check(
            eps, lam, [self.THETA],
            lambda seed: [self.experiments.scaling_scan(
                self.design, self.THETA, [eps], [lam], n=1, n_samples=3,
                seed=seed).rows[0].estimate])


class KpzPairing(Workload):
    """remainder_pairing on the KPZ lattice: Gaussian-mean quadrature per draw."""

    name = "kpz_pairing"
    DRAWS = 20
    DELTA = 0.2
    LAM = 0.4
    BETA = 0.5

    def prepare(self):
        from chaoslab import models, nonlinearity
        self.models, self.nonlinearity = models, nonlinearity
        self.spec = models.ModelFieldSpec(family="kpz", epsilon=0.3, h=0.125,
                                          counts=(48, 24), kernel_cut=0.4)
        self.f = nonlinearity.make_nonlinearity("power_even", beta=self.BETA)
        self.mf = models.build_model_field(self.spec)
        nonlinearity.gaussian_mean(self.f, self.mf.sigma2)
        nonlinearity.mollify(self.f, self.DELTA).deriv(1, 0.0)

    def _pairing(self, f, delta, n_samples, seed):
        return self.models.remainder_pairing(
            "kpz", f, a=1.0, mfspec=self.spec, delta=delta, lam=self.LAM, n=1,
            n_samples=n_samples, seed=seed)

    def round(self, index):
        seed = self.call_seed(index)
        return [(lambda: self._pairing(self.f, self.DELTA, self.DRAWS, seed),
                 self.DRAWS)]

    def check_calls(self, results):
        return [est.value > 0.0 and _ci_ok(est) and est.n_samples == self.DRAWS
                for est in results]

    def check_run(self):
        seed = self.call_seed(99_999)
        out = []
        zero = self._pairing(self.f, 0.0, 4, seed).value
        out.append(("delta=0 gives 0", zero == 0.0, f"value {zero!r}"))
        # a quadratic F is reproduced exactly by mollification up to a
        # constant, which the first truncation removes: only rounding remains
        quad_f = self.nonlinearity.make_nonlinearity("polynomial",
                                                     coeffs=[0.0, 0.0, 1.0])
        rough = self._pairing(self.f, self.DELTA, 4, seed).value
        smooth = self._pairing(quad_f, self.DELTA, 4, seed).value
        out.append(("quadratic F at rounding level", smooth <= 1e-9 * rough,
                    f"{smooth:.3e} vs |u|^2.5 {rough:.3e}"))
        p = 2.0 + self.BETA
        for sigma2 in (1.0, self.mf.sigma2):
            got = self.nonlinearity.gaussian_mean(self.f, sigma2)
            want = sigma2 ** (p / 2.0) * checks.abs_moment(p)
            rel = abs(got - want) / want
            out.append((f"E|u|^{p} at sigma2={sigma2:.4g}", rel < 1e-9,
                        f"rel err {rel:.2e}"))
        return out


class WindowNorm(Workload):
    """window_norm_difference: one vectorised mollified derivative per call."""

    name = "window_norm"
    DELTAS = (0.4, 0.2)
    BETA = 0.5
    X_MAX = 750.0
    DX = 0.006
    # work item: the x-points of |x| <= X_MAX at the transform spacing
    # 4 * 2 pi / 4096 nearest to DX, as chaoslab 0.1 lays them out
    POINTS = 244_461
    round_size = 2
    # Inside (-delta, delta) each Gauss-Legendre panel of the program ends at
    # the kink, where F''(u - delta t) ~ |t - t*|^beta; 96 nodes then converge
    # like n^-(2 + 2 beta), about 1e-6 at beta = 0.5, not to full precision.
    GL_TOL = 1e-5

    def prepare(self):
        from chaoslab import nonlinearity
        self.nonlinearity = nonlinearity
        self.f = nonlinearity.make_nonlinearity("power_even", beta=self.BETA)
        self.q = nonlinearity.WindowNormQuery(ells=(2,), center=(4,), m_probe=4)
        nonlinearity.window_norm(self.f, self.q, x_max=self.X_MAX, dx=self.DX)
        nonlinearity.mollify(self.f, self.DELTAS[0]).deriv(2, 0.0)

    def round(self, index):
        return [(lambda delta=delta: self.nonlinearity.window_norm_difference(
            self.f, delta, self.q, x_max=self.X_MAX, dx=self.DX), self.POINTS)
            for delta in self.DELTAS]

    def check_calls(self, results):
        ok = []
        for i in range(0, len(results), self.round_size):
            big, small = results[i:i + 2]
            good = (math.isfinite(big) and math.isfinite(small) and big > 0
                    and small > 0 and math.log(big / small)
                    / math.log(self.DELTAS[0] / self.DELTAS[1])
                    >= self.BETA / 2.0 - 0.1)
            ok.extend([good, good])
        return ok

    def check_run(self):
        gen = np.random.default_rng(self.seed)
        out = []
        for delta in self.DELTAS:
            moll = self.nonlinearity.mollify(self.f, delta)
            # points on both sides of the kink, inside and outside (-delta, delta)
            for u in np.concatenate([gen.uniform(-delta, delta, 3),
                                     gen.uniform(-3.0, 3.0, 2)]):
                got = float(moll.deriv(2, float(u)))
                want = checks.mollified_power_deriv(2.0 + self.BETA, 2, delta, float(u))
                rel = abs(got - want) / abs(want)
                out.append((f"mollified F'' at u={u:.4f} delta={delta}",
                            rel < self.GL_TOL, f"rel err {rel:.2e}"))
        return out


WORKLOADS = {w.name: w for w in (SweepD2, ScanD1, KpzPairing, WindowNorm)}
