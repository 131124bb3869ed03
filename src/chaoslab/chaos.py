"""Hermite/Wick calculus and chaos-truncated trigonometric functionals.

Everything here is closed-form.  Trigonometric factors are carried in phase
form ``cos(theta*z + p*pi/2)`` with an integer phase ``p`` (p = 0 is cosine,
p = 3 is sine), which turns frequency differentiation into a phase shift and
makes the chaos coefficients a single family

    C_k(theta) = cos((p+k)*pi/2) * theta**k * exp(-theta**2*sigma2/2) / k!

whose theta-derivatives obey a polynomial-times-Gaussian recurrence.  The
quadrature route to the same coefficients is deliberately kept out of this
module; it lives in the test suite as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import check_integer

PHASE_COS = 0
PHASE_SIN = 3

MAX_DERIV_ORDER = 8

_TRIG_PHASE = {"cos": PHASE_COS, "sin": PHASE_SIN}
_PHASE_SIGN = (1.0, 0.0, -1.0, 0.0)  # cos(q*pi/2) for q mod 4


def trig_phase(trig: str) -> int:
    """Phase of a trig factor by name, or a ValueError naming the known ones."""
    if trig not in _TRIG_PHASE:
        raise ValueError(f"trig must be one of {sorted(_TRIG_PHASE)}, "
                         f"got {trig!r}")
    return _TRIG_PHASE[trig]


def check_deriv(deriv) -> None:
    """ValueError unless ``deriv`` is two theta-derivative orders, integers
    in [0, MAX_DERIV_ORDER]."""
    for r in deriv:
        check_integer("deriv", r, 0)
    if len(deriv) != 2 or max(deriv) > MAX_DERIV_ORDER:
        raise ValueError(f"deriv must be two integer orders in [0, "
                         f"{MAX_DERIV_ORDER}], got {deriv!r}")


def hermite_value(k: int, z):
    """Probabilists' Hermite polynomial He_k(z) by the three-term recurrence."""
    z = np.asarray(z, dtype=float)
    if k == 0:
        return np.ones_like(z)
    if k == 1:
        return z.copy()
    hkm1 = np.ones_like(z)
    hk = z.copy()
    for j in range(1, k):
        hkm1, hk = hk, z * hk - j * hkm1
    return hk


def wick_power(x, k: int, sigma2: float):
    """k-th Wick power of the value ``x`` of a centered Gaussian with variance sigma2."""
    check_integer("k", k, 0)
    if sigma2 <= 0:
        raise ValueError("variance must be positive")
    sigma = math.sqrt(sigma2)
    x = np.asarray(x, dtype=float)
    out = sigma**k * hermite_value(k, x / sigma)
    return float(out) if out.ndim == 0 else out


def _phase_trig(u: np.ndarray, phase: int) -> np.ndarray:
    """cos(u + phase*pi/2) without evaluating the shifted argument, written
    over ``u``."""
    p = phase % 4
    (np.cos if p % 2 == 0 else np.sin)(u, out=u)
    if p in (1, 2):
        np.negative(u, out=u)
    return u


def _gauss_poly_deriv(k: int, r: int, a: float) -> np.ndarray:
    """Coefficients of p with  d^r/dtheta^r [theta^k e^{-a theta^2}] = p(theta) e^{-a theta^2}."""
    p = np.zeros(k + r + 1)
    p[k] = 1.0
    for _ in range(r):
        dp = np.zeros_like(p)
        dp[:-1] = p[1:] * np.arange(1, len(p))
        shifted = np.zeros_like(p)
        shifted[1:] = p[:-1]
        p = dp - 2.0 * a * shifted
    return p


def phase_coeff_deriv(phase: int, k: int, theta: float, sigma2: float, r: int = 0) -> float:
    """r-th theta-derivative of the Z^{<>k}-coefficient of cos(theta Z + phase*pi/2)."""
    sgn = _PHASE_SIGN[(phase + k) % 4]
    if sgn == 0.0:
        return 0.0
    a = 0.5 * sigma2
    expo = a * theta * theta
    if expo > 745.0:
        # Gaussian factor is below double-precision underflow
        return 0.0
    p = _gauss_poly_deriv(k, r, a)
    val = float(np.polynomial.polynomial.polyval(theta, p))
    return sgn / math.factorial(k) * val * math.exp(-expo)


@dataclass(frozen=True)
class ChaosTruncSpec:
    """Truncation spec: trig sign and the first retained chaos order ``m``.

    The parity convention (m odd for sine, even for cosine) is enforced at
    construction.
    """

    trig: str
    m: int

    def __post_init__(self):
        trig_phase(self.trig)
        check_integer("m", self.m, 0)
        if not self.parity_ok:
            raise ValueError(
                f"parity violation: m={self.m} with trig={self.trig!r} "
                "(m must be odd for sin, even for cos)")

    @property
    def phase(self) -> int:
        return trig_phase(self.trig)

    @property
    def parity_ok(self) -> bool:
        want_odd = self.phase == PHASE_SIN
        return (self.m % 2 == 1) == want_odd


@dataclass(frozen=True)
class TwoPointFunctional:
    """Product of two chaos-truncated trig factors with frequency pair ``theta``."""

    spec_x: ChaosTruncSpec
    spec_y: ChaosTruncSpec
    theta: tuple[float, float]
    deriv: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if len(self.theta) != 2 or not all(map(math.isfinite, self.theta)):
            raise ValueError(f"theta must be two finite frequencies, got "
                             f"{self.theta!r}")
        check_deriv(self.deriv)


def truncated_trig_deriv(x, theta: float, phase: int, m_remove: int, r: int, sigma2: float):
    """d^r/dtheta^r of cos(theta x + phase*pi/2) minus its first m_remove chaos terms."""
    x = np.asarray(x, dtype=float)
    # one temporary: theta * x, overwritten by every later step
    out = _phase_trig(np.multiply(theta, x, out=np.empty_like(x)), phase + r)
    if r:
        out *= x**r
    for k in range(max(m_remove, 0)):
        c = phase_coeff_deriv(phase, k, theta, sigma2, r=r)
        if c != 0.0:
            out -= c * wick_power(x, k, sigma2)
    return out[()]  # a scalar for a scalar x
