"""Write gauss_rules.json, the reference Gauss rules of the tests.

    python3 tests/make_gauss_rules.py

Each rule is the n-point Gauss rule for the weight (1 - x)^a on (-1, 1):
Gauss-Legendre (a = 0) at n = 32 and n = 256, and the 80-node Gauss-Jacobi
rule at every exponent a = p - ell, ell <= 3, of |u|^2.5 and sign(u)|u|^3.3
(the kink-table exponents of the tests, as the same float arithmetic gives
them).  Every node is found by Newton's method on the three-term recurrence
of P_n^(a, 0) at 50 digits, from double-precision Golub-Welsch start values,
until a step is below 1e-45; the weights are Christoffel's,
2^(a+1) / ((1 - x^2) P_n'(x)^2).  Nodes and weights are accurate to 40
digits and stored as the nearest doubles.  Needs mpmath, which neither the
package nor its tests import.
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

OUT = Path(__file__).resolve().parent / "gauss_rules.json"
mp.mp.dps = 50


def exponents() -> list[float]:
    """a = p - ell as the package's power law computes it, ell <= 3."""
    return [p - ell for p in (2.0 + 0.5, 3.0 + 0.3) for ell in range(4)]


def recurrence(n: int, a, x):
    """(P_n, P_n') of the Jacobi polynomial P_n^(a, 0) at x."""
    p0, p1 = mp.mpf(1), (a + (a + 2) * x) / 2
    for m in range(2, n + 1):
        s = 2 * m + a
        p0, p1 = p1, ((s - 1) * (s * (s - 2) * x + a * a) * p1
                      - 2 * (m + a - 1) * (m - 1) * s * p0) / (2 * m * (m + a) * (s - 2))
    s = 2 * n + a
    dp = (n * (a - s * x) * p1 + 2 * n * (n + a) * p0) / (s * (1 - x * x))
    return p1, dp


def start_values(n: int, a: float) -> np.ndarray:
    """Eigenvalues of the Jacobi matrix of P_k^(a, 0), in double precision."""
    k = np.arange(1, n)
    s = 2.0 * k + a
    diag = np.concatenate([[-a / (a + 2.0)], -a * a / (s * (s + 2.0))])
    off = 2.0 * k * (k + a) / (s * np.sqrt(s * s - 1.0))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))


def rule(n: int, a: float) -> dict:
    am = mp.mpf(a)  # the exact double
    nodes, weights = [], []
    for x0 in start_values(n, a):
        x = mp.mpf(x0)
        for _ in range(60):
            p, dp = recurrence(n, am, x)
            step = p / dp
            x -= step
            if abs(step) < mp.mpf(10) ** -45:
                break
        else:
            raise RuntimeError(f"Newton did not converge: n = {n}, a = {a!r}")
        _, dp = recurrence(n, am, x)
        nodes.append(x)
        weights.append(mp.mpf(2) ** (am + 1) / ((1 - x * x) * dp * dp))
    gaps = [b - c for b, c in zip(nodes[1:], nodes[:-1])]
    if min(gaps) <= 0:
        raise RuntimeError(f"nodes not distinct: n = {n}, a = {a!r}")
    mass = mp.mpf(2) ** (am + 1) / (am + 1)
    first = mass - mp.mpf(2) ** (am + 2) / (am + 2)  # integral of (1 - x)^a x
    if abs(mp.fsum(weights) / mass - 1) > mp.mpf(10) ** -40 or \
            abs(mp.fsum(w * x for w, x in zip(weights, nodes)) - first) > mp.mpf(10) ** -40:
        raise RuntimeError(f"rule misses its moments: n = {n}, a = {a!r}")
    return {"n": n, "a": a, "x": [float(x) for x in nodes],
            "w": [float(w) for w in weights]}


def main():
    specs = [(32, 0.0), (256, 0.0)] + [(80, a) for a in exponents()]
    data = {"weight": "(1 - x)^a on (-1, 1)",
            "digits": 40,
            "rules": [rule(n, a) for n, a in specs]}
    OUT.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
