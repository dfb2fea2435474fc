"""Reference values computed apart from the program under test.

Each function here uses exact rational arithmetic or mpmath and none of
the `affinecurves` code, so a wrong fast path in the program shows up as a
mismatch instead of agreeing with itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 30


def fibonacci(n: int) -> int:
    """F(n) with F(0) = 0, F(1) = 1 and F(-1) = 1."""
    if n == -1:
        return 1
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def parabola_points(m0: int, rigid: bool) -> set[tuple[int, int]]:
    """Lattice points (j, j(j-1)/2) of the exported parabola instance:
    j = 0 .. 2 m0 + 1, without j = 0 for the rigid variant."""
    start = 1 if rigid else 0
    return {(j, j * (j - 1) // 2) for j in range(start, 2 * m0 + 2)}


def hyperbola_points(m0: int, rigid: bool) -> set[tuple[int, int]]:
    """Odd-index Fibonacci pairs (F(2j-1), -F(2j)) on x^2 - xy - y^2 = 1:
    j = 0 .. 2 m0 + 1, without j = 0 for the rigid variant."""
    start = 1 if rigid else 0
    return {(fibonacci(2 * j - 1), -fibonacci(2 * j)) for j in range(start, 2 * m0 + 2)}


def sharp_bound(m0: int, rigid: bool) -> int:
    """2 m0 + 2 for the sharp instances, 2 m0 + 1 for the rigid ones."""
    return 2 * m0 + 1 if rigid else 2 * m0 + 2


def poly_value(coeffs: list[Fraction], x: Fraction) -> Fraction:
    """Ascending coefficients c0 + c1 x + c2 x^2 + ..."""
    return sum(c * x ** k for k, c in enumerate(coeffs))


def graph_lattice_points(coeffs: list[Fraction], lo: int, hi: int) -> set[tuple[int, int]]:
    """Standard-lattice points on y = p(x), x in [lo, hi], by an exact scan
    over the integers x."""
    out = set()
    for x in range(lo, hi + 1):
        y = poly_value(coeffs, Fraction(x))
        if y.denominator == 1:
            out.add((x, int(y)))
    return out


def graph_chord_area(coeffs: list[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    """Exact area between the chord from (lo, p(lo)) to (hi, p(hi)) and the
    convex graph of p: the integral of chord minus polynomial."""
    plo, phi = poly_value(coeffs, lo), poly_value(coeffs, hi)
    chord = (plo + phi) / 2 * (hi - lo)
    antideriv = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(coeffs)]
    return chord - (poly_value(antideriv, hi) - poly_value(antideriv, lo))


def _mpq(q: Fraction):
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _poly_mp(coeffs, x, deriv: int = 0):
    total = mpmath.mpf(0)
    for k, c in enumerate(coeffs):
        if k < deriv:
            continue
        fall = math.prod(range(k - deriv + 1, k + 1))
        total += fall * _mpq(c) * x ** (k - deriv)
    return total


def graph_arclength(coeffs: list[Fraction], lo: float, hi: float) -> float:
    """Affine arc length of a convex graph: integral of (f'')^(1/3) dx."""
    return float(mpmath.quad(lambda x: mpmath.cbrt(_poly_mp(coeffs, x, 2)), [lo, hi]))


def graph_curvature_at_mid_arclength(coeffs: list[Fraction], lo: float, hi: float) -> float:
    """Affine curvature of y = p(x) at the point halfway along the affine
    arc length, from the closed form
    f''''/(3 f''^(5/3)) - 5 f'''^2 / (9 f''^(8/3))."""
    def arc(x):
        return mpmath.quad(lambda t: mpmath.cbrt(_poly_mp(coeffs, t, 2)), [lo, x])

    half = arc(hi) / 2
    x = mpmath.findroot(lambda x: arc(x) - half, (lo + hi) / 2)
    f2, f3, f4 = (_poly_mp(coeffs, x, d) for d in (2, 3, 4))
    return float(f4 / (3 * f2 ** (mpmath.mpf(5) / 3))
                 - 5 * f3 ** 2 / (9 * f2 ** (mpmath.mpf(8) / 3)))


def constant_area(k: float, s: float) -> float:
    """Swept area of a constant-curvature arc of length s, the solution of
    A''' + k A' = 1/2 with zero data: (s - sin(sqrt(k) s)/sqrt(k)) / (2k)."""
    k, s = mpmath.mpf(k), mpmath.mpf(s)
    if k == 0:
        return float(s ** 3 / 12)
    r = mpmath.sqrt(mpmath.mpc(k))
    return float(mpmath.re((s - mpmath.sin(r * s) / r) / (2 * k)))


def ivp_area(kappa_coeffs: list[float], lo: float, hi: float) -> float:
    """Swept area at s = hi of the unit-speed curve with curvature
    kappa(s) = c0 + c1 s + c2 s^2 + ... on [lo, hi], from the apex c(lo):
    the solution of A''' + kappa A' = 1/2 with zero data at lo, by mpmath's
    Taylor-series ODE solver."""
    with mpmath.workdps(20):
        def rhs(s, y):
            kappa = sum(mpmath.mpf(c) * s ** i for i, c in enumerate(kappa_coeffs))
            return [y[1], y[2], mpmath.mpf(1) / 2 - kappa * y[1]]

        return float(mpmath.odefun(rhs, mpmath.mpf(lo), [0, 0, 0])(mpmath.mpf(hi))[0])


def kernel_closed_form(family: str, k: float, s: float, r: float) -> float:
    """Lagrange kernel of y'' + k y (second) or y''' + k y' (third) at (s; r)."""
    k, u = mpmath.mpf(k), mpmath.mpf(s) - mpmath.mpf(r)
    if k == 0:
        return float(u if family == "second" else u * u / 2)
    root = mpmath.sqrt(mpmath.mpc(k))
    if family == "second":
        return float(mpmath.re(mpmath.sin(root * u) / root))
    return float(mpmath.re((1 - mpmath.cos(root * u)) / k))


def central_conic_curvature(a: Fraction, b: Fraction, c: Fraction, r: Fraction) -> float:
    """Affine curvature of a x^2 + b xy + c y^2 = r: cbrt(ac - b^2/4) / r^(2/3).
    For x^2/p^2 + y^2/q^2 = 1 this is (pq)^(-2/3)."""
    delta = _mpq(Fraction(a) * c - Fraction(b) ** 2 / 4)
    root = mpmath.cbrt(abs(delta)) * (1 if delta > 0 else -1)
    return float(root / mpmath.cbrt(_mpq(r)) ** 2)


def thm41_constant_references(seed: int, trials: int, k0: float, k1: float) -> dict[int, float]:
    """Constant reference curvatures of a `verify thm4.1` sweep.

    Trials 0, 3, 6, ... draw a constant reference from the sweep's seeded
    generator; every trial consumes four uniform draws in a fixed order,
    so the constants follow from the seed without running the sweep.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    refs = {}
    for trial in range(trials):
        if trial % 3 == 0:
            refs[trial] = float(rng.uniform(k0, k1))
        else:
            rng.uniform(size=1)
        rng.uniform(size=3)
    return refs
