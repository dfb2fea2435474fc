"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with `pytest tests/test_acceptance.py -v -s`
to see the lines).

Identity residuals are scaled by the largest term entering each identity;
the hyperbolic terms reach ~1e27 at the grid corners where an unscaled
1e-12 would be far below one ulp of the data.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from affinecurves.compare import (
    area_bounds,
    area_compare,
    coord_bounds_check,
    triangle_bound_arc,
    triangle_bound_rect,
)
from affinecurves.conics import Conic
from affinecurves.curve import (
    area_function,
    constant_curvature_curve,
    parabola_curve,
    reconstruct_from_curvature,
    wedge,
)
from affinecurves.kfuncs import Interval, abar, ck, gk, hk, sk, ybar
from affinecurves.lattice import Lattice, equal_spaced_orbit, m_of_curve, triangle_multiplier
from affinecurves.odekernel import make_operator, solve_ivp
from affinecurves.sharp_instances import circle_instance, hyperbola_zxz_instance, parabola_instance

from reference import (
    fibonacci,
    is_classified_angle,
    lagrange_kernel,
    orbit_on_conic,
    oscillator_op,
    parity_multiplier_bound,
    rotation_trace,
    seed_params,
    seed_points,
    solve_via_kernel,
    swept_area,
    third_order_op,
    triangle_ratio_asymptotic,
    triangle_ratio_exact,
)

ALPHA = 2.0 ** (-1.0 / 3.0) * 5.0 ** (1.0 / 6.0)
ZXZ_L = math.asinh(math.sqrt(5.0) / 2.0) / ALPHA


def _report(name: str, started: float, detail: str = "") -> None:
    took = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: PASS in {took:.2f}s{suffix}")


def poly_fn(coeffs):
    return lambda s, c=tuple(coeffs): sum(ci * s ** i for i, ci in enumerate(c))


def test_criterion_1_special_function_identities():
    started = time.perf_counter()
    ks = np.linspace(-10.0, 10.0, 50)
    ss = np.linspace(-10.0, 10.0, 50)
    worst_scaled = 0.0
    for k in ks:
        for s in ss:
            c, sn = ck(k, s), sk(k, s)
            # Pythagorean identity
            t1, t2 = c * c, k * sn * sn
            scale = max(1.0, abs(t1), abs(t2))
            worst_scaled = max(worst_scaled, abs(t1 + t2 - 1.0) / scale)
            # addition formulas at a deterministic companion argument
            a = 0.6 * s - 1.7
            ca, sa = ck(k, a), sk(k, a)
            tc1, tc2 = ca * c, k * sa * sn
            scale_c = max(1.0, abs(tc1), abs(tc2))
            worst_scaled = max(worst_scaled,
                               abs(ck(k, a + s) - (tc1 - tc2)) / scale_c)
            ts1, ts2 = sa * c, ca * sn
            scale_s = max(1.0, abs(ts1), abs(ts2))
            worst_scaled = max(worst_scaled,
                               abs(sk(k, a + s) - (ts1 + ts2)) / scale_s)
    assert worst_scaled <= 1e-12

    # derivative identities by central differences
    h = 1e-5
    worst_d = 0.0
    for k in np.linspace(-10.0, 10.0, 25):
        for s in np.linspace(-9.0, 9.0, 25):
            dc = (ck(k, s + h) - ck(k, s - h)) / (2 * h)
            ds = (sk(k, s + h) - sk(k, s - h)) / (2 * h)
            worst_d = max(worst_d,
                          abs(dc + k * sk(k, s)) / max(1.0, abs(k * sk(k, s))),
                          abs(ds - ck(k, s)) / max(1.0, abs(ck(k, s))))
    assert worst_d <= 1e-6

    # continuity across k = 0
    worst_c = 0.0
    for k in (1e-12, -1e-12):
        for s in np.linspace(-10.0, 10.0, 41):
            worst_c = max(
                worst_c,
                abs(sk(k, s) - s) / max(1.0, abs(s)),
                abs(ybar(k, s) - s * s / 2) / max(1.0, s * s / 2),
                abs(abar(k, s) - s ** 3 / 12) / max(1.0, abs(s) ** 3 / 12))
    assert worst_c <= 1e-9

    took = time.perf_counter() - started
    assert took < 1.0
    _report("criterion 1 (identities)", started,
            f"worst scaled residual {worst_scaled:.2e}")


def test_criterion_2_kernel_closed_forms_and_oracle():
    started = time.perf_counter()
    interval = Interval(0.0, 1.0)
    worst_closed = 0.0
    for k in (-4.0, -1.0, 0.0, 1.0, 4.0):
        pk = lagrange_kernel(oscillator_op(k, interval))
        qk = lagrange_kernel(third_order_op(k, interval))
        for r in np.linspace(0.0, 0.9, 6):
            colp, colq = pk.column(float(r)), qk.column(float(r))
            for s in np.linspace(float(r), 1.0, 6):
                want_p = sk(k, s - r)
                want_q = ((1.0 - ck(k, s - r)) / k if k != 0.0
                          else (s - r) ** 2 / 2.0)
                worst_closed = max(worst_closed,
                                   abs(colp(float(s)) - want_p),
                                   abs(colq(float(s)) - want_q))
    assert worst_closed <= 1e-8

    rng = np.random.default_rng(0)
    worst_pair = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        coeffs = [poly_fn(rng.uniform(-5, 5, size=3)) for _ in range(n)]
        op = make_operator(coeffs, interval)
        forcing = poly_fn(rng.uniform(-2, 2, size=3))
        direct = solve_ivp(op, forcing, 0.0)
        viakernel = solve_via_kernel(op, forcing, 0.0)
        for s in (0.2, 0.5, 0.75, 1.0):
            worst_pair = max(worst_pair, abs(viakernel(s) - direct(s)))
    assert worst_pair <= 1e-6

    took = time.perf_counter() - started
    assert took < 30.0
    _report("criterion 2 (kernels)", started,
            f"closed-form dev {worst_closed:.2e}, oracle dev {worst_pair:.2e}")


def test_criterion_3_area_oracle_equivalence():
    started = time.perf_counter()

    def ode_area(curve, length):
        op = third_order_op(curve.curvature, Interval(0.0, length))
        return solve_ivp(op, 0.5, 0.0, (0.0, 0.0, 0.0))

    cases = [
        ("parabola", parabola_curve(Interval(0.0, 3.0))),
        ("ellipse arc", constant_curvature_curve(2.0, Interval(0.0, 1.5))),
        ("hyperbola", Conic.make(1, -1, -1, 0, 0, -1).branch_curve(
            (1.0, 0.0), Interval(0.0, 2.0))),
    ]
    rng = np.random.default_rng(1)
    for i in range(10):
        kap = poly_fn(rng.uniform(-1.0, 0.5, size=3))
        cases.append((f"random {i}",
                      reconstruct_from_curvature(kap, Interval(0.0, 2.0))))

    worst = 0.0
    for name, curve in cases:
        length = curve.domain.hi
        integral = swept_area(curve, 0.0)
        via_ode = ode_area(curve, length)
        for s in np.linspace(0.2, length, 5):
            worst = max(worst, abs(integral(float(s)) - via_ode(float(s))))
    assert worst <= 1e-8

    parab = area_function(parabola_curve(Interval(0.0, 3.0)), 0.0)
    for s in (0.5, 1.0, 2.0, 3.0):
        assert abs(parab(s) - s ** 3 / 12) <= 1e-10

    _report("criterion 3 (area oracle)", started, f"worst path gap {worst:.2e}")


def test_criterion_4_comparison_sweeps():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    length = 2.0
    cap = (math.pi / length) ** 2

    held = 0
    for trial in range(100):
        case = trial % 3
        if case == 0:
            kbar_val = float(rng.uniform(-1.5, 0.5))
            kbar = lambda s, v=kbar_val: v
            top = kbar_val
        elif case == 1:
            a = rng.uniform(-1.0, 0.0, size=2)
            kbar = lambda s, a=a: min(0.0, a[0] + a[1] * math.sin(s))
            top = None
        else:
            k1 = 0.9 * cap
            a = rng.uniform(0.0, k1, size=2)
            kbar = lambda s, a=a, k1=k1: min(k1, a[0] + a[1] * math.sin(s))
            top = None
        gap = float(rng.uniform(0.0, 1.0))
        kap = lambda s, f=kbar, g=gap: f(s) - g
        curve = reconstruct_from_curvature(kap, Interval(0.0, length))
        rep = area_compare(curve, kbar, length, positivity_grid_n=31)
        assert rep.holds, (trial, rep.to_dict())
        held += 1
    assert held == 100

    # two-sided sandwich plus rectangle bounds on one sweep of band-limited
    # curvatures
    k0, k1 = -1.5, 0.25
    lo_b, hi_b = area_bounds(k0, k1, length)
    for trial in range(100):
        a = rng.uniform(k0, k1, size=2)
        w = float(rng.uniform(0.5, 2.0))
        mid = 0.5 * (min(a) + max(a))
        amp = 0.5 * (max(a) - min(a))
        kap = lambda s, m=mid, p=amp, w=w: m + p * math.sin(w * s)
        curve = reconstruct_from_curvature(kap, Interval(-length, length))
        val = area_function(curve, 0.0)(length)
        assert lo_b - 1e-7 <= val <= hi_b + 1e-7, trial
        rep = coord_bounds_check(curve, 0.0, k0, k1, 1.2)
        assert rep.holds, (trial, rep.to_dict())

    took = time.perf_counter() - started
    assert took < 120.0
    _report("criterion 4 (comparison sweeps)", started, f"{took:.1f}s for 200 trials")


def test_criterion_5_intro_constants():
    started = time.perf_counter()
    assert abs(gk(0.0, 0.5) - 1.0) <= 1e-12
    for k0 in (-1.0, -ALPHA ** 2):
        L = gk(k0, 0.5)
        a = math.sqrt(-k0)
        lhs = (math.sinh(a * L) / a) * ((math.cosh(a * L) - 1.0) / (a * a))
        assert abs(lhs - 0.5) <= 1e-10
    _report("criterion 5 (intro constants)", started)


def test_criterion_6_hyperbola_exact():
    started = time.perf_counter()
    assert abs(math.cosh(ALPHA * ZXZ_L) - 1.5) <= 1e-12
    assert abs(math.sinh(ALPHA * ZXZ_L) - math.sqrt(5.0) / 2.0) <= 1e-12
    assert abs(hk(-ALPHA ** 2, ZXZ_L) - 0.5) <= 1e-12

    inst = hyperbola_zxz_instance(1)
    pts = inst.enumerate()
    assert pts.coords == [(1, 0), (1, -1), (2, -3), (5, -8)]

    orbit, _ = equal_spaced_orbit(inst.conic, inst.k0, inst.lattice,
                                  seed_points(inst), seed_params(inst)[:4],
                                  count=8)
    for j in range(2, 9):
        assert orbit.coords[j - 1] == (fibonacci(2 * j - 3), -fibonacci(2 * j - 2))
    _report("criterion 6 (hyperbola exactness)", started)


def test_criterion_7_sharp_counting():
    started = time.perf_counter()
    for m0 in range(1, 6):
        inst = parabola_instance(m0=m0)
        pts = inst.enumerate()
        cert = inst.certificate()
        assert cert.conclusive
        assert len(pts) == cert.bound == 2 * m0 + 2
        assert pts.coords == list(inst.expected_coords)
    for m0 in range(1, 5):
        inst = hyperbola_zxz_instance(m0, rigid=True)
        pts = inst.enumerate()
        cert = inst.certificate()
        assert cert.conclusive
        assert len(pts) == cert.bound == 2 * m0 + 1
        assert pts.coords == list(inst.expected_coords)
    took = time.perf_counter() - started
    assert took < 10.0
    _report("criterion 7 (sharp counting)", started, f"{took:.2f}s")


def test_criterion_8_triangle_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    curves = [
        ("parabola", parabola_curve(Interval(0.0, 2.0)), 0.0),
        ("hyperbola", Conic.make(1, -1, -1, 0, 0, -1).branch_curve(
            (1.0, 0.0), Interval(0.0, 2.0)), -ALPHA ** 2),
        ("ellipse", constant_curvature_curve(1.0, Interval(0.0, 2.5)), 1.0),
        ("reconstructed", reconstruct_from_curvature(
            lambda s: -1.0 - 0.5 * math.sin(s), Interval(0.0, 2.0)), -1.5),
    ]
    for name, curve, k0 in curves:
        lam = curve.domain.length
        arc_bound = triangle_bound_arc(k0, lam)
        rect_bound = triangle_bound_rect(k0, lam)
        worst = -math.inf
        for _ in range(1000):
            params = np.sort(rng.uniform(curve.domain.lo, curve.domain.hi, 3))
            p1, p2, p3 = (curve.point(float(s)) for s in params)
            area = 0.5 * abs(wedge(p2 - p1, p3 - p1))
            worst = max(worst, area)
            assert area <= arc_bound + 1e-7
            assert area <= rect_bound + 1e-7
        assert worst <= min(arc_bound, rect_bound) + 1e-7, name

    # sharpness model of the arc bound: exact deficit vs its exponential
    # model at lam = 2.  The deficit is -(sinh x - x)/(sinh x cosh x - x)
    # with x = sqrt(|k0|) lam/2, whose large-x limit is -2 e^(-x) (the
    # coefficient follows from sinh x cosh x ~ e^(2x)/4).
    for k0 in (-25.0, -100.0):
        exact = triangle_ratio_exact(k0, 2.0)
        x = math.sqrt(-k0)
        display = -(math.sinh(x) - x) / (math.sinh(x) * math.cosh(x) - x)
        assert exact == pytest.approx(display, rel=1e-9)
        asym = triangle_ratio_asymptotic(k0, 2.0)
        assert abs(asym - exact) <= 0.10 * abs(exact)
    _report("criterion 8 (triangle bounds)", started)


def test_criterion_9_multiplier_machinery():
    started = time.perf_counter()
    pts = [(x, y) for x in range(-5, 6) for y in range(-5, 6)
           if x * x + y * y == 25]
    assert len(pts) == 12
    lat = Lattice.standard()
    cert = m_of_curve(lat, pts)
    assert cert == 2
    assert parity_multiplier_bound(1, 0, 1, 25) == cert
    # every triple has even multiplier, the minimum is attained
    mults = [triangle_multiplier(lat, *tri) for tri in combinations(pts, 3)]
    assert min(mults) == 2 and all(m % 2 == 0 for m in mults)

    inst = circle_instance(1.0)
    for config in inst.configs:
        assert rotation_trace(config.theta) == pytest.approx(config.trace,
                                                             abs=1e-12)
        assert is_classified_angle(config.theta)
        assert orbit_on_conic(config, 12)
        mat = config.basis_matrix
        assert mat[0][0] + mat[1][1] == config.trace
    for theta in (0.4, 1.2, 2 * math.pi / 5, 2.9):
        assert not is_classified_angle(theta)
    _report("criterion 9 (multiplier machinery)", started)
