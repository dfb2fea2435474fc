import dataclasses
import math

import numpy as np
import pytest

from affinecurves.compare import (
    area_bounds,
    area_compare,
    area_ode_residual,
    coord_bounds_check,
    triangle_bound_arc,
    triangle_bound_rect,
    verify_triangle_bound,
)
from affinecurves.conics import Conic
from affinecurves.curve import (
    constant_curvature_curve,
    parabola_curve,
    reconstruct_from_curvature,
)
from affinecurves.kfuncs import Interval, abar, hk
from affinecurves.odekernel import solve_ivp

from reference import third_order_op, triangle_ratio_asymptotic, triangle_ratio_exact

ALPHA = 2.0 ** (-1.0 / 3.0) * 5.0 ** (1.0 / 6.0)


def hyperbola_curve(interval):
    return Conic.make(1, -1, -1, 0, 0, -1).branch_curve((1.0, 0.0), interval)


class TestAreaCompare:
    def test_parabola_above_reference(self):
        c = parabola_curve(Interval(0.0, 2.0))
        rep = area_compare(c, -1.0, 2.0)
        assert rep.holds
        # kappa = 0 >= -1, so the swept area sits below the reference
        assert rep.lhs == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert rep.rhs == pytest.approx(abar(-1.0, 2.0), abs=1e-9)

    def test_equality_flag(self):
        c = constant_curvature_curve(-0.7, Interval(0.0, 1.5))
        rep = area_compare(c, -0.7, 1.5)
        assert rep.holds and rep.equality
        assert "kappa == kappa_bar" in rep.notes

    def test_perturbed_curvature_no_equality_flag(self):
        c = constant_curvature_curve(-0.69, Interval(0.0, 1.5))
        rep = area_compare(c, -0.7, 1.5)
        assert rep.holds
        assert not rep.equality

    @pytest.mark.parametrize("grid_n", [2, 11, 21])
    def test_coarse_positivity_grid_holds(self, grid_n):
        # A'(0) = 0 from the area's zero jet: the start is left out of the
        # a.e. positive fraction, which would otherwise fall below 0.99 on
        # a comparison grid of fewer than 100 points
        c = parabola_curve(Interval(0.0, 2.0))
        rep = area_compare(c, -1.0, 2.0, positivity_grid_n=grid_n)
        assert rep.holds
        assert rep.lhs == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_hyperbola_vs_flat(self):
        c = hyperbola_curve(Interval(0.0, 1.0))
        rep = area_compare(c, 0.0, 1.0)
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0 / 12.0, abs=1e-9)
        assert rep.rhs > rep.lhs

    def test_non_positive_kernel_fails_hypotheses(self):
        # a high plateau dropping to nearly zero: the kernel's derivative
        # oscillates with growing amplitude, so the kernel itself dips
        # negative after the first arch
        c = parabola_curve(Interval(0.0, 4.0))
        k_bar = lambda s: 12.5 * (1.0 - math.tanh(8.0 * (s - 0.7))) + 0.01
        rep = area_compare(c, k_bar, 4.0)
        assert rep.verdict == "hypotheses-failed"


class TestAreaBounds:
    def test_collapsed(self):
        assert area_bounds(0.0, 0.0, 1.0) == (pytest.approx(1 / 12), pytest.approx(1 / 12))

    def test_negative_band(self):
        lo, hi = area_bounds(-1.0, 0.0, 2.0)
        assert lo == pytest.approx(2.0 / 3.0)
        assert hi == pytest.approx(abar(-1.0, 2.0))
        assert lo <= hi

    def test_positive_band(self):
        lo, hi = area_bounds(0.0, 1.0, 1.0)
        assert lo == pytest.approx((1.0 - math.sin(1.0)) / 2.0)
        assert hi == pytest.approx(1.0 / 12.0)

    def test_order_error(self):
        with pytest.raises(ValueError):
            area_bounds(1.0, 0.0, 1.0)

    def test_sandwich_random_reconstructions(self):
        rng = np.random.default_rng(4)
        k0, k1 = -1.5, 0.0
        for _ in range(15):
            c2 = rng.uniform(k0, k1, size=2)
            kap = lambda s, a=c2: min(k1, max(k0, a[0] + a[1] * math.sin(2 * s)))
            curve = reconstruct_from_curvature(kap, Interval(0.0, 2.0))
            from affinecurves.curve import area_function
            val = area_function(curve, 0.0)(2.0)
            lo, hi = area_bounds(k0, k1, 2.0)
            assert lo - 1e-7 <= val <= hi + 1e-7


class TestCoordBounds:
    def test_constant_curvature_equality(self):
        k = -0.8
        c = constant_curvature_curve(k, Interval(-1.5, 1.5))
        rep = coord_bounds_check(c, 0.0, k, k, 1.5)
        assert rep.holds
        assert rep.equality
        assert "curvature constant" in rep.notes

    def test_parabola_band(self):
        c = parabola_curve(Interval(-1.2, 1.2))
        rep = coord_bounds_check(c, 0.0, -1.0, 1.0, 1.0)
        assert rep.holds

    def test_hyperbola_upper_attained(self):
        c = hyperbola_curve(Interval(-1.0, 1.0))
        rep = coord_bounds_check(c, 0.0, -ALPHA ** 2, 0.0, 1.0)
        assert rep.holds
        assert rep.equality
        # attaining the upper profile confirms constant curvature k0
        assert "curvature constant" in rep.notes

    def test_k1_cap_violation(self):
        c = parabola_curve(Interval(-2.0, 2.0))
        k1 = (math.pi / (2 * 2.0)) ** 2 * 2.0
        rep = coord_bounds_check(c, 0.0, -1.0, k1, 2.0)
        assert rep.verdict == "hypotheses-failed"

    def test_curvature_escapes_band(self):
        c = parabola_curve(Interval(-1.0, 1.0))
        rep = coord_bounds_check(c, 0.0, 0.5, 1.0, 1.0)
        assert rep.verdict == "hypotheses-failed"

    def test_builds_the_frame_once(self):
        # the frame at s0 costs one scalar read of the point and one of the
        # derivatives; the graphing interval reuses it
        curve = reconstruct_from_curvature(lambda s: -0.5 + 0.0 * s, Interval(-2.0, 2.0))
        sizes = []

        def counting(read):
            def counted(s):
                sizes.append(np.size(s))
                return read(s)
            return counted

        c = dataclasses.replace(curve, position=counting(curve.position.array_read),
                                derivatives=counting(curve.derivatives.array_read))
        assert coord_bounds_check(c, 0.0, -0.5, -0.5, 2.0).holds
        assert sizes.count(1) == 2

    def test_stiff_band_checks_each_point_on_its_own_scale(self):
        # q = sqrt(400) 4 = 80: the profiles reach 1e33 at u = +-L, and a
        # slack scaled by the largest of them (2.8e25) let every point with
        # |u| < 3.4 pass; moving the points near u = 0.5 out by 5% breaks
        # the x-upper bound there by about 4% of its profile
        c = constant_curvature_curve(-399.5, Interval(-4.0, 4.0))
        assert coord_bounds_check(c, 0.0, -400.0, -399.0, 4.0).holds
        read = c.position.array_read
        moved = dataclasses.replace(
            c, position=lambda s: read(s) * np.where(np.abs(s - 0.5) < 0.1, 1.05, 1.0)[:, None])
        rep = coord_bounds_check(moved, 0.0, -400.0, -399.0, 4.0)
        assert rep.verdict == "violated" and rep.slack == 1e-7
        assert abs(rep.witness - 0.5) < 0.1 and rep.lhs > 0.01


class TestAreaODEResidual:
    def test_scaled_derivatives_are_violated(self):
        # derivatives 1.01 times too long: c' wedge c'' = 1.0201, so the
        # residual is 0.01005 on a scale of about 1.01
        c = constant_curvature_curve(-0.8, Interval(0.0, 2.0))
        assert area_ode_residual(c, 1e-5).holds
        read = c.derivatives.array_read
        scaled = dataclasses.replace(c, derivatives=lambda s: tuple(1.01 * d for d in read(s)))
        rep = area_ode_residual(scaled, 1e-5)
        assert rep.verdict == "violated"
        assert rep.lhs == pytest.approx(9.95e-3, rel=1e-3)

    def test_moved_points_are_violated(self):
        # the points past s = 1 moved by (0.01, 0.01), derivatives kept:
        # c''' = -kappa c' still holds to rounding, so only the jet of the
        # area ODE, which reads kappa alone, sees that (c - p) wedge c' moved
        c = constant_curvature_curve(-0.8, Interval(0.0, 2.0))
        read = c.position.array_read
        moved = dataclasses.replace(
            c, position=lambda s: read(s) + np.where(s > 1.0, 0.01, 0.0)[:, None])
        rep = area_ode_residual(moved, 1e-5)
        assert rep.verdict == "violated"
        assert rep.witness > 1.0 and rep.lhs > 1e-3


class TestTriangleBounds:
    def test_bound_values(self):
        assert triangle_bound_arc(0.0, 1.0) == pytest.approx(1 / 12)
        assert triangle_bound_arc(-1.0, 2.0) == pytest.approx(abar(-1.0, 2.0))
        assert triangle_bound_rect(0.0, 2.0) == pytest.approx(0.5)

    def test_rect_sharper_than_arc_at_flat(self):
        # both are valid bounds; neither dominates in general
        assert triangle_bound_rect(0.0, 2.0) < triangle_bound_arc(0.0, 2.0)

    def test_parabola_hand_triangle(self):
        c = parabola_curve(Interval(0.0, 3.0))
        rep = verify_triangle_bound(c, (0.0, 1.0, 3.0), "arc")
        assert rep.holds
        assert rep.lhs == pytest.approx(1.5, abs=1e-12)
        assert rep.rhs == pytest.approx(27.0 / 12.0, abs=1e-12)

    def test_rect_equality_witness(self):
        k0 = -1.0
        lam = 2.0
        c = constant_curvature_curve(k0, Interval(-1.0, 1.0))
        rep = verify_triangle_bound(c, (-1.0, 0.0, 1.0), "rect")
        assert rep.holds
        assert rep.equality
        assert rep.lhs == pytest.approx(hk(k0, lam / 2.0), rel=1e-9)

    def test_random_triangles_never_exceed(self):
        rng = np.random.default_rng(5)
        c = hyperbola_curve(Interval(0.0, 2.0))
        for _ in range(200):
            params = np.sort(rng.uniform(0.0, 2.0, size=3))
            if params[0] + 1e-6 > params[1] or params[1] + 1e-6 > params[2]:
                continue
            for kind in ("arc", "rect"):
                rep = verify_triangle_bound(c, tuple(params), kind)
                assert rep.holds

    def test_degenerate_vertices(self):
        c = parabola_curve(Interval(0.0, 3.0))
        # collinear on a parabola requires equal params, which is rejected;
        # nearly-equal params give near-zero area and the bound still holds
        rep = verify_triangle_bound(c, (1.0, 1.0 + 1e-9, 1.0 + 2e-9), "arc")
        assert rep.holds
        assert rep.lhs <= 1e-12

    def test_ratio_exact_formula(self):
        # the deficit equals -(sinh x - x)/(sinh x cosh x - x), x = sqrt|k0| L
        for k0, lam in ((-25.0, 2.0), (-4.0, 3.0)):
            x = math.sqrt(-k0) * lam / 2.0
            expect = -(math.sinh(x) - x) / (math.sinh(x) * math.cosh(x) - x)
            assert triangle_ratio_exact(k0, lam) == pytest.approx(expect, rel=1e-10)

    def test_ratio_asymptotic_accuracy(self):
        for k0 in (-25.0, -100.0):
            exact = triangle_ratio_exact(k0, 2.0)
            asym = triangle_ratio_asymptotic(k0, 2.0)
            assert abs(asym - exact) <= 0.10 * abs(exact)


class TestReferenceArea:
    """area_compare's reference area, read from the same forced table as
    its kernel certificate, against DOP853 and the closed form."""

    @pytest.mark.parametrize("k_bar, length, grid_n", [
        (lambda s: -1.0 + 0.5 * math.sin(2.0 * s), 3.0, 81),
        (lambda s: min(0.0, -2.0 + 3.0 * math.sin(2.0 * s)), 2.5, 41),
        (lambda s: -9.0 + math.cos(s), 4.0, 41),
    ], ids=["band", "kinked", "stiff"])
    def test_reference_area_equals_dop853(self, k_bar, length, grid_n):
        # kappa = 0 >= k_bar: the reference area is the report's rhs
        rep = area_compare(parabola_curve(Interval(0.0, length)), k_bar, length,
                           positivity_grid_n=grid_n)
        op = third_order_op(k_bar, Interval(0.0, length))
        want = solve_ivp(op, 0.5, 0.0, (0.0, 0.0, 0.0), rtol=1e-13, atol=1e-15)(length)
        assert {h.name: h.ok for h in rep.hypotheses} == {
            "curvature-ordering": True, "forward-positive-kernel": True,
            "derivative-positive-ae": True}
        assert rep.verdict == "holds"
        assert rep.rhs == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("k", [-16.0, -0.7, 0.0, 2.0])
    def test_constant_reference_area_is_abar(self, k):
        length = 1.5
        rep = area_compare(constant_curvature_curve(k, Interval(0.0, length)), k, length)
        assert rep.equality
        assert rep.lhs == pytest.approx(abar(k, length), rel=1e-12)
