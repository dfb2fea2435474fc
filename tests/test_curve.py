import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq

from affinecurves import curve as curve_mod
from affinecurves import kfuncs, odekernel
from affinecurves.conics import Conic
from affinecurves.curve import (
    AdaptedFrame,
    ConvexityError,
    GraphJet,
    OrientationError,
    ParametricCurve,
    adapted_frame,
    affine_arclength,
    affine_curvature_at,
    area_function,
    area_ode_residual,
    constant_curvature_curve,
    curvature_from_graph,
    graph_curve,
    graphing_parameter_set,
    parabola_curve,
    reconstruct_from_curvature,
    reparam_unit_speed,
    wedge,
)
from affinecurves.kfuncs import DomainError, Interval, abar, brent_root, sk, ybar
from affinecurves.odekernel import SolverError
from affinecurves.specfiles import parse_curve_spec

ALPHA = 2.0 ** (-1.0 / 3.0) * 5.0 ** (1.0 / 6.0)


def circle_raw(r=1.0):
    return ParametricCurve(
        position=lambda t: (r * math.cos(t), r * math.sin(t)),
        d1=lambda t: (-r * math.sin(t), r * math.cos(t)),
        d2=lambda t: (-r * math.cos(t), -r * math.sin(t)),
        d3=lambda t: (r * math.sin(t), -r * math.cos(t)),
        d4=lambda t: (r * math.cos(t), r * math.sin(t)),
    )


def random_special_affine(rng):
    """Random motion with determinant exactly 1."""
    while True:
        m = rng.uniform(-2, 2, size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) > 0.1:
            break
    m[:, 1] /= det
    b = rng.uniform(-3, 3, size=2)
    return m, b


class TestWedge:
    def test_standard_basis(self):
        assert wedge((1, 0), (0, 1)) == 1.0

    def test_antisymmetry(self):
        v = (2.3, -0.7)
        assert wedge(v, v) == 0.0
        assert wedge((1, 2), (3, 4)) == -wedge((3, 4), (1, 2))

    def test_fibonacci_points(self):
        assert wedge((2, -3), (5, -8)) == -1.0

    def test_bilinear(self):
        rng = np.random.default_rng(0)
        u, v, w = rng.uniform(-5, 5, (3, 2))
        lam = 1.7
        assert wedge(u + lam * v, w) == pytest.approx(
            wedge(u, w) + lam * wedge(v, w), abs=1e-12)


class TestArclength:
    def test_parabola(self):
        raw = ParametricCurve(lambda t: (t, t * t / 2), lambda t: (1, t),
                              lambda t: (0, 1), lambda t: (0, 0))
        assert affine_arclength(raw, 0.0, 5.0) == pytest.approx(5.0, abs=1e-10)

    def test_circle_closed_form(self):
        # integrand is (r^2)^(1/3), so a full turn has length 2 pi r^(2/3)
        for r in (1.0, 2.0):
            raw = circle_raw(r)
            expect = 2 * math.pi * r ** (2.0 / 3.0)
            assert affine_arclength(raw, 0.0, 2 * math.pi) == pytest.approx(
                expect, rel=1e-10)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        raw = circle_raw(1.5)
        base = affine_arclength(raw, 0.2, 2.0)
        for _ in range(20):
            m, b = random_special_affine(rng)
            moved = ParametricCurve(
                position=lambda t: m @ np.asarray(raw.position(t)) + b,
                d1=lambda t: m @ np.asarray(raw.d1(t)),
                d2=lambda t: m @ np.asarray(raw.d2(t)),
                d3=lambda t: m @ np.asarray(raw.d3(t)),
            )
            assert affine_arclength(moved, 0.2, 2.0) == pytest.approx(
                base, rel=1e-9)

    def test_orientation_error(self):
        raw = ParametricCurve(lambda t: (t, -t * t / 2), lambda t: (1, -t),
                              lambda t: (0, -1), lambda t: (0, 0))
        with pytest.raises(OrientationError):
            affine_arclength(raw, 0.0, 1.0)


class TestReparam:
    def test_already_unit_speed(self):
        raw = ParametricCurve(lambda t: (t, t * t / 2), lambda t: (1, t),
                              lambda t: (0, 1), lambda t: (0, 0))
        c = reparam_unit_speed(raw, 0.0, 3.0)
        assert c.domain.hi == pytest.approx(3.0, abs=1e-10)
        for s in (0.5, 1.7, 2.9):
            assert c.point(s) == pytest.approx((s, s * s / 2), abs=1e-9)

    def test_constant_rescaling(self):
        # (2t, t^2): c' wedge c'' = 4, ds/dt = 4^(1/3)
        raw = ParametricCurve(lambda t: (2 * t, t * t), lambda t: (2, 2 * t),
                              lambda t: (0, 2), lambda t: (0, 0),
                              d4=lambda t: (0, 0))
        c = reparam_unit_speed(raw, 0.0, 2.0)
        assert c.domain.hi == pytest.approx(4 ** (1.0 / 3.0) * 2.0, rel=1e-10)
        assert c.unit_speed_defect(200) <= 1e-8

    def test_circle_curvature_one(self):
        c = reparam_unit_speed(circle_raw(1.0), 0.0, 2 * math.pi)
        assert c.domain.hi == pytest.approx(2 * math.pi, rel=1e-10)
        for s in (0.0, 1.0, 4.0):
            assert c.curvature(s) == pytest.approx(1.0, abs=1e-8)
        assert c.unit_speed_defect(1000) <= 1e-8

    def test_circle_radius_to_curvature(self):
        # unit-speed circle of radius r has curvature r^(-4/3)
        r = 2.0
        c = reparam_unit_speed(circle_raw(r), 0.0, 2 * math.pi)
        assert c.curvature(1.0) == pytest.approx(r ** (-4.0 / 3.0), rel=1e-8)

    def test_fd_fallback_without_d4(self):
        raw = circle_raw(1.0)
        raw_no4 = ParametricCurve(raw.position, raw.d1, raw.d2, raw.d3)
        c = reparam_unit_speed(raw_no4, 0.0, 3.0)
        assert c.curvature(1.5) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [None, 11])
    def test_parameter_change_reads_equal_ode_solution(self, seed, monkeypatch):
        """t(s) of a graph, which is its point's x, read through scipy's
        OdeSolution of the same solve: the README graph, or a seeded convex
        cubic on [-2, 1] (|6 c3 x| < 2 c2 keeps f'' positive)."""
        coeffs, domain = ["0", "0", "1", "0.05"], ["-1", "1"]
        if seed is not None:
            rng = np.random.default_rng(seed)
            c2 = rng.uniform(0.5, 1.5)
            c = (*rng.uniform(-1, 1, 2), c2, rng.uniform(-c2, c2) / 8)
            coeffs = [repr(float(v)) for v in c]
            domain = ["-2", "1"]
        seen = []

        def recording(*args, **kwargs):
            seen.append(scipy_solve_ivp(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(odekernel, "_sp_solve_ivp", recording)
        curve = parse_curve_spec({"type": "graph", "coeffs": coeffs, "domain": domain}).curve
        ode, = seen
        lam, x0, x1 = curve.domain.hi, float(domain[0]), float(domain[1])
        ss = np.concatenate([np.random.default_rng(3).uniform(0.0, lam, 40), ode.t,
                             [0.0, lam, -0.25, lam + 0.25]])
        want = np.clip(ode.sol(np.clip(ss, 0.0, lam))[0], x0, x1)
        assert curve.point(ss)[:, 0].tobytes() == want.tobytes()
        assert [curve.point(s)[0] for s in ss.tolist()] == want.tolist()


class TestCurvature:
    def test_parabola_zero(self):
        c = parabola_curve(Interval(0.0, 3.0))
        assert affine_curvature_at(c, 1.0) == 0.0

    def test_constant_curvature_closed_form(self):
        for k in (-2.0, -0.5, 0.0, 1.0, 3.0):
            c = constant_curvature_curve(k, Interval(-1.0, 1.0))
            assert c.unit_speed_defect(100) <= 1e-12
            assert affine_curvature_at(c, 0.7) == pytest.approx(k, abs=1e-12)
            assert c.structure_defect(50) <= 1e-12

    def test_hyperbola_branch(self):
        conic = Conic.make(1, -1, -1, 0, 0, -1)
        assert conic.curvature() == pytest.approx(-ALPHA ** 2, rel=1e-13)
        c = conic.branch_curve((1.0, 0.0), Interval(0.0, 2.0))
        # stays on the conic and retains constant curvature
        for s in (0.0, 0.5, 1.3, 2.0):
            x, y = c.point(s)
            assert conic.evaluate_float(x, y) == pytest.approx(0.0, abs=1e-9)
            assert affine_curvature_at(c, s) == pytest.approx(-ALPHA ** 2, rel=1e-10)

    def test_hyperbola_branch_matches_closed_form(self):
        conic = Conic.make(1, -1, -1, 0, 0, -1)
        c = conic.branch_curve((1.0, 0.0), Interval(-1.0, 1.5))
        for s in (-0.8, 0.3, 1.2):
            x = math.cosh(ALPHA * s) - math.sinh(ALPHA * s) / math.sqrt(5)
            y = -2 * math.sinh(ALPHA * s) / math.sqrt(5)
            assert c.point(s) == pytest.approx((x, y), abs=1e-9)

    def test_ellipse_frame(self):
        conic = Conic.make(1, 0, 1, 0, -2, 0)  # x^2 + y^2 - 2y = 0
        assert conic.curvature() == pytest.approx(1.0, rel=1e-13)
        fr = conic.frame_at(0.0, 0.0)
        assert fr.tangent == pytest.approx((1.0, 0.0), abs=1e-12)
        assert fr.normal == pytest.approx((0.0, 1.0), abs=1e-12)


class TestGraphCurvature:
    def test_flat(self):
        assert curvature_from_graph(lambda x: 1.0, 0.3,
                                    lambda x: 0.0, lambda x: 0.0) == 0.0

    def test_circle_graph(self):
        f2 = lambda x: (1 - x * x) ** -1.5
        f3 = lambda x: 3 * x * (1 - x * x) ** -2.5
        f4 = lambda x: (3 + 12 * x * x) * (1 - x * x) ** -3.5
        for x in (0.0, 0.4, -0.6):
            assert curvature_from_graph(f2, x, f3, f4) == pytest.approx(1.0, rel=1e-12)

    def test_conic_graph(self):
        # x^2 + k y^2 - 2y = 0 solved for y has f'' = (1 - k x^2)^(-3/2)
        for k in (-1.5, 0.5, 2.0):
            f2 = lambda x: (1 - k * x * x) ** -1.5
            f3 = lambda x: 3 * k * x * (1 - k * x * x) ** -2.5
            f4 = lambda x: (3 * k + 12 * k * k * x * x) * (1 - k * x * x) ** -3.5
            assert curvature_from_graph(f2, 0.2, f3, f4) == pytest.approx(k, rel=1e-12)

    def test_fd_fallback(self):
        f2 = lambda x: (1 - x * x) ** -1.5
        assert curvature_from_graph(f2, 0.25) == pytest.approx(1.0, abs=1e-6)

    def test_convexity_error(self):
        with pytest.raises(ConvexityError):
            curvature_from_graph(lambda x: -1.0, 0.0, lambda x: 0.0, lambda x: 0.0)

    def test_graph_curve_circle(self):
        jet = GraphJet(
            f=lambda x: 1 - math.sqrt(1 - x * x),
            f1=lambda x: x / math.sqrt(1 - x * x),
            f2=lambda x: (1 - x * x) ** -1.5,
            f3=lambda x: 3 * x * (1 - x * x) ** -2.5,
            f4=lambda x: (3 + 12 * x * x) * (1 - x * x) ** -3.5,
        )
        c = graph_curve(jet, -0.5, 0.5)
        assert c.unit_speed_defect(100) <= 1e-8
        assert c.curvature(c.domain.hi / 2) == pytest.approx(1.0, abs=1e-8)


class TestReconstruction:
    def test_flat_curvature(self):
        c = reconstruct_from_curvature(0.0, Interval(0.0, 3.0))
        for s in (0.5, 2.0):
            assert c.point(s) == pytest.approx((s, s * s / 2), abs=1e-10)

    def test_constant_curvature_matches_profiles(self):
        for k in (-1.0, 0.7):
            c = reconstruct_from_curvature(k, Interval(-2.0, 2.0))
            for s in (-1.5, 0.3, 2.0):
                assert c.point(s) == pytest.approx((sk(k, s), ybar(k, s)), abs=1e-9)

    def test_round_trip_random_polynomial(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            coeffs = rng.uniform(-1.5, 1.5, size=3)
            kap = lambda s, c=coeffs: c[0] + c[1] * s + c[2] * s * s
            c = reconstruct_from_curvature(kap, Interval(0.0, 2.0))
            assert c.unit_speed_defect(200) <= 1e-8
            for s in (0.2, 1.0, 1.9):
                assert affine_curvature_at(c, s) == pytest.approx(kap(s), abs=1e-6)

    def test_nonconstant_linear(self):
        c = reconstruct_from_curvature(lambda s: s, Interval(0.0, 2.0))
        for s in (0.1, 1.0, 1.8):
            assert affine_curvature_at(c, s) == pytest.approx(s, abs=1e-6)

    def test_frame_anchoring(self):
        fr = AdaptedFrame(np.array((2.0, -1.0)), np.array((1.0, 1.0)),
                          np.array((0.5, 1.5)))
        c = reconstruct_from_curvature(0.0, Interval(0.0, 1.0), frame=fr)
        assert c.point(0.0) == pytest.approx((2.0, -1.0), abs=1e-12)
        d1, d2, _ = c.derivatives(0.0)
        assert d1 == pytest.approx(fr.tangent, abs=1e-12)
        assert d2 == pytest.approx(fr.normal, abs=1e-12)

    def test_solver_failure_is_typed(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError):
            reconstruct_from_curvature(-1e30, Interval(0.0, 1.0))

    def test_evaluation_clamps_to_domain(self):
        c = reconstruct_from_curvature(lambda s: s, Interval(-1.0, 1.0))
        assert np.array_equal(c.point(1.5), c.point(1.0))
        assert np.array_equal(c.derivatives(-3.0)[1], c.derivatives(-1.0)[1])


def _dop853_jets(kap, interval):
    """The reconstruction's solve by DOP853 at rtol 1e-13: the jets of
    u''' + kappa u' = 0 from (0, 1, 0) and (0, 0, 1) at s = 0, kept here as
    the oracle of the step-propagator route."""
    op = odekernel.third_order_op(kap, interval)
    return odekernel.solve_ivp(op, 0.0, 0.0, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
                               rtol=1e-13, atol=1e-15)


def _assert_matches_oracle(kap, interval, rel=1e-9):
    """Points and all three derivatives of the reconstruction, read at one
    array of parameters, and points read at single floats, within rel of
    the oracle's size at each point."""
    curve = reconstruct_from_curvature(kap, interval)
    ss = np.concatenate([np.linspace(interval.lo, interval.hi, 257),
                         np.random.default_rng(7).uniform(interval.lo, interval.hi, 64)])
    u = _dop853_jets(kap, interval).eval(ss)
    kv = np.array([kap(s) for s in ss.tolist()])
    want = (u[:, 0], u[:, 1], u[:, 2], -kv[:, None] * u[:, 1])
    got = (curve.point(ss), *curve.derivatives(ss))
    for g, w in zip(got, want):
        err = np.linalg.norm(g - w, axis=1) / np.maximum(1.0, np.linalg.norm(w, axis=1))
        assert err.max() <= rel
    scalar = np.array([curve.point(s) for s in ss[::16].tolist()])
    err = np.linalg.norm(scalar - want[0][::16], axis=1)
    assert (err <= rel * np.maximum(1.0, np.linalg.norm(want[0][::16], axis=1))).all()


class TestReconstructionOracle:
    """The step-propagator reconstruction against DOP853."""

    @pytest.mark.parametrize("k0, k1, length, two_sided", [
        (-2.0, 1.0, 1.0, False), (-1.0, 0.0, 2.0, True), (-4.0, -3.0, 1.5, False),
        (-9.0, -8.0, 2.5, True), (-25.0, -23.0, 4.0, False), (-25.0, -23.0, 4.0, True),
        (0.0, 2.0, 1.5, True),
    ])
    def test_cli_band_curvatures(self, k0, k1, length, two_sided):
        from affinecurves.cli import _random_band_curvature
        rng = np.random.default_rng(int(-k0 * 10 + length))
        for _ in range(2):
            kap = _random_band_curvature(rng, k0, k1)
            _assert_matches_oracle(kap, Interval(-length if two_sided else 0.0, length))

    @pytest.mark.parametrize("fraction", [0.02, 0.25, 0.5, 0.77, 0.95])
    def test_kink_anywhere_in_a_piece(self, fraction):
        # the start grid of [0, 2] has pieces of 1/8; the kink sits in the fifth
        kink = (4.0 + fraction) / 8.0
        _assert_matches_oracle(lambda s: min(0.0, -20.0 * (s - kink)), Interval(0.0, 2.0))
        _assert_matches_oracle(lambda s: min(0.0, -20.0 * (s - kink)) - 1.0,
                               Interval(-1.0, 2.0))

    def test_random_quadratics(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            c = rng.uniform(-6.0, 3.0, size=3)
            lo, hi = -rng.uniform(0.0, 2.0), rng.uniform(0.5, 2.5)
            _assert_matches_oracle(lambda s, c=c: c[0] + c[1] * s + c[2] * s * s,
                                   Interval(lo, hi))

    @pytest.mark.parametrize("k", [-25.0, -4.0, -1.0, 0.0, 0.7, 9.0])
    def test_constant_curvature_against_profiles(self, k):
        interval = Interval(-2.0, 2.0)
        curve = reconstruct_from_curvature(k, interval)
        ss = np.linspace(-2.0, 2.0, 201)
        c, sn = kfuncs.ck(k, ss)[:, None], sk(k, ss)[:, None]
        d1 = np.column_stack((kfuncs.ck(k, ss), sk(k, ss)))
        want = (np.column_stack((sk(k, ss), ybar(k, ss))), d1,
                np.hstack((-k * sn, c)), -k * d1)
        for g, w in zip((curve.point(ss), *curve.derivatives(ss)), want):
            err = np.linalg.norm(g - w, axis=1) / np.maximum(1.0, np.linalg.norm(w, axis=1))
            assert err.max() <= 1e-9

    @pytest.mark.parametrize("divisions", [4, 8, 16])
    def test_sines_that_vanish_at_nested_nodes(self, divisions):
        # kappa = 3 sin(2 pi s / (L / d)) on [0, 2] vanishes at every node
        # of the nested halvings of one piece; the start grid sees it
        period = 2.0 / divisions
        _assert_matches_oracle(lambda s: 3.0 * math.sin(2.0 * math.pi * s / period),
                               Interval(0.0, 2.0))

    def test_quintic_that_vanishes_at_the_quarter_points(self):
        _assert_matches_oracle(lambda s: 40.0 * s * (s - 0.5) * (s - 1.0) * (s - 1.5) * (s - 2.0),
                               Interval(0.0, 2.0))


class TestAreaFunction:
    def test_parabola_closed_form(self):
        c = parabola_curve(Interval(0.0, 3.0))
        area = area_function(c, 0.0)
        for s in (0.5, 1.0, 2.5):
            assert area(s) == pytest.approx(s ** 3 / 12, abs=1e-10)
        assert area(0.0) == 0.0

    def test_constant_curvature_matches_abar(self):
        for k in (-1.0, 1.0):
            c = constant_curvature_curve(k, Interval(0.0, 2.0))
            area = area_function(c, 0.0)
            for s in (0.5, 1.5, 2.0):
                assert area(s) == pytest.approx(abar(k, s), abs=1e-10)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        c = constant_curvature_curve(-0.5, Interval(0.0, 2.0))
        base = area_function(c, 0.0)(2.0)
        for _ in range(20):
            m, b = random_special_affine(rng)
            # row-vector form, so the closures take a float or a 1-D array
            moved_pos = lambda s: c.point(s) @ m.T + b
            moved = type(c)(
                c.domain,
                moved_pos,
                lambda s: tuple(np.asarray(d) @ m.T for d in c.derivatives(s)),
                c.curvature,
            )
            assert area_function(moved, 0.0)(2.0) == pytest.approx(base, rel=1e-9)

    def test_derivative_ladder(self):
        c = constant_curvature_curve(-1.0, Interval(0.0, 2.0))
        area = area_function(c, 0.0)
        h = 1e-5
        for s in (0.5, 1.2):
            fd1 = (area(s + h) - area(s - h)) / (2 * h)
            fd2 = (area.prime(s + h) - area.prime(s - h)) / (2 * h)
            assert fd1 == pytest.approx(area.prime(s), abs=1e-6)
            assert fd2 == pytest.approx(area.second(s), abs=1e-6)

    def test_prime_nonnegative_from_curve_point_apex(self):
        # sweeping from the base point of a convex arc never loses area
        conic = Conic.make(1, -1, -1, 0, 0, -1)
        for c in (parabola_curve(Interval(0.0, 3.0)),
                  conic.branch_curve((1.0, 0.0), Interval(0.0, 2.0))):
            area = area_function(c, 0.0)
            for s in np.linspace(0.0, c.domain.hi, 50):
                assert area.prime(s) >= -1e-12

    def test_ode_residual(self):
        parab = parabola_curve(Interval(0.0, 3.0))
        assert area_ode_residual(parab, area_function(parab, 0.0)) <= 1e-6

        conic = Conic.make(1, -1, -1, 0, 0, -1)
        hyp = conic.branch_curve((1.0, 0.0), Interval(0.0, 2.0))
        assert area_ode_residual(hyp, area_function(hyp, 0.0)) <= 1e-6

        kap = lambda s: -0.8 + 0.3 * s
        rec = reconstruct_from_curvature(kap, Interval(0.0, 2.0))
        assert area_ode_residual(rec, area_function(rec, 0.0)) <= 1e-5


class TestAdaptedFrame:
    def test_parabola_identity(self):
        c = parabola_curve(Interval(-1.0, 1.0))
        fr = adapted_frame(c, 0.0)
        assert fr.origin == pytest.approx((0.0, 0.0))
        assert fr.tangent == pytest.approx((1.0, 0.0))
        assert fr.normal == pytest.approx((0.0, 1.0))

    def test_circle_frame(self):
        c = reparam_unit_speed(circle_raw(1.0), -2.0, 2.0)
        s0 = 2.0  # raw t = 0 -> plane point (1, 0)
        fr = adapted_frame(c, s0)
        assert fr.origin == pytest.approx((1.0, 0.0), abs=1e-9)
        assert fr.tangent == pytest.approx((0.0, 1.0), abs=1e-9)
        assert fr.normal == pytest.approx((-1.0, 0.0), abs=1e-9)

    def test_determinant_one(self):
        kap = lambda s: 0.4 * math.sin(s) - 0.2
        c = reconstruct_from_curvature(kap, Interval(0.0, 2.0))
        for s0 in (0.1, 1.0, 1.9):
            fr = adapted_frame(c, s0)
            assert fr.det == pytest.approx(1.0, abs=1e-9)

    def test_round_trip(self):
        fr = AdaptedFrame(np.array((1.0, 2.0)), np.array((2.0, 1.0)),
                          np.array((1.0, 1.0)))
        p = np.array((0.3, -0.8))
        assert fr.to_adapted(fr.from_adapted(p)) == pytest.approx(p, abs=1e-12)

    def test_nan_determinant_is_refused(self):
        # 1e308 * 1e308 - 1e308 * 1e308 is inf - inf
        big = np.array((1e308, 1e308))
        with pytest.raises(ValueError, match="determinant nan"):
            AdaptedFrame(np.zeros(2), big, big)

    @pytest.mark.parametrize("point", [(1e200, 0.0), (0.0, -1e200)])
    def test_overflowing_conic_frame_is_domain_error(self, point):
        # the gradient's square overflows: a zero tangent, or a NaN frame
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
            Conic.make(1, 0, 1, 0, 0, -1).frame_at(*point)

    def test_subnormal_tangent_curvature_is_domain_error(self):
        # y = 1e-300 x^2 / 1e-10 at the origin: t0 H t0 = 2e-320, whose
        # reciprocal overflows
        with pytest.raises(DomainError, match="asymptotic"):
            Conic.make("1e-300", 0, 0, 0, "-1e-10", 0).frame_at(0.0, 0.0)


class TestGraphingSet:
    def test_parabola_entire_domain(self):
        c = parabola_curve(Interval(-2.0, 4.0))
        got = graphing_parameter_set(c, 0.5)
        assert got.lo == -2.0 and got.hi == 4.0

    def test_circle_half_turn(self):
        c = constant_curvature_curve(1.0, Interval(-3.0, 3.0))
        got = graphing_parameter_set(c, 0.0)
        assert got.lo == pytest.approx(-math.pi / 2, abs=1e-9)
        assert got.hi == pytest.approx(math.pi / 2, abs=1e-9)
        # the adapted x-coordinate increases strictly inside the set
        fr = adapted_frame(c, 0.0)
        for s in np.linspace(got.lo + 1e-6, got.hi - 1e-6, 50):
            assert fr.to_adapted_vector(c.derivatives(s)[0])[0] > 0.0

    def test_nonpositive_curvature_global_graph(self):
        c = reconstruct_from_curvature(lambda s: -1.0 - 0.1 * s * s,
                                       Interval(-3.0, 3.0))
        got = graphing_parameter_set(c, 0.0)
        assert got.lo == -3.0 and got.hi == 3.0


def _graphing_set_by_steps(curve, s0):
    """`graphing_parameter_set` by one scalar x' read per step: the loop
    the array reads replaced, kept as their oracle."""
    fr = adapted_frame(curve, s0)

    def xprime(s):
        return float(fr.to_adapted_vector(curve.derivatives(s)[0])[0])

    lo, hi = curve.domain.lo, curve.domain.hi
    step = max(1e-3 * curve.domain.length, 1e-12)

    def hunt(direction):
        end = hi if direction > 0 else lo
        prev = s0
        while True:
            nxt = prev + direction * step
            if (direction > 0 and nxt >= end) or (direction < 0 and nxt <= end):
                if xprime(end) > 0.0:
                    return end
                nxt = end
            if xprime(nxt) <= 0.0:
                a, b = (prev, nxt) if direction > 0 else (nxt, prev)
                return brentq(xprime, a, b, xtol=1e-10)
            if nxt == end:
                return end
            prev = nxt

    return Interval(hunt(-1), hunt(+1))


class TestGraphingSetOracle:
    @pytest.mark.parametrize("make, s0s", [
        (lambda: constant_curvature_curve(1.0, Interval(-3.0, 3.0)), (0.0, 0.3, -2.9, 3.0)),
        (lambda: constant_curvature_curve(9.0, Interval(-1.7, 2.3)), (0.0, 0.77, -1.7)),
        (lambda: constant_curvature_curve(-4.0, Interval(-2.0, 2.0)), (0.0, 1.1)),
        (lambda: parabola_curve(Interval(-2.0, 4.0)), (0.5, 4.0)),
        (lambda: reconstruct_from_curvature(lambda s: 2.0 + 1.5 * math.sin(3.0 * s),
                                            Interval(-2.5, 2.5)), (0.0, -1.3, 2.0)),
        (lambda: reconstruct_from_curvature(lambda s: -1.0 - 0.1 * s * s,
                                            Interval(-3.0, 3.0)), (0.0,)),
        (lambda: parse_curve_spec(ARRAY_SPECS[0]).curve, (0.0, 0.9)),
        (lambda: parse_curve_spec(ARRAY_SPECS[2]).curve, (0.0, 1.0)),
    ])
    def test_array_steps_equal_scalar_steps(self, make, s0s):
        curve = make()
        for s0 in s0s:
            got, want = graphing_parameter_set(curve, s0), _graphing_set_by_steps(curve, s0)
            assert (got.lo, got.hi) == (want.lo, want.hi)


class TestGraphingSetRoots:
    def test_each_root_equals_scipy_brentq(self, monkeypatch):
        """Every x' zero that `graphing_parameter_set` brackets is the bits
        SciPy's brentq gives on the same bracket and tolerances."""
        calls = []

        def spy(f, a, b, xtol, rtol, maxiter):
            got = brent_root(f, a, b, xtol, rtol, maxiter)
            assert got.hex() == brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter).hex()
            calls.append((a, b))
            return got

        monkeypatch.setattr(curve_mod, "brent_root", spy)
        rng = np.random.default_rng(22)
        curves = [constant_curvature_curve(9.0, Interval(-1.7, 2.3)),
                  reconstruct_from_curvature(lambda s: 2.0 + 1.5 * math.sin(3.0 * s),
                                             Interval(-2.5, 2.5))]
        for curve in curves:
            for s0 in rng.uniform(curve.domain.lo, curve.domain.hi, 12):
                graphing_parameter_set(curve, float(s0))
        assert len(calls) >= 24


class TestArrayPosition:
    """One array read of `position` equals the stacked scalar reads, bit
    for bit, also past the domain ends."""

    @pytest.mark.parametrize("spec", [
        {"type": "graph", "coeffs": ["0", "0", "1", "0.05"], "domain": ["-1", "1"]},
        {"type": "parabola", "coeffs": ["0", "-0.5", "0.5"], "domain": ["0", "3"]},
        {"type": "conic", "coeffs": ["1", "-1", "-1", "0", "0", "-1"],
         "seed": ["1", "0"], "domain": ["0", "2"]},
        {"type": "constant-curvature", "k": "2", "domain": ["-1", "1"],
         "origin": ["1", "2"], "tangent": ["1", "0.5"], "normal": ["0", "1"]},
        {"type": "curvature-ivp", "kappa_coeffs": ["-1", "0.5", "0.2"],
         "domain": ["-1", "1.5"]},
    ])
    def test_array_equals_stacked_scalars(self, spec):
        curve = parse_curve_spec(spec).curve
        lo, hi = curve.domain.lo, curve.domain.hi
        ss = np.concatenate([[lo - 0.25, lo, hi, hi + 0.25], np.linspace(lo, hi, 257),
                             np.random.default_rng(3).uniform(lo, hi, 40)])
        got = curve.point(ss)
        assert got.shape == (len(ss), 2)
        stacked = np.array([curve.point(float(s)) for s in ss])
        assert got.tobytes() == stacked.tobytes()


ARRAY_SPECS = [
    {"type": "graph", "coeffs": ["0", "0", "1", "0.05"], "domain": ["-1", "1"]},
    {"type": "parabola", "coeffs": ["0", "-0.5", "0.5"], "domain": ["0", "3"]},
    {"type": "conic", "coeffs": ["1", "-1", "-1", "0", "0", "-1"],
     "seed": ["1", "0"], "domain": ["0", "2"]},
    {"type": "constant-curvature", "k": "2", "domain": ["-1", "1"],
     "origin": ["1", "2"], "tangent": ["1", "0.5"], "normal": ["0", "1"]},
    {"type": "curvature-ivp", "kappa_coeffs": ["-1", "0.5", "0.2"],
     "domain": ["-1", "1.5"]},
]


def _sample_params(curve):
    lo, hi = curve.domain.lo, curve.domain.hi
    return np.concatenate([[lo - 0.25, lo, hi, hi + 0.25], np.linspace(lo, hi, 129),
                           np.random.default_rng(5).uniform(lo, hi, 40)])


class TestArrayDerivatives:
    """One array read of `derivatives` or `curvature` equals the stacked
    scalar reads, bit for bit, also past the domain ends."""

    @pytest.mark.parametrize("spec", ARRAY_SPECS)
    def test_derivatives_equal_stacked_scalars(self, spec):
        curve = parse_curve_spec(spec).curve
        ss = _sample_params(curve)
        got = curve.derivatives(ss)
        scalar = [curve.derivatives(float(s)) for s in ss]
        for order, rows in enumerate(got):
            assert rows.shape == (len(ss), 2)
            stacked = np.array([d[order] for d in scalar])
            assert rows.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("spec", ARRAY_SPECS)
    def test_curvature_equals_stacked_scalars(self, spec):
        curve = parse_curve_spec(spec).curve
        ss = _sample_params(curve)
        got = curve.curvature(ss)
        assert got.shape == (len(ss),)
        stacked = np.array([curve.curvature(float(s)) for s in ss])
        assert got.tobytes() == stacked.tobytes()

    def test_fd_fallback_equals_stacked_scalars(self):
        raw = circle_raw(1.0)
        c = reparam_unit_speed(ParametricCurve(raw.position, raw.d1, raw.d2, raw.d3),
                               0.0, 3.0)
        ss = np.array([0.0, 1e-7, 1.5, c.domain.hi - 1e-7, c.domain.hi])
        stacked = np.array([c.derivatives(float(s))[2] for s in ss])
        assert c.derivatives(ss)[2].tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("spec", ARRAY_SPECS)
    def test_empty_array(self, spec):
        curve = parse_curve_spec(spec).curve
        none = np.empty(0)
        assert curve.point(none).shape == (0, 2)
        assert [d.shape for d in curve.derivatives(none)] == [(0, 2)] * 3
        assert curve.curvature(none).shape == (0,)


def _quad_area(area, s):
    """The swept area by one scalar `quad` from the base: the route the
    one-pass table replaced, kept as its oracle."""
    if s == area.a:
        return 0.0
    return quad(area.prime, area.a, s, epsabs=1e-11, epsrel=1e-11, limit=200)[0]


class TestAreaPass:
    """Every sample of one pass against a separate `quad` per sample."""

    @pytest.mark.parametrize("spec", [s for s in ARRAY_SPECS if s["type"] != "parabola"])
    @pytest.mark.parametrize("where", ["lo", "interior", "hi", "apex"])
    def test_matches_per_sample_quad(self, spec, where):
        curve = parse_curve_spec(spec).curve
        ss = np.linspace(curve.domain.lo, curve.domain.hi, 37)
        base = {"lo": ss[0], "interior": ss[13], "hi": ss[-1], "apex": ss[5]}[where]
        apex = (0.3, -1.2) if where == "apex" else None
        area = area_function(curve, base, apex)
        got = area(ss)
        assert got.shape == ss.shape
        assert got[ss == base].tolist() == [0.0]
        for s, a in zip(ss, got):
            want = _quad_area(area, s)
            assert abs(a - want) <= 1e-10 * max(1.0, abs(want))

    def test_rule_tables_are_exact_to_their_degrees(self):
        from affinecurves.curve import _G_WEIGHTS, _GK_NODES, _GK_WEIGHTS
        for d in range(32):
            exact = (1 - (-1) ** (d + 1)) / (d + 1)
            assert (_GK_WEIGHTS * _GK_NODES ** d).sum() == pytest.approx(exact, abs=1e-14)
            if d < 20:
                assert (_G_WEIGHTS * _GK_NODES ** d).sum() == pytest.approx(exact, abs=1e-14)
        assert (_G_WEIGHTS * _GK_NODES ** 20).sum() != pytest.approx(1 / 21, abs=1e-8)

    def test_scalar_call_is_the_one_point_pass(self):
        curve = parse_curve_spec(ARRAY_SPECS[0]).curve
        area = area_function(curve, 0.0)
        value, err = area.with_error(0.75)
        assert (value, err) == tuple(float(v[0]) for v in area.with_error(np.array([0.75])))
        assert 0.0 <= err <= 1e-11
        assert area(0.0) == 0.0 and area.with_error(0.0) == (0.0, 0.0)

    def test_samples_in_any_order_and_repeated(self):
        curve = parse_curve_spec(ARRAY_SPECS[2]).curve
        area = area_function(curve, 1.0)
        ss = np.array([2.0, 0.0, 1.0, 0.5, 2.0, 1.0])
        got = area(ss)
        assert got[2] == got[5] == 0.0 and got[0] == got[4]
        assert np.all(got[[1, 3]] < 0.0) and got[0] > 0.0
        for s, a in zip(ss, got):
            assert a == pytest.approx(_quad_area(area, s), abs=1e-10)
