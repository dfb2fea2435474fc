import math

import numpy as np
import pytest

from affinecurves.kfuncs import Interval, abar, ck, sk
from affinecurves.odekernel import (
    LagrangeKernel,
    check_forward_positive,
    compare_solutions,
    lagrange_kernel,
    make_operator,
    oscillator_op,
    solve_ivp,
    solve_via_kernel,
    third_order_op,
)

UNIT = Interval(0.0, 1.0)


def poly_fn(coeffs):
    """Polynomial in s with the given coefficients, constant first."""
    return lambda s, c=tuple(coeffs): sum(ci * s ** i for i, ci in enumerate(c))


class TestSolveIVP:
    def test_triple_integral_of_half(self):
        op = make_operator((0.0, 0.0, 0.0), Interval(0.0, 3.0))
        sol = solve_ivp(op, 0.5, 0.0, (0.0, 0.0, 0.0))
        for s in (0.5, 1.0, 2.0, 3.0):
            assert sol(s) == pytest.approx(s ** 3 / 12, abs=1e-10)

    def test_harmonic(self):
        op = oscillator_op(1.0, Interval(0.0, 6.0))
        sol = solve_ivp(op, 0.0, 0.0, (0.0, 1.0))
        for s in (0.3, 1.5, math.pi, 5.0):
            assert sol(s) == pytest.approx(math.sin(s), abs=1e-9)
            assert sol(s, 1) == pytest.approx(math.cos(s), abs=1e-9)

    def test_constant_curvature_profile(self):
        op = third_order_op(-1.0, Interval(0.0, 2.0))
        sol = solve_ivp(op, 0.0, 0.0, (0.0, 1.0, 0.0))
        assert sol(1.0) == pytest.approx(math.sinh(1.0), abs=1e-9)

    def test_two_sided_domain(self):
        op = oscillator_op(1.0, Interval(-2.0, 2.0))
        sol = solve_ivp(op, 0.0, 0.0, (0.0, 1.0))
        assert sol(-1.5) == pytest.approx(math.sin(-1.5), abs=1e-9)

    def test_initial_conditions_reproduced(self):
        op = make_operator((poly_fn([0.3, -1.0]), 2.0), Interval(0.0, 1.0))
        sol = solve_ivp(op, 1.0, 0.5, (0.7, -0.2))
        assert sol(0.5) == pytest.approx(0.7, abs=1e-12)
        assert sol(0.5, 1) == pytest.approx(-0.2, abs=1e-12)

    def test_residual_is_small(self):
        op = make_operator((poly_fn([1.0, 0.5]), poly_fn([0.0, -0.25]), 0.0),
                           Interval(0.0, 1.0))
        sol = solve_ivp(op, lambda s: math.cos(s), 0.0, (0.1, 0.0, -0.3))
        assert sol.residual() <= 1e-5

    def test_matrix_jet_matches_column_solves(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            coeffs = [poly_fn(rng.uniform(-5, 5, size=3)) for _ in range(n)]
            op = make_operator(coeffs, Interval(-1.0, 1.0))
            forcing = poly_fn(rng.uniform(-1, 1, size=2))
            r = float(rng.uniform(-1.0, 1.0))
            jets = rng.uniform(-1.0, 1.0, size=(n, m))
            sol = solve_ivp(op, forcing, r, jets)
            cols = [solve_ivp(op, forcing, r, jets[:, j]) for j in range(m)]
            assert np.array_equal(sol.eval(r), jets)
            for s in np.linspace(-1.0, 1.0, 9):
                u = sol.eval(float(s))
                assert u.shape == (n, m)
                expected = np.column_stack([c.eval(float(s)) for c in cols])
                assert np.allclose(u, expected, rtol=1e-8, atol=1e-9)
            assert sol.residual() <= 1e-4

    @pytest.mark.parametrize("m", [None, 2])
    def test_array_eval_equals_scalar_eval(self, m):
        op = third_order_op(lambda s: -1.0 + math.sin(s), Interval(-1.0, 2.0))
        init = np.arange(3.0) if m is None else np.arange(6.0).reshape(3, m)
        sol = solve_ivp(op, 0.5, 0.25, init)
        pts = np.array([2.0, -1.0, 0.25, -0.3, 1.1, 0.25 - 1e-12])
        got = sol.eval(pts)
        assert got.shape == (len(pts),) + init.shape
        assert np.array_equal(got, np.stack([sol.eval(float(s)) for s in pts]))
        for bad in ([0.0, 2.5], [-1.5]):
            with pytest.raises(ValueError):
                sol.eval(np.array(bad))

    def test_jet_shape_checked(self):
        op = third_order_op(1.0, UNIT)
        for bad in (np.zeros(2), np.zeros((2, 2)), np.zeros((3, 2, 1))):
            with pytest.raises(ValueError):
                solve_ivp(op, 0.0, 0.0, bad)


class TestLagrangeKernel:
    @pytest.mark.parametrize("k", [-4.0, -1.0, 0.0, 1.0, 4.0])
    def test_second_order_closed_form(self, k):
        op = oscillator_op(k, UNIT)
        ker = lagrange_kernel(op)
        for r in (0.0, 0.3, 0.7):
            for s in (r, r + 0.1, 0.95):
                assert ker(s, r) == pytest.approx(sk(k, s - r), abs=1e-8)

    @pytest.mark.parametrize("k", [-4.0, -1.0, 0.0, 1.0, 4.0])
    def test_third_order_closed_form(self, k):
        op = third_order_op(k, UNIT)
        ker = lagrange_kernel(op)
        for r in (0.0, 0.4):
            for s in (r + 0.05, r + 0.5):
                if k != 0.0:
                    expect = (1.0 - ck(k, s - r)) / k
                else:
                    expect = (s - r) ** 2 / 2
                assert ker(s, r) == pytest.approx(expect, abs=1e-8)

    def test_kernel_jet_random_operators(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            coeffs = [poly_fn(rng.uniform(-5, 5, size=3)) for _ in range(n)]
            op = make_operator(coeffs, UNIT)
            ker = lagrange_kernel(op)
            r = float(rng.uniform(0.0, 1.0))
            jet = ker.column(r).eval(r)
            assert np.allclose(jet[:-1], 0.0, atol=1e-8)
            assert jet[-1] == pytest.approx(1.0, abs=1e-8)


class TestForwardColumns:
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.75])
    def test_column_is_right_half_of_two_sided_solve(self, r):
        rng = np.random.default_rng(5)
        for _ in range(4):
            n = int(rng.integers(2, 5))
            op = make_operator([poly_fn(rng.uniform(-5, 5, size=3)) for _ in range(n)], UNIT)
            two_sided = solve_ivp(op, 0.0, r, np.eye(n)[-1])
            col = LagrangeKernel(op).column(r)
            for s in np.linspace(r, 1.0, 7):
                assert col.eval(float(s)).tobytes() == two_sided.eval(float(s)).tobytes()

    def test_reading_left_of_r_raises(self):
        ker = LagrangeKernel(third_order_op(-1.0, UNIT))
        assert ker(0.6, 0.5) > 0.0
        with pytest.raises(ValueError):
            ker(0.4, 0.5)
        with pytest.raises(ValueError):
            ker.column(0.5).eval(np.array([0.5, 0.4]))


class TestKernelSolution:
    def test_matches_closed_form_flat(self):
        op = third_order_op(0.0, Interval(0.0, 2.0))
        y = solve_via_kernel(op, 0.5)
        for s in (0.5, 1.0, 2.0):
            assert y(s) == pytest.approx(s ** 3 / 12, abs=1e-9)

    def test_zero_forcing(self):
        op = oscillator_op(-2.0, UNIT)
        y = solve_via_kernel(op, 0.0)
        assert y(0.8) == 0.0

    def test_matches_area_profile(self):
        op = third_order_op(1.0, Interval(0.0, 2.0))
        y = solve_via_kernel(op, 0.5)
        for s in (0.7, 1.4, 2.0):
            assert y(s) == pytest.approx(abar(1.0, s), abs=1e-9)

    def test_oracle_equivalence_random(self):
        # kernel-integral route vs direct integration with zero initial data
        rng = np.random.default_rng(1)
        for _ in range(12):
            n = int(rng.integers(2, 4))
            coeffs = [poly_fn(rng.uniform(-5, 5, size=3)) for _ in range(n)]
            op = make_operator(coeffs, UNIT)
            forcing = poly_fn(rng.uniform(-2, 2, size=3))
            direct = solve_ivp(op, forcing, 0.0)
            viakernel = solve_via_kernel(op, forcing, 0.0)
            for s in (0.25, 0.6, 1.0):
                assert viakernel(s) == pytest.approx(direct(s), abs=1e-6)


class TestForwardPositivity:
    def test_third_order_always_positive(self):
        for k in (-3.0, 0.0, 2.0):
            op = third_order_op(k, Interval(0.0, 1.5))
            rep = check_forward_positive(op, grid_n=41)
            assert rep.certified, rep.verdict

    def test_oscillator_violation_past_pi(self):
        # kernel sin(sqrt k (s-r))/sqrt k changes sign once sqrt(k) L > pi
        L = 2.0
        k = (math.pi / L) ** 2 * 1.3
        op = oscillator_op(k, Interval(0.0, L))
        rep = check_forward_positive(op, grid_n=81)
        assert not rep.certified
        assert rep.min_value < -1e-4
        s, r = rep.witness
        assert s > r

    def test_oscillator_positive_at_threshold(self):
        L = 2.0
        k = (math.pi / L) ** 2
        op = oscillator_op(k, Interval(0.0, L))
        rep = check_forward_positive(op, grid_n=81, tol=1e-9)
        assert rep.certified

    def test_nonpositive_variable_coefficient(self):
        op = third_order_op(lambda s: -1.0 + math.sin(s) / 2.0, Interval(0.0, 4.0))
        rep = check_forward_positive(op, grid_n=41)
        assert rep.certified

    def test_sturm_no_zero_sweep(self):
        # u'' + kappa u = 0, u(a)=0, u'(a)=1 and kappa <= k0 <= (pi/(b-a))^2:
        # u keeps its sign on (a, b)
        rng = np.random.default_rng(2)
        a, b = 0.0, 1.25
        k0 = (math.pi / (b - a)) ** 2
        for _ in range(50):
            c = rng.uniform(-4, 4, size=3)
            shift = float(rng.uniform(0, 6))
            kappa = lambda s, c=c, shift=shift: min(
                k0, c[0] + c[1] * s + c[2] * s * s - shift)
            op = oscillator_op(kappa, Interval(a, b))
            u = solve_ivp(op, 0.0, a, (0.0, 1.0))
            vals = [u(s) for s in np.linspace(a + 1e-4, b - 1e-6, 200)]
            assert min(vals) > 0.0


def column_scan(op, grid_n):
    """check_forward_positive's scan, one Lagrange-kernel column per r."""
    ker = lagrange_kernel(op)
    grid = np.linspace(op.interval.lo, op.interval.hi, grid_n)
    min_val = math.inf
    for i, r in enumerate(grid[:-1]):
        col = ker.column(float(r))
        min_val = min([min_val] + [col(float(s)) for s in grid[i + 1:]])
    return min_val


class TestAnchoredPositivity:
    def test_matches_column_scan_on_random_operators(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            if trial % 4 == 0:  # oscillators past pi violate positivity
                k = (math.pi / 2.0) ** 2 * float(rng.uniform(0.5, 2.0))
                op = oscillator_op(k, Interval(0.0, 2.0))
            else:
                n = int(rng.integers(2, 5))
                coeffs = [poly_fn(rng.uniform(-6, 6, size=2)) for _ in range(n)]
                op = make_operator(coeffs, Interval(0.0, float(rng.uniform(0.5, 2.0))))
            rep = check_forward_positive(op, grid_n=13)
            want = column_scan(op, 13)
            # both routes hold rtol 1e-10: agreement to the certificate's own tol
            assert rep.min_value == pytest.approx(want, abs=rep.tol)
            assert rep.certified == (want >= -rep.tol)
            s, r = rep.witness
            assert s > r

    def test_stiff_constant_curvature(self):
        # K(s; r) = (cosh(5 (s - r)) - 1)/25, least at the grid step h = 0.02;
        # one anchor at 0 reads a false violation here
        rep = check_forward_positive(third_order_op(-25.0, Interval(0.0, 4.0)), grid_n=201)
        assert rep.certified, rep.verdict
        assert rep.min_value == pytest.approx((math.cosh(0.1) - 1.0) / 25.0, abs=1e-9)

    def test_stiff_sinusoidal_band(self):
        op = third_order_op(lambda s: -24.0 + math.sin(1.3 * s), Interval(0.0, 4.0))
        rep = check_forward_positive(op, grid_n=41)
        assert rep.certified, rep.verdict
        assert rep.min_value == pytest.approx(column_scan(op, 41), abs=rep.tol)


class TestConcurrency:
    def test_kernel_columns_thread_safe(self):
        # memoized columns (dict.setdefault, no lock); concurrent readers must agree
        import threading

        op = third_order_op(lambda s: -1.0 + math.sin(s) / 2.0,
                            Interval(0.0, 2.0))
        ker = lagrange_kernel(op)
        queries = [(s, r) for r in (0.0, 0.5, 1.0) for s in (1.2, 1.7, 2.0)]
        results = [None] * 8

        def worker(idx):
            results[idx] = [ker(s, r) for s, r in queries]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got in results[1:]:
            assert got == results[0]


class TestComparison:
    def test_area_profile_comparison(self):
        rep = compare_solutions(-1.0, 0.0, 3, 1, 0.5, (0.0, 0.0, 0.0),
                                Interval(0.0, 2.0))
        assert rep.holds
        # direction kappa <= kappa_bar means y >= y_bar pointwise
        assert rep.lhs <= rep.slack
        assert abar(-1.0, 2.0) >= abar(0.0, 2.0)

    def test_equal_coefficients_equality_flag(self):
        rep = compare_solutions(0.5, 0.5, 3, 1, 0.5, (0.0, 0.0, 0.0), UNIT)
        assert rep.holds
        assert rep.equality
        assert "kappa == kappa_bar" in rep.notes

    def test_second_order_line_vs_sine(self):
        rep = compare_solutions(0.0, 1.0, 2, 0, 0.0, (0.0, 1.0),
                                Interval(0.0, math.pi))
        assert rep.holds

    def test_unordered_coefficients_fail_hypotheses(self):
        rep = compare_solutions(lambda s: s - 0.5, 0.0, 3, 1, 0.5,
                                (0.0, 0.0, 0.0), UNIT)
        assert rep.verdict == "hypotheses-failed"

    def test_random_nonpositive_sweep(self):
        rng = np.random.default_rng(3)
        interval = Interval(0.0, 2.0)
        for _ in range(100):
            base = rng.uniform(-3, 0, size=2)
            gap = float(rng.uniform(0.0, 2.0))
            kbar = lambda s, b=base: min(0.0, b[0] + b[1] * math.sin(s))
            kap = lambda s, kb=kbar, g=gap: kb(s) - g
            rep = compare_solutions(kap, kbar, 3, 1, 0.5, (0.0, 0.0, 0.0),
                                    interval, positivity_grid_n=21, grid_n=101)
            assert rep.holds, rep.to_dict()
