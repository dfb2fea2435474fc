import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import OdeSolution
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.linalg import expm

import affinecurves
from affinecurves import odekernel
from affinecurves.kfuncs import Interval, abar, ck, sk
from affinecurves.odekernel import (
    DenseReader,
    LagrangeKernel,
    SolverError,
    check_forward_positive,
    compare_solutions,
    dop853,
    grid_jets,
    make_operator,
    solve_ivp,
    step_propagators,
)

from reference import lagrange_kernel, oscillator_op, residual, solve_via_kernel, third_order_op

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
        assert residual(sol) <= 1e-5

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
            assert residual(sol) <= 1e-4

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

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_entry_read_of_a_matrix_solve_names_eval(self, m):
        sol = solve_ivp(odekernel.power_op(3, 1, -1.0, Interval(0, 1)), 0.0, 0.0, np.eye(3)[:, :m])
        with pytest.raises(ValueError, match="read its jets with eval"):
            sol(0.5, 1)
        assert sol.eval(0.5).shape == (3, m)

    def test_jet_shape_checked(self):
        op = third_order_op(1.0, UNIT)
        for bad in (np.zeros(2), np.zeros((2, 2)), np.zeros((3, 2, 1))):
            with pytest.raises(ValueError):
                solve_ivp(op, 0.0, 0.0, bad)


@pytest.fixture
def scipy_solutions(monkeypatch):
    """Every scipy solve the package makes, recorded with its OdeSolution."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(scipy_solve_ivp(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(odekernel, "_sp_solve_ivp", recording)
    return seen


def _read_points(ode, rng):
    """Random points of a solve's span, every step time, and both ends."""
    lo, hi = sorted((float(ode.t[0]), float(ode.t[-1])))
    return np.concatenate([rng.uniform(lo, hi, 25), ode.t, [ode.t[0], ode.t[-1]]])


class TestDenseReader:
    """The reader gives scipy's OdeSolution reads bit for bit: OdeSolution
    of the same solve stays the reference route."""

    @pytest.mark.parametrize("m", [None, 1, 3])
    @pytest.mark.parametrize("two_sided", [False, True])
    def test_reads_equal_ode_solution(self, scipy_solutions, m, two_sided):
        rng = np.random.default_rng(17 + 2 * (m or 0) + two_sided)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            op = make_operator([poly_fn(rng.uniform(-5, 5, size=3)) for _ in range(n)],
                               Interval(-1.0, 1.0))
            forcing = poly_fn(rng.uniform(-1, 1, size=2))
            r = float(rng.uniform(-0.9, 0.9)) if two_sided else -1.0
            init = rng.uniform(-1, 1, size=n if m is None else (n, m))
            scipy_solutions.clear()
            sol = solve_ivp(op, forcing, r, init)
            assert len(scipy_solutions) == 1 + two_sided
            for ode in scipy_solutions:
                rightward = ode.t[-1] > ode.t[0]
                reader = sol._right if rightward else sol._left
                pts = _read_points(ode, rng)
                for t in pts.tolist():
                    want = ode.sol(t)
                    assert np.array(reader.state(t)).tobytes() == want.tobytes()
                    assert [reader.entry(t, k) for k in range(len(want))] == want.tolist()
                # through IVPSolution, on the side of r it reads from this solve
                side = pts[pts >= r] if rightward else pts[pts < r]
                want = ode.sol(side).reshape(init.T.shape + side.shape).T
                assert sol.eval(side).tobytes() == want.tobytes()
                for t, jet in zip(side.tolist(), want):
                    assert sol.eval(t).tobytes() == jet.tobytes()
                    if m is None:
                        assert [sol(t, k) for k in range(n)] == jet.tolist()

    def test_reads_in_any_order_and_empty(self, scipy_solutions):
        sol = solve_ivp(third_order_op(lambda s: -4.0 + s, UNIT), 0.5, 0.0, (0.0, 1.0, 0.0))
        ode, = scipy_solutions
        pts = np.random.default_rng(2).permutation(_read_points(ode, np.random.default_rng(1)))
        assert sol.eval(pts).tobytes() == ode.sol(pts).T.tobytes()
        assert sol.eval(np.array([])).shape == (0, 3)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_step_choice_where_steps_disagree(self, ascending):
        # a solve's adjacent steps agree at their shared time to the last
        # bit almost always; random steps do not, so they show which step
        # a read at a step time or outside the span takes
        rng = np.random.default_rng(4)
        ts = np.cumsum(rng.uniform(0.1, 1.0, 9)) * (1 if ascending else -1)
        steps = [Dop853DenseOutput(a, b, rng.normal(size=3), rng.normal(size=(7, 3)))
                 for a, b in zip(ts[:-1], ts[1:])]
        ode, reader = OdeSolution(ts, steps), DenseReader(ts, steps)
        lo, hi = ts.min(), ts.max()
        pts = np.concatenate([ts, [lo - 0.5, hi + 0.5], rng.uniform(lo, hi, 9)])
        for t in pts.tolist():
            assert np.array(reader.state(t)).tobytes() == ode(t).tobytes()

    def test_failed_step_is_solver_error(self):
        # y' = y^2, y(0) = 1 blows up at s = 1
        with pytest.raises(SolverError, match="integration failed near s = 1.0"):
            dop853(lambda s, y: y * y, 0.0, 2.0, [1.0], 1e-10, 1e-12)


def test_scipy_solve_ivp_is_called_from_odekernel_only():
    """One linear-ODE primitive: scipy's solve_ivp is imported by odekernel
    alone, and called there once, in `dop853`."""
    calls = []
    for path in sorted(Path(affinecurves.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        integrate = {"scipy.integrate"}  # names bound to scipy.integrate
        solvers = set()  # names bound to scipy's solve_ivp
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                integrate |= {a.asname for a in node.names
                              if a.name == "scipy.integrate" and a.asname}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                for a in node.names:
                    if node.module == "scipy" and a.name == "integrate":
                        integrate.add(a.asname or a.name)
                    elif node.module.startswith("scipy.integrate") and a.name == "solve_ivp":
                        solvers.add(a.asname or a.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "solve_ivp" \
                    and ast.unparse(node.value) in integrate:
                solvers.add(ast.unparse(node))
        if solvers:
            assert path.stem == "odekernel", f"{path.name} imports scipy's solve_ivp"
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and ast.unparse(node.func) in solvers]
    assert len(calls) == 1


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


def _kinked(c):
    """min(0, c0 + c1 sin(c2 s)): a coefficient with kinks, as thm4.1's
    nonpositive references have."""
    return lambda s, c=tuple(c): min(0.0, c[0] + c[1] * math.sin(c[2] * s))


def _random_operator(rng, kinked):
    n = int(rng.integers(2, 5))
    coeffs = [poly_fn(rng.uniform(-5, 5, size=3)) for _ in range(n)]
    if kinked:
        coeffs[int(rng.integers(0, n))] = _kinked((rng.uniform(-6, 1), 6.0, rng.uniform(1, 4)))
    return make_operator(coeffs, Interval(0.0, float(rng.uniform(0.5, 2.0))))


class TestStepPropagators:
    """The Magnus step propagators against their oracles: DOP853 solves at
    rtol 1e-12, closed forms at constant curvature, and the matrix
    exponentials of scipy and of mpmath at 40 digits."""

    @pytest.mark.parametrize("kinked", [False, True])
    def test_propagators_equal_dop853_matrix_solves(self, kinked):
        rng = np.random.default_rng(31 + kinked)
        for _ in range(8):
            op = _random_operator(rng, kinked)
            grid = np.linspace(op.interval.lo, op.interval.hi, int(rng.integers(2, 9)))
            steps = step_propagators(op, grid, None)
            assert steps.shape == (len(grid) - 1, op.order, op.order)
            for j, p in enumerate(steps):
                piece = make_operator(op.coeffs, Interval(grid[j], grid[j + 1]))
                want = solve_ivp(piece, 0.0, grid[j], np.eye(op.order),
                                 rtol=1e-12, atol=1e-14).eval(grid[j + 1])
                assert np.allclose(p, want, rtol=1e-8, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("kinked", [False, True])
    def test_forced_jets_equal_dop853(self, kinked):
        rng = np.random.default_rng(41 + kinked)
        for trial in range(8):
            op = _random_operator(rng, kinked)
            forcing = poly_fn(rng.uniform(-2, 2, size=3)) if trial % 2 else 0.75
            init = rng.uniform(-1, 1, size=op.order)
            grid = np.linspace(op.interval.lo, op.interval.hi, 21)
            got = grid_jets(op, forcing, init, grid)
            want = solve_ivp(op, forcing, op.interval.lo, init,
                             rtol=1e-12, atol=1e-14).eval(grid)
            assert got.shape == want.shape == (21, op.order)
            assert np.array_equal(got[0], init)
            assert np.allclose(got, want, rtol=1e-8, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("grid", [
        [0.0, 0.1, 1.0, 1.05, 2.0],  # pairs halved off their middle
        [0.0, 0.3, 0.6, 0.65, 1.3, 1.95, 2.0],
        [0.0, 0.5, 1.0, 1.5, 2.0],  # even: one Magnus half step per interval
    ])
    def test_uneven_grids_give_their_own_points(self, grid):
        # the propagators of a pair of unequal intervals carried its
        # midpoint's jet to its middle grid point
        op = third_order_op(lambda s: -2.0 + 1.5 * math.sin(3.0 * s), Interval(0.0, 2.0))
        grid = np.array(grid)
        got = grid_jets(op, 0.5, (0.0, 0.3, -0.2), grid)
        want = solve_ivp(op, 0.5, 0.0, (0.0, 0.3, -0.2), rtol=1e-13, atol=1e-15).eval(grid)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-10)

    def test_unforced_jets_are_the_propagator_products(self):
        op = third_order_op(lambda s: -3.0 + math.cos(2.0 * s), Interval(0.0, 1.5))
        grid = np.linspace(0.0, 1.5, 7)
        init = np.array([0.2, -1.0, 0.5])
        jets = grid_jets(op, 0.0, init, grid)
        u = init
        for j, p in enumerate(step_propagators(op, grid, None)):
            u = p @ u
            assert np.allclose(jets[j + 1], u, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("k", [-25.0, -4.0, 0.0, 1.0, 9.0])
    def test_constant_curvature_closed_forms(self, k):
        # the area ODE from a zero jet gives the profile abar(k, s), and
        # y'' + k y = 0 from (0, 1) gives sk(k, s)
        grid = np.linspace(0.0, 1.0, 11)
        area = grid_jets(third_order_op(k, UNIT), 0.5, (0.0, 0.0, 0.0), grid)[:, 0]
        want = np.array([abar(k, s) for s in grid])
        assert np.allclose(area, want, rtol=1e-13, atol=1e-16)
        sine = grid_jets(oscillator_op(k, UNIT), 0.0, (0.0, 1.0), grid)[:, 0]
        assert np.allclose(sine, sk(k, grid), rtol=1e-13, atol=1e-16)

    def test_constant_coefficients_pass_the_first_check(self):
        # Magnus is exact for constant coefficients, up to rounding: the
        # pairs of intervals pass at once, so the grid is read at its 41
        # points and the 40 midpoints of its intervals, in one array read
        reads = []

        def kappa(s):
            reads.append(np.size(s))
            return -25.0

        step_propagators(third_order_op(kappa, Interval(0.0, 4.0)),
                         np.linspace(0.0, 4.0, 41), None)
        assert reads == [41 + 40]

    @pytest.mark.parametrize("at", [0.02, 0.05, 0.5, 0.9, 0.95])
    def test_kink_anywhere_in_an_interval(self, at):
        # the coefficient is flat right of the kink; the steps read every
        # piece at its ends, so a kink near an end still refines it
        grid = np.linspace(0.0, 4.0, 161)
        kink = grid[60] + at * (grid[1] - grid[0])
        op = third_order_op(lambda s: min(0.0, -20.0 * (s - kink)), Interval(0.0, 4.0))
        piece = make_operator(op.coeffs, Interval(grid[60], grid[61]))
        want = solve_ivp(piece, 0.0, grid[60], np.eye(3), rtol=1e-13, atol=1e-15).eval(grid[61])
        assert np.allclose(step_propagators(op, grid, None)[60], want, rtol=1e-9, atol=1e-9)
        area = grid_jets(op, 0.5, (0.0, 0.0, 0.0), grid)[-1, 0]
        want = solve_ivp(op, 0.5, 0.0, (0.0, 0.0, 0.0), rtol=1e-13, atol=1e-15)(4.0)
        assert area == pytest.approx(want, rel=1e-8)

    def test_kinks_refine_only_their_intervals(self):
        reads = []
        kinked = _kinked((-10.0, 12.0, 1.3))

        def kappa(s):
            value = kinked(s)  # refuses an array, which is then read point by point
            reads.append(s)
            return value

        grid = np.linspace(0.0, 4.0, 161)
        step_propagators(third_order_op(kappa, Interval(0.0, 4.0)), grid, 0.5)
        # the kinks near s = 0.758 and s = 1.659 take the most reads
        per_interval = np.histogram(reads, grid)[0]
        assert per_interval.sum() < 2000
        assert set(np.argsort(per_interval)[-2:].tolist()) == {30, 66}

    def test_stacked_expm_equals_scipy_and_mpmath(self):
        rng = np.random.default_rng(3)
        for size in (2, 3, 4, 5):
            scales = np.concatenate(([0.0, 1e-300, 1e-8], rng.uniform(0.01, 8.0, 12)))
            omega = rng.normal(size=(len(scales), size, size)) * scales[:, None, None]
            for got, o in zip(odekernel._expm(omega), omega):
                with mpmath.workdps(40):
                    exact = np.array(mpmath.expm(mpmath.matrix(o.tolist())).tolist(), dtype=float)
                top = np.abs(exact).max()
                # scipy's Pade route loses more digits at large norms than the series
                assert np.abs(got - expm(o)).max() <= 1e-11 * top
                assert np.abs(got - exact).max() <= 1e-13 * top

    def test_budget_stops_the_refinement(self, monkeypatch):
        monkeypatch.setattr(odekernel, "MAX_RHS_EVALS", 500)
        op = third_order_op(_kinked((-10.0, 12.0, 1.3)), Interval(0.0, 4.0))
        with pytest.raises(SolverError, match="500 right-hand side evaluations"):
            grid_jets(op, 0.5, (0.0, 0.0, 0.0), np.linspace(0.0, 4.0, 5))

    def test_non_finite_coefficient_is_solver_error(self):
        op = third_order_op(lambda s: math.nan if s > 0.5 else -1.0, UNIT)
        with pytest.raises(SolverError, match="not finite"):
            step_propagators(op, np.linspace(0.0, 1.0, 5), None)

    def test_overflow_is_solver_error(self):
        op = third_order_op(-1e6, UNIT)
        with pytest.raises(SolverError, match="float range"):
            grid_jets(op, 0.5, (0.0, 0.0, 0.0), np.linspace(0.0, 1.0, 201))
        with pytest.raises(SolverError, match="float range"):
            check_forward_positive(op, 201)


def _horner_fn(c):
    """c0 + s (c1 + s c2): the same float at a float and at each entry of
    an array."""
    return lambda s, c=tuple(c.tolist()): c[0] + s * (c[1] + s * c[2])


class TestStepReader:
    """The dense reads of the Magnus step propagators against DOP853 at
    rtol 1e-13, and array reads against stacked scalar reads."""

    @pytest.mark.parametrize("kinked", [False, True])
    def test_jets_equal_dop853_on_both_sides(self, kinked):
        rng = np.random.default_rng(61 + kinked)
        for trial in range(6):
            op = _random_operator(rng, kinked)
            lo, hi = op.interval.lo, op.interval.hi
            r = [lo, hi, 0.5 * (lo + hi)][trial % 3]
            init = rng.uniform(-1, 1, size=(op.order, 1 + trial % 2))
            reader = odekernel.StepReader(op, r, init, 1e-11)
            ss = np.linspace(lo, hi, 97)
            got = reader.read(ss)
            want = solve_ivp(op, 0.0, r, init, rtol=1e-13, atol=1e-15).eval(ss)
            assert got.shape == (97, op.order + 1, init.shape[1])
            scale = np.maximum(1.0, np.abs(want).max(axis=(1, 2)))[:, None, None]
            assert (np.abs(got[:, :-1] - want) <= 1e-9 * scale).all()
            # the last row is y^(n) from the equation
            top = -sum(np.array([a(s) for s in ss.tolist()])[:, None] * got[:, j]
                       for j, a in enumerate(op.coeffs))
            assert np.allclose(got[:, -1], top, rtol=1e-12, atol=1e-12 * scale[:, 0])
            assert np.array_equal(reader.read(np.array([r]))[0, :-1], init)

    def test_array_reads_equal_stacked_scalar_reads(self):
        rng = np.random.default_rng(67)
        for n in (2, 3, 4):
            coeffs = [_horner_fn(rng.uniform(-4, 4, size=3)) for _ in range(n)]
            op = make_operator(coeffs, Interval(-1.0, 1.5))
            reader = odekernel.StepReader(op, 0.0, rng.uniform(-1, 1, size=(n, 2)), 1e-11)
            ss = np.concatenate([[-1.0, 0.0, 1.5], rng.uniform(-1.0, 1.5, 60)])
            stacked = np.array([reader.read(np.array([s]))[0] for s in ss.tolist()])
            assert reader.read(ss).tobytes() == stacked.tobytes()

    def test_scalar_only_coefficients_are_read_entry_by_entry(self):
        calls = []

        def kappa(s):
            calls.append(s)
            return -2.0 + math.sin(s)  # math.sin refuses arrays

        reader = odekernel.StepReader(third_order_op(kappa, Interval(0.0, 2.0)), 0.0,
                                      np.eye(3)[:, 1:], 1e-11)
        calls.clear()
        ss = np.linspace(0.1, 1.9, 5)
        got = reader.read(ss)
        # one refused array call, then one call per midpoint and per point
        assert [type(s) for s in calls] == [np.ndarray] + [float] * 10
        assert np.array_equal(got, np.array([reader.read(np.array([s]))[0] for s in ss.tolist()]))

    @pytest.mark.parametrize("kappa, hi", [(-400.0, 1.0), (9.0, 3.0),
                                           (lambda s: -24.0 + math.sin(1.3 * s), 4.0)],
                             ids=["k=-400", "k=9", "band"])
    def test_stiff_and_oscillating_reads_equal_dop853(self, kappa, hi):
        # constant k = -400: one Magnus step per interval is exact, and so
        # must be a read over a whole half step
        op = third_order_op(kappa, Interval(0.0, hi))
        init = np.eye(3)[:, 1:]
        ss = np.linspace(0.0, hi, 301)
        want = solve_ivp(op, 0.0, 0.0, init, rtol=1e-13, atol=1e-15).eval(ss)
        scale = np.abs(want).max(axis=(1, 2))[:, None, None]
        got = odekernel.StepReader(op, 0.0, init, 1e-11).read(ss)[:, :-1]
        assert (np.abs(got - want) <= 1e-9 * scale).all()

    def test_overflow_is_solver_error(self):
        with pytest.raises(SolverError, match="float range"):
            odekernel.StepReader(third_order_op(-1e6, UNIT), 0.0, np.eye(3)[:, 1:], 1e-11)

    @pytest.mark.parametrize("lo, hi", [(-1.0, 0.0), (-1.0, 1.0)])
    def test_overflow_is_found_before_the_read_refinement(self, lo, hi, monkeypatch):
        # the first level's running products overflow left of the anchor 0
        # (and right of it), so the reader stops before refining its reads
        levels = []
        refine = odekernel._refine

        def counted(*args):
            for level in refine(*args):
                levels.append(level)
                yield level

        monkeypatch.setattr(odekernel, "_refine", counted)
        with pytest.raises(SolverError, match="float range"):
            odekernel.StepReader(third_order_op(-1e6, Interval(lo, hi)), 0.0, np.eye(3)[:, 1:],
                                 1e-11)
        assert len(levels) == 1


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


def _dop853_propagators(op, grid, forcing):
    """The forced propagator of each grid interval by its own DOP853 solves
    at rtol 1e-13: the unforced block from the identity jets, the forcing
    column from a zero jet."""
    n = op.order
    out = np.zeros((len(grid) - 1, n + 1, n + 1))
    out[:, n, n] = 1.0
    for j in range(len(grid) - 1):
        piece = make_operator(op.coeffs, Interval(grid[j], grid[j + 1]))
        out[j, :n, :n] = solve_ivp(piece, 0.0, grid[j], np.eye(n),
                                   rtol=1e-13, atol=1e-15).eval(grid[j + 1])
        out[j, :n, n] = solve_ivp(piece, forcing, grid[j], np.zeros(n),
                                  rtol=1e-13, atol=1e-15).eval(grid[j + 1])
    return out


def _band_operator(rng):
    """y^(n) + kappa y^(ell), n in 2..4, with a sinusoidal band kappa, on
    an interval of length 0.5 to 2.5."""
    n = int(rng.integers(2, 5))
    mid, amp, w = rng.uniform(-6, 2), rng.uniform(0, 2), rng.uniform(0.5, 3)
    kappa = lambda s, c=(mid, amp, w): c[0] + c[1] * math.sin(c[2] * s)
    return odekernel.power_op(n, int(rng.integers(0, n)), kappa,
                              Interval(0.0, float(rng.uniform(0.5, 2.5))))


KINK = np.linspace(0.0, 4.0, 161)[60] + 0.5 * 0.025


class TestForcedTable:
    """One forced table of step propagators, with one Magnus step per grid
    interval where a pair of intervals passes, against DOP853 interval by
    interval, the unforced certificate and the closed forms."""

    @pytest.mark.parametrize("kappa, grid", [
        (lambda s: -24.0 + math.sin(1.3 * s), np.linspace(0.0, 4.0, 201)),
        (lambda s: -3.0 + math.cos(2.0 * s), np.linspace(0.0, 1.5, 12)),
        (lambda s: min(0.0, -20.0 * (s - KINK)), np.linspace(0.0, 4.0, 161)),
    ], ids=["stiff-band", "odd-intervals", "kink"])
    def test_propagators_equal_interval_dop853(self, kappa, grid):
        op = third_order_op(kappa, Interval(float(grid[0]), float(grid[-1])))
        want = _dop853_propagators(op, grid, 0.5)
        got = step_propagators(op, grid, 0.5)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
        # the forcing column keeps the table block triangular
        unforced = step_propagators(op, grid, None)
        assert np.abs(unforced - got[:, :3, :3]).max() <= 1e-12 * np.abs(unforced).max()

    def test_a_smooth_grid_takes_one_step_per_interval(self, monkeypatch):
        # 100 pairs: 101 ends and 100 midpoints, then the 200 interval
        # midpoints; 100 pair steps and 200 interval steps
        reads, exps = [], []
        expm = odekernel._expm
        monkeypatch.setattr(odekernel, "_expm", lambda o: exps.append(len(o)) or expm(o))

        def kappa(s):
            value = -1.0 + 0.5 * math.sin(1.3 * s)  # refuses an array: read point by point
            reads.append(s)
            return value

        step_propagators(third_order_op(kappa, Interval(0.0, 4.0)),
                         np.linspace(0.0, 4.0, 201), None)
        assert len(reads) == 401
        assert sum(exps) == 300

    def test_certificate_matches_check_forward_positive(self):
        rng = np.random.default_rng(27)
        violations = 0
        for trial in range(40):
            if trial % 5 == 0:  # y'' + k y past pi / sqrt(k): the kernel changes sign
                k = float(rng.uniform(1.0, 9.0))
                op = odekernel.power_op(2, 0, k, Interval(
                    0.0, math.pi / math.sqrt(k) * float(rng.uniform(1.1, 2.0))))
            else:
                op = _band_operator(rng)
            grid_n = int(rng.integers(5, 42))
            want = check_forward_positive(op, grid_n)
            grid = np.linspace(op.interval.lo, op.interval.hi, grid_n)
            got, jets = odekernel.forced_table(op, 0.5, np.zeros(op.order), grid, 1,
                                               want.tol)
            assert got.verdict == want.verdict
            assert got.witness == want.witness
            assert abs(got.min_value - want.min_value) <= 1e-12 * max(1.0, abs(want.min_value))
            assert np.allclose(jets, grid_jets(op, 0.5, np.zeros(op.order), grid),
                               rtol=1e-12, atol=1e-14)
            violations += not want.certified
        assert violations >= 8

    def test_nested_certificate_reads_every_kth_point(self):
        op = third_order_op(lambda s: -4.0 + math.sin(2.0 * s), Interval(0.0, 2.0))
        got, _ = odekernel.forced_table(op, 0.5, (0.0, 0.0, 0.0),
                                        np.linspace(0.0, 2.0, 201), 5, 1e-9)
        want = check_forward_positive(op, 41)
        assert got.grid_n == 41 and got.certified
        assert got.min_value == pytest.approx(want.min_value, rel=1e-8)
        assert got.witness == pytest.approx(want.witness, rel=1e-12)

    @pytest.mark.parametrize("grid_n, positivity_grid_n", [(201, 61), (201, 31), (101, 1)])
    def test_positivity_grid_must_nest(self, grid_n, positivity_grid_n):
        with pytest.raises(ValueError, match="does not nest"):
            compare_solutions(-1.0, 0.0, 3, 1, 0.5, (0.0, 0.0, 0.0), UNIT,
                              grid_n=grid_n, positivity_grid_n=positivity_grid_n)
