"""Tests of the benchmark's own oracles, checks and tracer.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

README_CUBIC = [Fraction(0), Fraction(0), Fraction(1), Fraction(1, 20)]


def test_parabola_points_m0_1():
    assert oracles.parabola_points(1, False) == {(0, 0), (1, 0), (2, 1), (3, 3)}
    assert oracles.parabola_points(1, True) == {(1, 0), (2, 1), (3, 3)}


def test_hyperbola_points_m0_1():
    assert oracles.hyperbola_points(1, False) == {(1, 0), (1, -1), (2, -3), (5, -8)}
    assert oracles.hyperbola_points(1, True) == {(1, -1), (2, -3), (5, -8)}
    for x, y in oracles.hyperbola_points(4, False):
        assert x * x - x * y - y * y == 1


def test_sharp_bound():
    assert oracles.sharp_bound(12, False) == 26
    assert oracles.sharp_bound(3, True) == 7


def test_readme_graph():
    assert oracles.graph_chord_area(README_CUBIC, Fraction(-1), Fraction(1)) == Fraction(4, 3)
    assert oracles.graph_lattice_points(README_CUBIC, -1, 1) == {(0, 0)}


def test_graph_arclength_and_curvature_of_parabola():
    square = [Fraction(0), Fraction(0), Fraction(1)]
    assert oracles.graph_arclength(square, -1, 1) == pytest.approx(2 * 2 ** (1 / 3), rel=1e-14)
    assert oracles.graph_curvature_at_mid_arclength(square, -1, 1) == pytest.approx(0, abs=1e-20)


def test_constant_area():
    assert oracles.constant_area(-1.0, 2.0) == pytest.approx((math.sinh(2) - 2) / 2, rel=1e-14)
    assert oracles.constant_area(1.0, 2.0) == pytest.approx((2 - math.sin(2)) / 2, rel=1e-14)
    assert oracles.constant_area(0.0, 2.0) == pytest.approx(8 / 12, rel=1e-14)
    assert oracles.constant_area(1e-12, 2.0) == pytest.approx(8 / 12, rel=1e-9)


def test_ivp_area():
    # constant kappa: the closed form; kappa = s on [0, 1]: the series by
    # hand, A = s^3/12 - s^6/480 + s^9/40320 - s^12/5913600 + O(s^15)
    assert oracles.ivp_area([-1.0, 0.0, 0.0], 0.0, 2.0) == pytest.approx(
        oracles.constant_area(-1.0, 2.0), rel=1e-15)
    assert oracles.ivp_area([0.5], -0.5, 1.0) == pytest.approx(
        oracles.constant_area(0.5, 1.5), rel=1e-15)
    assert oracles.ivp_area([0.0, 1.0], 0.0, 1.0) == pytest.approx(
        1 / 12 - 1 / 480 + 1 / 40320 - 1 / 5913600, rel=2e-8)


def test_kernel_closed_form():
    assert oracles.kernel_closed_form("second", 1.0, 1.0, 0.25) == pytest.approx(math.sin(0.75))
    assert oracles.kernel_closed_form("third", 1.0, 1.0, 0.25) == pytest.approx(1 - math.cos(0.75))
    assert oracles.kernel_closed_form("second", -25.0, 1.0, 0.0) == pytest.approx(math.sinh(5) / 5)
    assert oracles.kernel_closed_form("third", 0.0, 1.0, 0.5) == 0.125


def test_central_conic_curvature():
    one = Fraction(1)
    assert oracles.central_conic_curvature(one, 0, one, one) == pytest.approx(1.0)
    assert oracles.central_conic_curvature(one, -one, -one, one) == pytest.approx(-(5 / 4) ** (1 / 3))
    # x^2/4 + y^2 = 1: (p q)^(-2/3) with p = 2, q = 1
    assert oracles.central_conic_curvature(one / 4, 0, one, one) == pytest.approx(2 ** (-2 / 3))


def test_thm41_constant_references_follow_the_seeded_draws():
    import numpy as np
    refs = oracles.thm41_constant_references(7, 4, -2.0, 0.5)
    assert sorted(refs) == [0, 3]
    draws = np.random.default_rng(7).uniform(size=13)
    assert refs[0] == pytest.approx(-2.0 + 2.5 * draws[0], rel=1e-15)
    assert refs[3] == pytest.approx(-2.0 + 2.5 * draws[12], rel=1e-15)


def _count_output(points, bound):
    payload = {"certificate": {"bound": bound}, "count": len(points),
               "points": [[m, n, float(m), float(n)] for m, n in points]}
    return json.dumps(payload, indent=2) + f"\nbound {bound} count {len(points)}\n"


def test_count_check_rejects_a_missing_point():
    expected = oracles.parabola_points(1, False)
    out = _count_output(sorted(expected), 4)
    assert workloads._check_count_exact(expected, 4, 0, out) is None
    out = _count_output(sorted(expected)[:-1], 4)
    assert "missing [(3, 3)]" in workloads._check_count_exact(expected, 4, 0, out)
    assert workloads._check_count_exact(expected, 4, 5, out) == "exit 5"


def test_area_check_needs_increasing_samples(tmp_path):
    path = tmp_path / "area.csv"
    path.write_text("s,area\n0.0,0.0\n1.0,0.5\n2.0,0.4\n")
    assert "increase" in workloads._check_area(0.4, path, 0, "0.4\n")
    path.write_text("s,area\n0.0,0.0\n1.0,0.5\n2.0,0.8\n")
    assert workloads._check_area(0.8, path, 0, "0.8\n") is None
    assert "area" in workloads._check_area(1.0, path, 0, "0.8\n")


def test_tracer_wraps_and_restores():
    from affinecurves import cli, compare, lattice, odekernel
    import tracing
    before = (cli.enumerate_on_arc, compare.solve_ivp, odekernel.LagrangeKernel.column)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.enumerate_on_arc is lattice.enumerate_on_arc is not before[0]
        assert compare.solve_ivp is odekernel.solve_ivp is not before[1]
        tracer.begin_op(0)
        cli.main(["kernel", "--k", "-1", "--grid", "5"])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (cli.enumerate_on_arc, compare.solve_ivp, odekernel.LagrangeKernel.column) == before
    values = tracer.metrics(1)
    assert values["odekernel.column.calls"] == 4
    assert values["odekernel.solve_ivp.calls"] == 4
    assert values["odekernel.kernel_evals"] == 10
    assert values["odekernel.rhs_evals"] > 0
    assert 0 <= values["cli.self_ms"] <= (tracer.spans[0][2] - tracer.spans[0][1]) / 1e6
