import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from affinecurves import cli, kfuncs, odekernel, specfiles
from affinecurves import curve as curve_mod
from affinecurves import lattice as lattice_mod
from affinecurves.cli import main
from affinecurves.curve import AffineCurve, reconstruct_from_curvature
from affinecurves.conics import Conic
from affinecurves.kfuncs import Interval, ck, sk
from affinecurves.lattice import (
    CLOSEST_SAMPLES,
    ConicArc,
    Lattice,
    enumerate_near_curve,
    enumerate_on_arc,
    enumerate_on_graph,
    on_curve,
    plane_conic_from_lattice_frame,
)
from affinecurves.sharp_instances import (
    hyperbola_general_instance,
    hyperbola_zxz_instance,
    parabola_instance,
)
from affinecurves.specfiles import (
    curve_bbox,
    load_curve_spec,
    load_lattice_spec,
    parse_curve_spec,
)

import reference
from reference import AREA_MAX_DEPTH, SweptArea, swept_area

ALPHA = 2.0 ** (-1.0 / 3.0) * 5.0 ** (1.0 / 6.0)


# the hypotheses of the comparison theorem, thm3.4's and thm4.1's, in report order
COMPARISON_HYPOTHESES = ("curvature-ordering", "forward-positive-kernel",
                         "derivative-positive-ae")


def _report_area(report: dict) -> float:
    """A(L) of a verify report: thm4.1's side for the curve (rhs where
    kappa <= kappa_bar, lhs where kappa >= kappa_bar), cor4.2's note."""
    if report["theorem"] == "cor4.2":
        return float(report["notes"].split()[1])
    order = report["hypotheses"][0]
    assert order["name"] == "curvature-ordering" and order["ok"]
    return report["rhs"] if "kappa <= kappa_bar" in order["detail"] else report["lhs"]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def parabola_spec(tmp_path):
    return write_json(tmp_path / "parabola.json", {
        "type": "parabola", "coeffs": ["0", "0", "0.5"], "domain": ["0", "5"],
    })


@pytest.fixture
def hyperbola_spec(tmp_path):
    L = math.asinh(math.sqrt(5.0) / 2.0) / ALPHA
    return write_json(tmp_path / "hyperbola.json", {
        "type": "conic", "coeffs": ["1", "-1", "-1", "0", "0", "-1"],
        "seed": ["1", "0"], "domain": ["0", repr(3 * L)],
    })


@pytest.fixture
def z2_spec(tmp_path):
    return write_json(tmp_path / "z2.json", {
        "v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"],
    })


class TestBasicCommands:
    def test_arclength_parabola(self, parabola_spec, capsys):
        assert main(["arclength", parabola_spec]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(5.0, abs=1e-9)

    def test_curvature_conic(self, hyperbola_spec, capsys):
        assert main(["curvature", hyperbola_spec]) == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(-ALPHA ** 2, rel=1e-10)

    def test_curvature_table_of_no_samples(self, tmp_path, capsys):
        spec = write_json(tmp_path / "g.json", {
            "type": "graph", "coeffs": ["0", "0", "1", "0.05"], "domain": ["-1", "1"]})
        out = tmp_path / "kappa.csv"
        assert main(["curvature", spec, "--out", str(out), "--samples", "0"]) == 0
        assert out.read_text() == "s,kappa\n"

    def test_area_parabola(self, tmp_path, capsys):
        spec = write_json(tmp_path / "p.json", {
            "type": "parabola", "coeffs": ["0", "0", "0.5"],
            "domain": ["0", "2"]})
        assert main(["area", spec]) == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(8.0 / 12.0, abs=1e-9)

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["arclength", str(bad)]) == 2

    def test_unknown_type(self, tmp_path):
        spec = write_json(tmp_path / "u.json", {"type": "spiral"})
        assert main(["arclength", spec]) == 2

    def test_nonconvex_graph_domain_error(self, tmp_path):
        spec = write_json(tmp_path / "g.json", {
            "type": "graph", "coeffs": ["0", "0", "-0.5"],
            "domain": ["0", "1"]})
        assert main(["arclength", spec]) == 3

    def test_kernel_command(self, capsys):
        assert main(["kernel", "--family", "third", "--k", "-1",
                     "--grid", "6"]) == 0
        worst = float(capsys.readouterr().out.strip())
        assert worst <= 1e-8

    def test_kernel_builds_its_rows_only_for_out(self, tmp_path, capsys):
        import tracemalloc

        argv = ["kernel", "--k", "1", "--grid", "120"]
        assert main(["kernel", "--k", "1", "--grid", "3"]) == 0  # SciPy loads here
        peaks = []
        for extra in ([], ["--out", str(tmp_path / "kernel.csv")]):
            tracemalloc.start()
            try:
                assert main(argv + extra) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1] / 2

    @pytest.mark.parametrize("family", ["second", "third"])
    @pytest.mark.parametrize("k", ["-25", "-4", "0", "1", "9"])
    def test_kernel_closed_form_is_the_scalar_one(self, tmp_path, capsys, family, k):
        # the closed-form column of --out, read one array per kernel column,
        # against one scalar profile read per (s, r) pair
        out = tmp_path / "kernel.csv"
        assert main(["kernel", "--family", family, f"--k={k}", "--grid", "9",
                     "--lo", "-0.5", "--hi", "1.5", "--out", str(out)]) == 0
        capsys.readouterr()
        kf = float(k)
        for line in out.read_text().splitlines()[1:]:
            s, r, _, closed = (float(v) for v in line.split(","))
            if family == "second":
                want = sk(kf, s - r)
            elif kf != 0.0:
                want = (1.0 - ck(kf, s - r)) / kf
            else:
                want = (s - r) ** 2 / 2.0
            assert repr(closed) == repr(want)

    def test_bounds_command(self, capsys):
        assert main(["bounds", "--k0", "-1", "--k1", "0", "--L", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["area_sandwich"]["lower"] == pytest.approx(2 / 3)


class TestBadInput:
    @pytest.mark.parametrize("spec", [
        {"type": "constant-curvature", "k": "nan", "domain": ["0", "1"]},
        {"type": "graph", "coeffs": ["0", "0", "1"], "domain": ["-1", "inf"]},
    ])
    def test_nonfinite_spec_is_parse_error(self, tmp_path, capsys, spec):
        assert main(["area", write_json(tmp_path / "c.json", spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    @pytest.mark.parametrize("command", ["area", "count"])
    def test_nan_frame_is_parse_error(self, tmp_path, z2_spec, capsys, command):
        # finite fields whose determinant is inf - inf
        spec = write_json(tmp_path / "c.json", {
            "type": "constant-curvature", "k": "1", "domain": ["0", "1"], "origin": ["0", "0"],
            "tangent": ["1e308", "1e308"], "normal": ["1e308", "1e308"]})
        assert main([command, spec] + ([z2_spec] if command == "count" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "frame determinant nan" in captured.err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--k0", "nan", "--k1", "0", "--L", "1"],
        ["bounds", "--k0", "-1", "--k1", "0", "--L", "inf"],
        ["verify", "thm5.6", "--constant=-inf"],
        ["kernel", "--k", "1", "--hi", "1e400"],
        ["area", "never-read.json", "--base", "nan"],
    ])
    def test_nonfinite_option_is_parse_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid finite_float value" in captured.err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--k0=-1e300", "--k1", "0", "--L", "1"],
        ["bounds", "--k0", "-1", "--k1", "0", "--L", "1e300"],
        ["bounds", "--k0=-1e6", "--k1", "0", "--L", "1"],
    ])
    def test_overflowing_bounds_are_domain_errors(self, capsys, argv):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify", "thm3.4", "--L", "0", "--trials", "1"],
        ["verify", "thm4.1", "--L", "0", "--trials", "1"],
        ["verify", "thm4.1", "--L=-2", "--trials", "1"],
    ])
    def test_nonpositive_length_is_parse_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid positive_float value" in captured.err

    @pytest.mark.parametrize("multiplier", ["0", "-1"])
    def test_nonpositive_multiplier_is_parse_error(self, parabola_spec, z2_spec,
                                                   capsys, multiplier):
        assert main(["count", parabola_spec, z2_spec, f"--multiplier={multiplier}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid positive_int value" in captured.err

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_nonpositive_tol_is_parse_error(self, tmp_path, z2_spec, capsys, tol):
        graph = write_json(tmp_path / "g.json", {
            "type": "graph", "coeffs": ["0", "0", "1", "0.05"], "domain": ["-1", "1"]})
        for argv in (["count", graph, z2_spec], ["verify", "thm5.6", "--trials", "1"]):
            assert main(argv + [f"--tol={tol}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "invalid positive_float value" in captured.err

    @pytest.mark.parametrize("command", ["curvature", "arclength", "area"])
    def test_negative_samples_is_parse_error(self, parabola_spec, tmp_path, capsys, command):
        out = tmp_path / "table.csv"
        assert main([command, parabola_spec, "--samples=-2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid non_negative_int value" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["curvature", "arclength", "area"])
    def test_huge_samples_is_parse_error(self, parabola_spec, tmp_path, capsys, command):
        # refused by the parser, before any table is allocated
        out = tmp_path / "table.csv"
        assert main([command, parabola_spec, "--out", str(out), "--samples", str(10**15)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"limit of {cli.MAX_SAMPLES}" in captured.err
        assert not out.exists()

    def test_huge_kernel_grid_is_parse_error(self, capsys):
        assert main(["kernel", "--k", "1", "--grid", str(10**15)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid" in captured.err and f"{cli.MAX_SAMPLES} (s, r) pairs" in captured.err

    def test_sample_limits(self, parabola_spec, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLES", 10)
        out = tmp_path / "table.csv"
        assert main(["area", parabola_spec, "--out", str(out), "--samples", "10"]) == 0
        assert len(out.read_text().splitlines()) == 11
        assert main(["area", parabola_spec, "--out", str(out), "--samples", "11"]) == 2
        assert main(["kernel", "--k", "1", "--grid", "5"]) == 0  # 10 pairs (s, r)
        assert main(["kernel", "--k", "1", "--grid", "6"]) == 2  # 15 pairs

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_nonpositive_trials_is_parse_error(self, capsys, trials):
        assert main(["verify", "thm2.3", f"--trials={trials}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid positive_int value" in captured.err

    def test_scan_over_budget_is_domain_error(self, tmp_path, z2_spec, capsys):
        # about 2e9 lattice columns: refused before the scan starts
        spec = write_json(tmp_path / "far.json", {
            "type": "parabola", "coeffs": ["0", "-0.5", "0.5"], "domain": ["0", "1e9"]})
        start = time.perf_counter()
        assert main(["count", spec, z2_spec]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scan budget" in captured.err

    def test_parse_error_leaves_the_parser_intact(self, tmp_path, z2_spec, capsys):
        spec = write_json(tmp_path / "arc.json", {
            "type": "parabola", "coeffs": ["0", "-0.5", "0.5"], "domain": ["0", "5"]})
        argv = ["count", spec, z2_spec, "--theorem", "low_aff_bd"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # --xmax is parsed before the bad --multiplier stops the parse
        assert main([*argv, "--xmax", "3", "--multiplier", "0"]) == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("command", ["area", "count"])
    @pytest.mark.parametrize("spec", [
        # the determinant 5e-324 / 4 underflows to 0.0 as a float
        {"type": "conic", "coeffs": ["5e-324", "0", "0", "0", "-1", "0"],
         "seed": ["0", "0"], "domain": ["0", "1"]},
        # the constant term has no float
        {"type": "conic", "coeffs": ["1", "0", "1", "0", "0", "-1e310"],
         "seed": ["1e155", "0"], "domain": ["0", "1"]},
    ])
    def test_conic_outside_the_float_range_is_parse_error(self, tmp_path, z2_spec, capsys,
                                                          command, spec):
        path = write_json(tmp_path / "c.json", spec)
        assert main([command, path] + ([z2_spec] if command == "count" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the conic's coefficients or invariants leave the float range" in captured.err

    @pytest.mark.parametrize("command", ["area", "count"])
    @pytest.mark.parametrize("kind, coeffs", [("parabola", ["0", "0", "1e300"]),
                                              ("graph", ["0", "0", "1e300", "1"])])
    def test_graph_outside_the_float_range_is_parse_error(self, tmp_path, z2_spec, capsys,
                                                          command, kind, coeffs):
        # p(100000) = 1e310 overflows: area printed nan with exit 0
        path = write_json(tmp_path / "p.json", {"type": kind, "coeffs": coeffs,
                                                "domain": ["100000", "100001"]})
        assert main([command, path] + ([z2_spec] if command == "count" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the {kind} leaves the float range" in captured.err

    def test_stiff_comparison_is_one_domain_error(self, capsys):
        # the solutions grow like e^1000: the step propagators overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "thm3.4", "--k0=-1e6", "--k1=-999999", "--L=1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("domain error: ")

    @pytest.mark.parametrize("theorem", ["prop4.3", "thm5.8"])
    def test_triangle_sweeps_need_nonpositive_k0(self, capsys, theorem):
        assert main(["verify", theorem, "--k0", "0.5", "--k1", "1", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"verify {theorem} sweeps curvatures in [k0, min(k1, 0)]" in captured.err
        assert "needs k0 <= 0" in captured.err

    def test_reconstruction_failure_is_domain_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "ivp.json", {
            "type": "curvature-ivp", "kappa_coeffs": ["-1e30"],
            "domain": ["0", "1"]})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["area", spec]) == 3
        assert "domain error" in capsys.readouterr().err

    def test_stiff_reconstruction_stops_at_its_budget(self, tmp_path, capsys, monkeypatch):
        # kappa(s) = 1e6 s on [0, 50] turns about 37 000 times: the
        # solve stops at its budget of right-hand sides instead of hanging;
        # --apex reads the curve at the base, so area integrates it
        monkeypatch.setattr(odekernel, "MAX_RHS_EVALS", 50_000)
        spec = write_json(tmp_path / "stiff.json", {
            "type": "curvature-ivp", "kappa_coeffs": ["0", "1e6"], "domain": ["0", "50"]})
        start = time.perf_counter()
        assert main(["area", spec, "--apex", "0", "0"]) == 3
        assert time.perf_counter() - start < 1.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "50000 right-hand side evaluations" in captured.err

    def test_graph_reparameterisation_stops_at_its_budget(self, tmp_path, capsys,
                                                           monkeypatch):
        # the t(s) solve of this flat-bottomed quartic takes 4508 right-hand sides
        monkeypatch.setattr(odekernel, "MAX_RHS_EVALS", 1000)
        spec = write_json(tmp_path / "quartic.json", {
            "type": "graph", "coeffs": ["0", "0", "1e-9", "0", "1"], "domain": ["-3", "3"]})
        assert main(["area", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1000 right-hand side evaluations" in captured.err


    @pytest.mark.parametrize("coeffs, domain", [
        (["0", "0", "1e200"], ["0", "1"]),  # NumPy's overflow warning came first
        (["1e308", "1e308"], ["0", "2"]),  # six SciPy warnings came first
    ])
    def test_huge_curvature_is_one_domain_error(self, tmp_path, capsys, coeffs, domain):
        spec = write_json(tmp_path / "ivp.json", {
            "type": "curvature-ivp", "kappa_coeffs": coeffs, "domain": domain})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["area", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("domain error: ")

    def test_huge_constant_curvature_gets_its_area(self, tmp_path, capsys):
        # q = sqrt(-k) L = 586: the swept area printed nan, then exited 3;
        # the area ODE gives abar(k, L) = 4.137e246
        k, length = -85257.73575321586, 2.0078560403053807
        spec = write_json(tmp_path / "ivp.json", {
            "type": "curvature-ivp", "kappa_coeffs": [repr(k)], "domain": ["0", repr(length)]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["area", spec]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert float(captured.out) == pytest.approx(kfuncs.abar(k, length), rel=1e-9)

    def test_curvature_that_is_not_finite_is_one_domain_error(self, tmp_path, capsys):
        # 1e308 + 1e308 s overflows at s = 1: the curve is not integrated,
        # so the sample itself is refused
        spec = write_json(tmp_path / "ivp.json", {
            "type": "curvature-ivp", "kappa_coeffs": ["1e308", "1e308"], "domain": ["0", "2"]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["curvature", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: the curvature is not finite at s = 1.0\n"


# curvature coefficients as spec strings: moderate, stiff, huge, tiny and zero
_KAPPA_COEFF = st.one_of(
    st.floats(-40.0, 40.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((-1.0, 1.0)), st.floats(2.0, 9.0)),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
              st.floats(100.0, 308.0)),
    st.builds(lambda sign, e: sign * 10.0 ** -e, st.sampled_from((-1.0, 1.0)),
              st.floats(100.0, 323.0)),
    st.just(0.0),
).map(repr)


class TestCurvatureIVPFuzz:
    """Whole commands on generated curvature-ivp specs: a documented exit
    code, no NaN or infinity printed with exit 0, and nothing on stderr
    but the one error line (no traceback, no warning)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.lists(_KAPPA_COEFF, min_size=1, max_size=4),
           lo=st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(1e-9, 1e-3)),
           hi=st.one_of(st.floats(1e-6, 4.0), st.floats(4.0, 12.0)))
    def test_area_curvature_arclength(self, coeffs, lo, hi):
        spec = {"type": "curvature-ivp", "kappa_coeffs": coeffs, "domain": [repr(-lo), repr(hi)]}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(Path(tmp) / "ivp.json", spec)
            for command in ("area", "curvature", "arclength"):
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("error")
                    code = main([command, path])
                assert code in (0, 2, 3), (command, spec)
                if code == 0:
                    assert "nan" not in out.getvalue().lower(), (command, spec)
                    assert "inf" not in out.getvalue().lower(), (command, spec)
                    assert err.getvalue() == "", (command, spec)
                else:
                    assert len(err.getvalue().splitlines()) == 1, (command, spec)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.lists(_KAPPA_COEFF, min_size=1, max_size=4),
           lo=st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(1e-9, 1e-3)),
           hi=st.one_of(st.floats(1e-6, 4.0), st.floats(4.0, 12.0)),
           at=st.floats(0.0, 1.0))
    def test_area_base_and_apex(self, coeffs, lo, hi, at):
        # the area ODE from an interior base, and the triangle of --apex,
        # which reads the curve
        spec = {"type": "curvature-ivp", "kappa_coeffs": coeffs, "domain": [repr(-lo), repr(hi)]}
        base = repr(min(hi, -lo + at * (hi + lo)))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(Path(tmp) / "ivp.json", spec)
            for extra in ([f"--base={base}"], ["--apex", "0", "0"]):
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("error")
                    code = main(["area", path, *extra])
                assert code in (0, 2, 3), (extra, spec)
                if code == 0:
                    assert "nan" not in out.getvalue().lower(), (extra, spec)
                    assert "inf" not in out.getvalue().lower(), (extra, spec)
                    assert err.getvalue() == "", (extra, spec)
                else:
                    assert len(err.getvalue().splitlines()) == 1, (extra, spec)


# spec numbers: small integers, moderate floats, and powers of ten up to
# and past the float range
_SPEC_NUMBER = st.one_of(
    st.integers(-4, 4).map(str),
    st.floats(-10.0, 10.0).map(repr),
    st.builds(lambda sign, e: f"{sign}1e{e}", st.sampled_from(("", "-")), st.integers(-330, 330)),
)
_POSITIVE = st.one_of(st.floats(1e-3, 10.0).map(repr),
                      st.integers(-330, 330).map(lambda e: f"1e{e}"))
_DOMAIN = st.builds(lambda lo, width: [repr(lo), repr(lo + width)],
                    st.one_of(st.floats(-5.0, 5.0), st.floats(-1e8, 1e8)),
                    st.one_of(st.floats(1e-9, 4.0), st.floats(4.0, 60.0)))
_SMALL_DECIMAL = st.integers(-30, 30).map(lambda n: repr(n / 10))


def _conic_through(coeffs, seed):
    """A conic spec whose constant term puts the decimal seed on it."""
    a, b, c, d, e = (Fraction(v) for v in coeffs)
    x, y = (Fraction(v) for v in seed)
    f = -(a * x * x + b * x * y + c * y * y + d * x + e * y)
    return [*coeffs, str(f)], seed


_FUZZ_SPECS = {
    "conic": st.builds(
        lambda cs, dom: {"type": "conic", "coeffs": cs[0], "seed": cs[1], "domain": dom},
        st.builds(_conic_through, st.lists(_SMALL_DECIMAL, min_size=5, max_size=5),
                  st.lists(_SMALL_DECIMAL, min_size=2, max_size=2)),
        _DOMAIN),
    "parabola": st.builds(lambda c, dom: {"type": "parabola", "coeffs": c, "domain": dom},
                          st.tuples(_SPEC_NUMBER, _SPEC_NUMBER, _POSITIVE).map(list), _DOMAIN),
    # mostly convex: a positive x^2 term and a non-negative x^4 term, if any
    "graph": st.builds(lambda c, top, dom: {"type": "graph", "coeffs": c + top, "domain": dom},
                       st.tuples(_SPEC_NUMBER, _SPEC_NUMBER, _POSITIVE, _SPEC_NUMBER).map(list),
                       st.lists(_POSITIVE, max_size=1), _DOMAIN),
    "constant-curvature": st.builds(
        lambda k, dom: {"type": "constant-curvature", "k": k, "domain": dom},
        _SPEC_NUMBER, _DOMAIN),
}
# the standard lattice and a sheared one with a shifted origin
_FUZZ_LATTICES = ({"v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"]},
                  {"v0": ["1/2", "0"], "v1": ["1", "0"], "v2": ["2/3", "1"]})


def _check_count_and_area(spec):
    """`count` on both lattices and `area`: a documented exit code, no NaN
    or infinity printed with a result (exit 0 or 4), and one stderr line
    on error (no traceback, no warning)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(Path(tmp) / "curve.json", spec)
        lattices = [write_json(Path(tmp) / f"lat{i}.json", lat)
                    for i, lat in enumerate(_FUZZ_LATTICES)]
        for argv in [["count", path, lat] for lat in lattices] + [["area", path]]:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (0, 2, 3, 4), (argv[0], spec, err.getvalue())
            if code in (0, 4):  # a result; 4 is an inconclusive certificate
                assert "nan" not in out.getvalue().lower(), (argv[0], spec)
                assert "inf" not in out.getvalue().lower(), (argv[0], spec)
                assert err.getvalue() == "", (argv[0], spec)
            else:
                assert len(err.getvalue().splitlines()) == 1, (argv[0], spec)


# a quartic graph far from the origin, whose float count on the standard
# lattice exceeds its bound
_FAR_QUARTIC = {"type": "graph",
                "coeffs": ["-1e-240", "1e0", "0", "1.5630828295659783e-89",
                           "1.5630828295659783e-89"],
                "domain": ["69721015.19888318", "69721017.63747378"]}


class TestCountAreaFuzz:
    """Whole `count` and `area` commands on generated conic, parabola,
    graph and constant-curvature specs (see `_check_count_and_area`)."""

    @pytest.mark.parametrize("kind", list(_FUZZ_SPECS))
    def test_count_and_area(self, kind):
        @settings(max_examples=20, deadline=None, derandomize=True, database=None)
        @given(spec=_FUZZ_SPECS[kind])
        def check(spec):
            _check_count_and_area(spec)

        check()

    @pytest.mark.parametrize("spec", [
        # derivative coefficients past the float range (polyder)
        {"type": "graph", "coeffs": ["4", "-1e7", "1e308", "1e0"], "domain": ["0.0", "1e-09"]},
        # the area pass's error threshold past the float range
        {"type": "parabola", "coeffs": ["0.7048309849105223", "-3", "1e272"],
         "domain": ["-8545444.071322918", "-8545432.071322918"]},
        # a power of c' wedge c'' past the float range
        {"type": "graph", "coeffs": ["-1.5", "-1e-86", "-1e-167", "0", "4"],
         "domain": ["-1.655705199876348e-78", "2.7478196422054912"]},
        # the t(s) solve stepping left of the arc, where f'' < 0
        {"type": "graph", "coeffs": ["2", "0", "2.225073858507e-311", "2"],
         "domain": ["2.225073858507e-311", "554.5412108366836"]},
        # exact candidates past the float range
        {"type": "constant-curvature", "k": "1e-312", "domain": ["0.0", "1e-09"]},
        {"type": "parabola", "coeffs": ["1e307", "1e307", "1e307"],
         "domain": ["1.098041925135464e-129", "1.9771344588278663"]},
        # derivative reads past the float range
        {"type": "graph", "coeffs": ["1e302", "1e-316", "3", "-1e254", "1.8885164879443668"],
         "domain": ["-75802680.54157768", "-75802677.85110967"]},
        # f'' < 0 between the checked samples, inside the arc-length quadrature
        {"type": "graph", "coeffs": ["-3", "4", "-1", "3", "3.032408993458679"],
         "domain": ["-4.131725810342692", "606.986575215738"]},
        # tangency products past the float range
        {"type": "graph", "coeffs": ["1e248", "0", "1e231", "1e0"],
         "domain": ["0.0", "1.274746842301254"]},
        # a float-proximity count past its bound, where floats cannot
        # separate lattice points: inconclusive, not violated
        _FAR_QUARTIC,
    ])
    def test_found_inputs(self, spec):
        _check_count_and_area(spec)


class TestInexactCounts:
    """A float-proximity count cannot certify a violation; an exact one can."""

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, json.loads(out[:out.rindex("}") + 1]), out.splitlines()[-1]

    def test_inexact_count_past_its_bound_is_inconclusive(self, tmp_path, z2_spec, capsys):
        # the flat reconstruction (s, s^2/2) holds 4 lattice points on [0, 6]; a
        # multiplier far above theirs makes 2pts2 claim 3
        spec = write_json(tmp_path / "flat.json", {
            "type": "curvature-ivp", "kappa_coeffs": ["0"], "domain": ["0", "6"]})
        code, payload, summary = self._run(["count", spec, z2_spec, "--theorem", "2pts2",
                                            "--multiplier", "100000"], capsys)
        assert (code, summary) == (4, "bound 3 count 4")
        assert not payload["exact_membership"]
        assert payload["certificate"]["hypotheses"][-1] == {
            "name": "exact-membership", "ok": False,
            "detail": "count 4 > bound 3 by 1e-09 proximity membership"}

    def test_far_quartic_counts_exactly(self, tmp_path, z2_spec, capsys):
        # the float proximity count found 2 points past its bound of 1;
        # the vertical lattice lines x = 69721016, 69721017 miss the graph
        spec = write_json(tmp_path / "far.json", _FAR_QUARTIC)
        code, payload, summary = self._run(["count", spec, z2_spec], capsys)
        assert (code, summary) == (0, "bound 1 count 0")
        assert payload["exact_membership"]

    def test_exact_count_past_its_bound_is_violated(self, tmp_path, z2_spec, capsys):
        # a multiplier far above the points' own makes 2pts2 claim 3 points
        spec = write_json(tmp_path / "p.json", {
            "type": "parabola", "coeffs": ["0", "0", "1"], "domain": ["0", "10"]})
        code, payload, summary = self._run(["count", spec, z2_spec, "--theorem", "2pts2",
                                            "--multiplier", "100000"], capsys)
        assert (code, summary) == (5, "bound 3 count 11")
        assert payload["exact_membership"]
        assert all(h["ok"] for h in payload["certificate"]["hypotheses"])


def _convex_graph(rng, degree):
    """Coefficient strings and integer domain of a seeded convex cubic or
    quartic: p'' > 0 is checked exactly at the ends and, for a quartic, at
    the vertex of p''."""
    while True:
        cs = [Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4, 8))) for _ in range(degree + 1)]
        cs[2] = Fraction(rng.randint(1, 16), 8)
        lo = rng.randint(-3, 2)
        hi = lo + rng.randint(1, 4)
        xs = [Fraction(lo), Fraction(hi)]
        if degree == 4 and cs[4] and lo < -cs[3] / (4 * cs[4]) < hi:
            xs.append(-cs[3] / (4 * cs[4]))
        if all(sum(k * (k - 1) * c * x ** (k - 2) for k, c in enumerate(cs) if k >= 2) > 0
               for x in xs):
            return [repr(float(c)) for c in cs], lo, hi


class TestExactGraphCounts:
    """`count` on cubic and quartic graph specs, by vertical lattice lines."""

    @staticmethod
    def _count(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_far_cubic_is_sharp(self, tmp_path, z2_spec, capsys):
        # the float window of this arc held 7.2e11 lattice points
        spec = write_json(tmp_path / "far.json", {
            "type": "graph", "coeffs": ["0", "0", "0", "1"], "domain": ["100000", "100003"]})
        assert main(["count", spec, z2_spec]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "bound 4 count 4 SHARP"
        payload = json.loads(out[:out.rindex("}") + 1])
        assert [p[:2] for p in payload["points"]] == [[x, x ** 3] for x in range(10**5, 10**5 + 4)]

    def test_seeded_convex_graphs_never_violate(self, tmp_path):
        # an exact count over its bound would be a false `violated` (exit 5)
        lattices = [write_json(tmp_path / f"lat{i}.json", lat)
                    for i, lat in enumerate(_FUZZ_LATTICES + (
                        {"v0": ["1/3", "-1/2"], "v1": ["1/2", "1/4"], "v2": ["-1/3", "1/2"]},))]
        rng = random.Random(2026)
        codes = {}
        for i in range(200):
            coeffs, lo, hi = _convex_graph(rng, 3 + i % 2)
            spec = write_json(tmp_path / f"g{i}.json", {"type": "graph", "coeffs": coeffs,
                                                        "domain": [str(lo), str(hi)]})
            for j, lat in enumerate(lattices):
                code, out, err = self._count(["count", spec, lat])
                codes[code] = codes.get(code, 0) + 1
                assert code in (0, 4), (coeffs, lo, hi, j, err)
                if j == 0:  # the standard lattice: an exact scan over x
                    payload = json.loads(out[:out.rindex("}") + 1])
                    exact = [Fraction(c) for c in coeffs]
                    want = [[x, int(y)] for x in range(lo, hi + 1)
                            for y in [sum(c * x ** k for k, c in enumerate(exact))]
                            if y.denominator == 1]
                    assert [p[:2] for p in payload["points"]] == want
                    assert payload["exact_membership"] is True
        assert codes.get(0, 0) > 300

    @pytest.mark.parametrize("coeffs,lo,hi", [
        (("0", "0", "1", "0.05"), -1, 1),
        (("1", "0.125", "0.5625", "0.0625"), -2, 1),
        (("1", "-0.125", "0.875", "-0.0625"), -1, 2),
        (("0", "0", "1", "0.05", "0.01"), -1, 2),
        (("0.5", "-0.25", "0.6875", "0.0625"), -2, 1),
    ])
    def test_param_column_matches_float_placement(self, tmp_path, z2_spec, coeffs, lo, hi):
        # the old placement: the tangency root of the float proximity scan
        doc = {"type": "graph", "coeffs": list(coeffs), "domain": [str(lo), str(hi)]}
        out = tmp_path / "points.csv"
        code, _, _ = self._count(["count", write_json(tmp_path / "g.json", doc), z2_spec,
                                  "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        near = enumerate_near_curve(parse_curve_spec(doc).curve, Lattice.standard(), 1e-6)
        assert [(int(r[0]), int(r[1])) for r in rows] == near.coords
        assert len(rows) >= 1
        np.testing.assert_allclose([float(r[4]) for r in rows], near.params, rtol=0, atol=1e-13)


class TestVerify:
    def test_thm41_sweep_holds(self, capsys):
        assert main(["verify", "thm4.1", "--k0", "-1", "--k1", "0",
                     "--L", "2", "--trials", "6", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("holds") >= 6

    def test_thm56_constant_equality(self, capsys):
        assert main(["verify", "thm5.6", "--constant", "-0.5", "--L", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "(equality)" in out

    @pytest.mark.parametrize("seed", range(5))
    def test_thm56_band_sweep_claims_no_equality(self, seed, capsys):
        # a band curvature meets a bound only near u = 0, and not with
        # constant curvature: a near-equality, noted but not claimed
        assert main(["verify", "thm5.6", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        reports = json.loads(out[out.index("{"):])["reports"]
        assert [(r["verdict"], r["equality"]) for r in reports] == [("holds", False)] * 20
        assert "(equality)" not in out

    @pytest.mark.parametrize("k, length", [(-400.0, 4.0), (0.0, 1.0), (0.6, 2.0)])
    def test_thm56_constant_curvature_keeps_equality(self, k, length, capsys):
        assert main(["verify", "thm5.6", f"--constant={k!r}", f"--L={length!r}"]) == 0
        out = capsys.readouterr().out
        (report,) = json.loads(out[out.index("{"):])["reports"]
        assert report["equality"] and f"curvature constant {k}" in report["notes"]

    @pytest.mark.parametrize("length", ["10", "20"])
    def test_thm23_long_arcs_are_never_violated(self, length, capsys):
        # A' and A''' grow like e^q, q up to sqrt(2) L: where their wedges
        # lose their digits, jet-conditioning fails (exit 4), never exit 5
        for seed in range(10):
            assert main(["verify", "thm2.3", "--L", length, "--seed", str(seed)]) in (0, 4)
            assert "violated" not in capsys.readouterr().out

    def test_thm34_hypothesis_gate(self, capsys):
        cap = (math.pi / 2.0) ** 2
        assert main(["verify", "thm3.4", "--k0", "0", "--k1",
                     repr(cap * 2), "--L", "2", "--trials", "3"]) == 4
        out = capsys.readouterr().out
        [hyp] = json.loads(out[out.index("{"):])["reports"][0]["hypotheses"]
        assert hyp == {"name": "k1-within-sturm-range", "ok": False,
                       "detail": f"k1 = {cap * 2}, cap = {cap}"}

    @pytest.mark.parametrize("argv", [
        # q = sqrt(-k0) L = 80: the wedge of the vertices' plane points read
        # 2.7e39 for a triangle of 4.3e26
        ["prop4.3", "--k0=-400", "--k1=-399.9", "--L", "4", "--trials", "2"],
        # the wedge of plane points of size 2e19 rounded by about 1e24
        ["thm5.8", "--k0=-104.14543984852982", "--k1=-103.97355152839717",
         "--L=5.178193249829169", "--trials", "2", "--seed", "659"],
    ], ids=["prop4.3 q80", "thm5.8 seed 659"])
    def test_stiff_triangle_corner_holds(self, capsys, monkeypatch, argv):
        """Each triangle A13 - A12 - A23, from one table of the area ODE,
        against DOP853 solves of A''' + kappa A' = 1/2 from s1 and from s2,
        which differ by less than the error bound that area-conditioning
        prints."""
        seen = []
        check = cli.cmp.verify_triangle_bound

        def recorded(curve, vertices, *args, **kwargs):
            seen.append((curve, vertices))
            return check(curve, vertices, *args, **kwargs)

        monkeypatch.setattr(cli.cmp, "verify_triangle_bound", recorded)
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out
        reports = json.loads(out[out.index("{"):])["reports"]
        assert [r["verdict"] for r in reports] == ["holds"] * len(seen) == ["holds"] * 2
        for report, (curve, (s1, s2, s3)) in zip(reports, seen):
            op = odekernel.power_op(3, 1, curve.curvature, Interval(s1, s3))
            from1, from2 = (odekernel.solve_ivp(op, 0.5, s, (0.0, 0.0, 0.0), rtol=1e-12,
                                                atol=1e-30) for s in (s1, s2))
            want = from1(s3) - from1(s2) - from2(s3)
            assert abs(report["lhs"] - want) <= 1e-9 * want
            (detail,) = [h["detail"] for h in report["hypotheses"]
                         if h["name"] == "area-conditioning"]
            assert abs(report["lhs"] - want) <= float(detail.split()[3])

    @pytest.mark.parametrize("theorem, k0, k1, length, seed", [
        # q = sqrt(-k0) L = 44.6: the swept quadrature lost every digit here
        # (4.33e17 with an error estimate of 1.7e18)
        ("cor4.2", -158.32950352406675, -158.28296741619855, 3.5408603545701647, 57),
        # q = 80; one trial, a constant reference in [k0, k1] above the band
        ("thm4.1", -400.0, -399.0, 4.0, 0),
    ])
    def test_stiff_corner_area_lies_in_the_sandwich(self, capsys, theorem, k0, k1, length,
                                                    seed):
        """At the stiff corners the area comes from the area ODE: the
        verdict holds, and A(L) lies in the closed-form sandwich
        [abar(k1, L), abar(k0, L)] of a curvature in [k0, k1]."""
        assert main(["verify", theorem, f"--k0={k0!r}", f"--k1={k1!r}", f"--L={length!r}",
                     "--trials", "1", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        (report,) = json.loads(out[out.index("{"):])["reports"]
        assert report["verdict"] == "holds"
        area = _report_area(report)
        assert kfuncs.abar(k1, length) <= area <= kfuncs.abar(k0, length)

    @pytest.mark.parametrize("theorem, hypothesis", [("prop4.3", "area-conditioning"),
                                                     ("thm5.8", "area-conditioning")])
    def test_numeric_hypotheses_hold_on_tame_sweeps(self, capsys, theorem, hypothesis):
        assert main(["verify", theorem, "--trials", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        for r in json.loads(out[out.index("{"):])["reports"]:
            assert [h["ok"] for h in r["hypotheses"] if h["name"] == hypothesis] == [True]

    def test_cor42_tame_sweep_has_no_numeric_hypothesis(self, capsys):
        # the area ODE needs no quadrature check: the sandwich is the verdict
        assert main(["verify", "cor4.2", "--trials", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        reports = json.loads(out[out.index("{"):])["reports"]
        assert [(r["verdict"], r["hypotheses"]) for r in reports] == [("holds", [])] * 3
        lo, hi = kfuncs.abar(0.0, 2.0), kfuncs.abar(-1.0, 2.0)
        assert all(lo <= _report_area(r) <= hi for r in reports)

    @staticmethod
    def _trials(monkeypatch, capsys, argv):
        """The reports of a verify run, each with its trial's curvature and
        reconstructed curve."""
        built = []
        build = cli.reconstruct_from_curvature

        def recorded(kap, interval, frame=None):
            built.append((kap, build(kap, interval, frame)))
            return built[-1][1]

        monkeypatch.setattr(cli, "reconstruct_from_curvature", recorded)
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out
        reports = json.loads(out[out.index("{"):])["reports"]
        assert len(reports) == len(built) >= 3
        return [(r, kap, curve) for r, (kap, curve) in zip(reports, built)]

    @pytest.mark.parametrize("argv", [
        ["--k0=-1", "--k1=0", "--L=2", "--trials=6", "--seed=4"],           # q = 2
        ["--k0=-9", "--k1=-4", "--L=3", "--trials=3", "--seed=12"],         # q = 9
        ["--k0=-16", "--k1=-14", "--L=4", "--trials=6", "--seed=11"],       # q = 16
    ])
    @pytest.mark.parametrize("theorem", ["thm4.1", "cor4.2"])
    def test_area_matches_the_quadrature_oracle(self, capsys, monkeypatch, theorem, argv):
        """The report's A(L), from the area ODE, against the swept-area
        quadrature of the reconstructed curve: within the quadrature's
        error estimate plus 1e-9 |A|."""
        for report, _, curve in self._trials(monkeypatch, capsys, [theorem, *argv]):
            area = _report_area(report)
            want, err = swept_area(curve, 0.0).with_error(curve.domain.hi)
            assert abs(area - want) <= err + 1e-9 * abs(want)

    @pytest.mark.parametrize("theorem", ["thm4.1", "cor4.2"])
    def test_q20_area_matches_a_tight_dop853_solve(self, capsys, monkeypatch, theorem):
        """At q = sqrt(-k0) L = 20 the swept quadrature of the reconstructed
        curve is off by up to 6.6e-9 relative, twice its own error
        estimate, since (c - c(0)) ^ c' cancels on coordinates that grow
        like e^q; the oracle is the area ODE solved by DOP853 at rtol
        1e-13, and the report's A(L) must lie within 1e-9 |A| of it."""
        argv = [theorem, "--k0=-25", "--k1=-23", "--L=4", "--trials=6", "--seed=11"]
        for report, kap, curve in self._trials(monkeypatch, capsys, argv):
            length = curve.domain.hi
            op = odekernel.power_op(3, 1, kap, Interval(0.0, length))
            want = odekernel.solve_ivp(op, 0.5, 0.0, (0.0, 0.0, 0.0), rtol=1e-13,
                                       atol=1e-16)(length)
            assert abs(_report_area(report) - want) <= 1e-9 * abs(want)

    def test_unknown_theorem(self):
        assert main(["verify", "thm9.9"]) == 2

    def test_thm41_q80_corner_holds(self, capsys):
        # the swept quadrature's error estimate (about 1e47) swamped this
        # area; the comparison's own solves keep their digits
        assert main(["verify", "thm4.1", "--k0=-400", "--k1=-399", "--L", "4",
                     "--trials", "3"]) == 0
        out = capsys.readouterr().out
        reports = json.loads(out[out.index("{"):])["reports"]
        assert [r["verdict"] for r in reports] == ["holds"] * 3
        for r in reports:
            assert [(h["name"], h["ok"]) for h in r["hypotheses"]] == [
                (name, True) for name in COMPARISON_HYPOTHESES]

    def test_thm41_stiff_corner_holds(self, capsys):
        assert main(["verify", "thm4.1", "--k0=-25", "--k1=-23", "--L", "4",
                     "--trials", "3"]) == 0
        out = capsys.readouterr().out
        reports = json.loads(out[out.index("{"):])["reports"]
        assert [r["verdict"] for r in reports] == ["holds"] * 3
        for r in reports:
            assert [(h["name"], h["ok"]) for h in r["hypotheses"]] == [
                (name, True) for name in COMPARISON_HYPOTHESES]

    @pytest.mark.parametrize("argv", [["--L=2", "--trials=5", "--seed=8"],
                                      ["--L=3", "--trials=5", "--seed=28"],
                                      ["--L=4", "--trials=20", "--seed=3"]])
    def test_thm23_reconstructions_hold(self, argv, capsys):
        assert main(["verify", "thm2.3", *argv]) == 0
        out = capsys.readouterr().out
        reports = json.loads(out[out.index("{"):])["reports"]
        assert {r["verdict"] for r in reports} == {"holds"}

    @pytest.mark.parametrize("theorem", ["thm2.3", "thm3.4", "cor4.2",
                                         "prop4.3", "thm5.8"])
    def test_all_sweeps_hold(self, theorem, capsys):
        assert main(["verify", theorem, "--trials", "3", "--seed", "0"]) == 0
        assert "hypotheses-failed" not in capsys.readouterr().out

    def test_determinism(self, capsys):
        argv = ["verify", "cor4.2", "--trials", "3", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_cor42_reads_tol(self, capsys):
        """The sandwich's slack is --tol (default 1e-7) times max(1, abar(k0, L)),
        as the other theorems scale theirs."""
        hi = kfuncs.abar(-3.0, 2.0)
        assert hi > 1.0
        for extra, tol in (([], 1e-7), (["--tol", "0.01"], 0.01)):
            assert main(["verify", "cor4.2", "--k0", "-3", "--trials", "1", *extra]) == 0
            out = capsys.readouterr().out
            (report,) = json.loads(out[out.index("{"):])["reports"]
            assert report["slack"] == tol * hi
            assert report["hypotheses"] == []

    def test_csv_format(self, capsys):
        assert main(["verify", "cor4.2", "--trials", "2", "--seed", "1",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "trial,theorem,verdict,lhs,rhs,equality" in out

    def test_exit_code_mapping(self):
        from affinecurves.cli import _exit_from_reports
        from affinecurves.reports import BoundReport, Hypothesis
        ok = BoundReport(theorem="t", lhs=0.0, rhs=1.0)
        bad_hyp = BoundReport(theorem="t",
                              hypotheses=[Hypothesis("h", False)])
        violated = BoundReport(theorem="t", lhs=2.0, rhs=1.0)
        assert _exit_from_reports([ok]) == 0
        assert _exit_from_reports([ok, bad_hyp]) == 4
        assert _exit_from_reports([ok, bad_hyp, violated]) == 5


class TestCount:
    def test_parabola_sharp(self, tmp_path, capsys):
        spec = write_json(tmp_path / "arc.json", {
            "type": "parabola", "coeffs": ["0", "-0.5", "0.5"],
            "domain": ["0", "3"]})
        lat = write_json(tmp_path / "lat.json", {
            "v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"]})
        rc = main(["count", spec, lat, "--theorem", "sharp_lat"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SHARP" in out
        payload = json.loads(out[:out.rindex("}") + 1])
        assert payload["count"] == 4
        assert payload["certificate"]["bound"] == 4
        assert payload["exact_membership"] is True

    def test_hyperbola_count(self, hyperbola_spec, z2_spec, capsys):
        rc = main(["count", hyperbola_spec, z2_spec,
                   "--theorem", "sharp_lat"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out[:out.rindex("}") + 1])
        assert payload["count"] == 4
        assert [p[:2] for p in payload["points"]] == [
            [1, 0], [1, -1], [2, -3], [5, -8]]
        assert "SHARP" in out

    def test_window_flags_restrict_count(self, tmp_path, capsys):
        spec = write_json(tmp_path / "arc.json", {
            "type": "parabola", "coeffs": ["0", "-0.5", "0.5"],
            "domain": ["0", "5"]})
        lat = write_json(tmp_path / "lat.json", {
            "v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"]})
        main(["count", spec, lat, "--theorem", "low_aff_bd"])
        full = json.loads(capsys.readouterr().out.rpartition("}")[0] + "}")
        assert full["count"] == 6
        main(["count", spec, lat, "--theorem", "low_aff_bd", "--xmax", "3"])
        cut = json.loads(capsys.readouterr().out.rpartition("}")[0] + "}")
        assert cut["count"] == 4

    def test_inexact_fallback_warns(self, tmp_path, capsys):
        spec = write_json(tmp_path / "rec.json", {
            "type": "curvature-ivp", "kappa_coeffs": ["0"],
            "domain": ["0", "3"]})
        lat = write_json(tmp_path / "lat.json", {
            "v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"]})
        rc = main(["count", spec, lat, "--theorem", "low_aff_bd"])
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        assert payload["exact_membership"] is False
        assert "warning" in payload
        # the flat reconstruction is (s, s^2/2): integer points at s = 0, 2
        assert payload["count"] == 2
        assert rc == 0

    def test_float_window_over_budget_exits_3(self, tmp_path, z2_spec, capsys):
        # the padded box of the flat reconstruction (s, s^2/2) on [0, 200]
        # holds about 4e6 lattice points
        spec = write_json(tmp_path / "long.json", {
            "type": "curvature-ivp", "kappa_coeffs": ["0"], "domain": ["0", "200"]})
        start = time.perf_counter()
        rc = main(["count", spec, z2_spec])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "window holds" in captured.err and "scan budget" in captured.err

    def test_graph_over_line_budget_exits_3(self, tmp_path, z2_spec, capsys):
        spec = write_json(tmp_path / "long.json", {
            "type": "graph", "coeffs": ["0", "0", "1", "0.05"],
            "domain": ["-1", "2000000"]})
        start = time.perf_counter()
        rc = main(["count", spec, z2_spec])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "crosses 2000002 vertical lattice lines" in captured.err
        assert "scan budget" in captured.err

    def test_inexact_warning_names_tolerance(self, tmp_path, z2_spec, capsys):
        spec = write_json(tmp_path / "ivp.json", {
            "type": "curvature-ivp", "kappa_coeffs": ["0.5", "-0.2"],
            "domain": ["-1", "1"]})
        for extra, tol in (([], "1e-09"), (["--tol", "1e-6"], "1e-06")):
            main(["count", spec, z2_spec, "--theorem", "low_aff_bd", *extra])
            out = capsys.readouterr().out
            warning = json.loads(out[:out.rindex("}") + 1])["warning"]
            assert f"using {tol} proximity membership" in warning

    def test_exact_graph_count_ignores_tolerance(self, tmp_path, z2_spec, capsys):
        spec = write_json(tmp_path / "g.json", {
            "type": "graph", "coeffs": ["0", "0", "1", "0.05"],
            "domain": ["-1", "1"]})
        outs = []
        for extra in ([], ["--tol", "1e-6"]):
            assert main(["count", spec, z2_spec, "--theorem", "low_aff_bd", *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        payload = json.loads(outs[0][:outs[0].rindex("}") + 1])
        assert "warning" not in payload
        assert payload["exact_membership"] is True
        assert payload["points"] == [[0, 0, 0.0, 0.0]]


class TestClosedStdout:
    """A reader that closes stdout before the command writes (`count ... |
    head -1`): the console script exits 1, with nothing on stderr."""

    @pytest.mark.parametrize("argv", [["count", "{curve}", "{lattice}", "--format", "json"],
                                      ["figures", "fig1"]], ids=["count", "figures"])
    def test_exits_1_quietly(self, argv, hyperbola_spec, z2_spec):
        argv = [a.format(curve=hyperbola_spec, lattice=z2_spec) for a in argv]
        src = str(Path(cli.__file__).parent.parent)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "affinecurves.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, timeout=120,
                                  env={**os.environ, "PYTHONPATH": src})
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestFigures:
    @pytest.mark.parametrize("fig", ["fig1", "fig5", "fig6", "fig7", "fig8"])
    def test_figures_emit_csv(self, fig, capsys):
        assert main(["figures", fig]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "series,s,x,y,marker"
        assert len(out.splitlines()) > 10

    def test_fig7_marks_four_points(self, capsys):
        main(["figures", "fig7"])
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("lattice_points")]
        assert len(rows) == 4

    def test_determinism(self, capsys):
        main(["figures", "fig8"])
        a = capsys.readouterr().out
        main(["figures", "fig8"])
        b = capsys.readouterr().out
        assert a == b

    def test_unknown_figure(self, capsys):
        assert main(["figures", "fig3"]) == 2


class TestExamples:
    def test_export_and_count_round_trip(self, tmp_path, capsys):
        rc = main(["examples", "hyperbola", "--m0", "1",
                   "--outdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        rc = main(["count", payload["curve_spec"], payload["lattice_spec"],
                   "--theorem", "sharp_lat"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SHARP" in out

    def test_export_count_m2_includes_arc_endpoint(self, tmp_path, capsys):
        # the last expected point sits exactly at the arc endpoint, where a
        # bounded minimizer once stopped short and dropped it
        rc = main(["examples", "hyperbola", "--m0", "2",
                   "--outdir", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        rc = main(["count", payload["curve_spec"], payload["lattice_spec"],
                   "--theorem", "sharp_lat"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bound 6 count 6 SHARP" in out

    def test_parabola_rigid_export(self, tmp_path, capsys):
        rc = main(["examples", "parabola", "--m0", "2", "--rigid",
                   "--outdir", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["expected_bound"] == 5
        assert payload["theorem"] == "rigid_lat"

    def test_zero_length_export_is_refused(self, tmp_path, capsys):
        # parabola --m0 0 --rigid is one lattice point on the arc [L, L],
        # which count refused as a spec with exit 2
        assert main(["examples", "parabola", "--m0", "0", "--rigid",
                     "--outdir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "zero-length arc" in captured.err and "--m0 1" in captured.err
        assert list(tmp_path.iterdir()) == []
        assert main(["examples", "parabola", "--m0", "0", "--outdir", str(tmp_path)]) == 0

    def test_circle_export(self, tmp_path, capsys):
        rc = main(["examples", "circle", "--outdir", str(tmp_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {c["name"] for c in payload["configs"]} == {"square", "hexagonal"}


def _expected_instance(name, m0, rigid):
    if name == "parabola":
        return parabola_instance(m0=m0, rigid=rigid)
    if name == "hyperbola":
        return hyperbola_zxz_instance(m0, rigid=rigid)
    return hyperbola_general_instance(Lattice.make((0, 0), (2, 0), (0, 4)), m0,
                                      rigid=rigid)


class TestCountOnArc:
    # exact on-arc points far from the origin, which a closest-point search
    # accurate only to sqrt(eps) |p| rejected
    @pytest.mark.parametrize("name,m0,rigid", [
        ("parabola", 12, False), ("parabola", 14, False),
        ("parabola", 9, True), ("parabola", 12, True),
        ("hyperbola", 3, False), ("hyperbola", 4, False), ("hyperbola", 5, True),
        ("hyperbola-general", 3, False), ("hyperbola-general", 4, True),
        ("parabola", 0, False), ("parabola", 15, False), ("parabola", 15, True),
        ("hyperbola", 7, False), ("hyperbola", 7, True),
        ("hyperbola-general", 5, False), ("hyperbola-general", 5, True),
    ])
    def test_exported_instance_is_sharp(self, tmp_path, capsys, name, m0, rigid):
        argv = ["examples", name, "--m0", str(m0), "--outdir", str(tmp_path)]
        assert main(argv + (["--rigid"] if rigid else [])) == 0
        payload = json.loads(capsys.readouterr().out)
        rc = main(["count", payload["curve_spec"], payload["lattice_spec"]])
        out = capsys.readouterr().out
        assert rc == 0
        inst = _expected_instance(name, m0, rigid)
        bound = inst.expected_bound
        assert f"bound {bound} count {bound} SHARP" in out
        points = json.loads(out[:out.rindex("}") + 1])["points"]
        assert sorted((m, n) for m, n, _, _ in points) == sorted(inst.expected_coords)

    # the README graph and dyadic convex cubics (p'' > 0 on the domain), so
    # that the lattice points on them follow from an exact scan over x
    @pytest.mark.parametrize("coeffs,lo,hi", [
        (("0", "0", "1", "0.05"), -1, 1),
        (("1", "0.125", "0.5625", "0.0625"), -2, 1),
        (("1", "-0.125", "0.875", "-0.0625"), -1, 2),
        (("2", "0", "0.6875", "-0.03125"), -2, 1),
        (("-0.5", "0.25", "0.5", "0.03125"), -2, 1),
    ])
    def test_near_curve_matches_exact_scan(self, coeffs, lo, hi):
        spec = parse_curve_spec({"type": "graph", "coeffs": list(coeffs),
                                 "domain": [str(lo), str(hi)]})
        points = enumerate_near_curve(spec.curve, Lattice.standard())
        exact = [Fraction(c) for c in coeffs]
        expected = []
        for x in range(lo, hi + 1):
            y = sum(c * x ** k for k, c in enumerate(exact))
            if y.denominator == 1:
                expected.append((x, int(y)))
        assert points.coords == expected
        assert not points.exact

    @pytest.mark.parametrize("name,m0,rigid", [("parabola", 5, False),
                                               ("hyperbola", 3, True)])
    def test_on_curve_same_as_scalar_sampling(self, tmp_path, capsys, name, m0, rigid):
        # count's exact path, with the curve sampled in one array call and
        # by stacked scalar reads
        argv = ["examples", name, "--m0", str(m0), "--outdir", str(tmp_path)]
        assert main(argv + (["--rigid"] if rigid else [])) == 0
        payload = json.loads(capsys.readouterr().out)
        curve = load_curve_spec(payload["curve_spec"])
        lat = load_lattice_spec(payload["lattice_spec"])
        arc = ConicArc(conic=curve.conic, constraints=(), bbox=curve_bbox(curve.curve))
        coords = enumerate_on_arc(arc, lat).coords
        self._assert_same_points(curve.curve, lat, coords, 1e-6)

    def test_parabola_spec_same_as_scalar_sampling(self):
        # a `parabola` spec is the curvature-0 conic, placed in closed form;
        # the one by one sampling placement is its oracle
        spec = parse_curve_spec({"type": "parabola", "coeffs": ["0", "0", "1"],
                                 "domain": ["-3", "3"]})
        assert spec.curve.inverse is not None
        lat = Lattice.standard()
        got = TestBatchedPlacement._assert_matches_oracle(spec.curve, lat,
                                                          _arc_candidates(spec, lat), 1e-6)
        assert got.coords == [(x, x * x) for x in range(-3, 4)]

    def test_on_curve_readme_graph_same_as_scalar_sampling(self):
        spec = parse_curve_spec({"type": "graph", "coeffs": ["0", "0", "1", "0.05"],
                                 "domain": ["-1", "1"]})
        self._assert_same_points(spec.curve, Lattice.standard(), None, 1e-9)

    def test_hyperbola_count_reads_profiles_in_arrays(self, tmp_path, capsys, monkeypatch):
        # every scalar read of a profile goes through kfuncs._finite; the
        # curve samples of on_curve and curve_bbox and the batched root
        # solve of on_curve are all array reads
        assert main(["examples", "hyperbola", "--m0", "3", "--outdir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        scalar_reads = []
        finite = kfuncs._finite

        def counted(name, profile, k, s):
            scalar_reads.append(name)
            return finite(name, profile, k, s)

        monkeypatch.setattr(kfuncs, "_finite", counted)
        kfuncs.sk(-1.0, 0.5)
        assert scalar_reads == ["sk"]  # the patch sees scalar reads
        scalar_reads.clear()
        assert main(["count", payload["curve_spec"], payload["lattice_spec"]]) == 0
        assert "SHARP" in capsys.readouterr().out
        assert scalar_reads == []

    @staticmethod
    def _assert_same_points(curve, lat, coords, tol):
        def stacked(s):
            if isinstance(s, np.ndarray):
                return np.array([curve.point(u) for u in s])
            return curve.position(s)

        got = _placed(curve, lat, coords, tol)
        ref = _placed(dataclasses.replace(curve, position=stacked), lat, coords, tol)
        assert len(got) > 0
        assert got.coords == ref.coords
        assert got.params == ref.params

    def test_readme_graph_count(self, tmp_path, z2_spec, capsys):
        spec = write_json(tmp_path / "graph.json", {
            "type": "graph", "coeffs": ["0", "0", "1", "0.05"],
            "domain": ["-1", "1"]})
        main(["count", spec, z2_spec])
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        assert payload["count"] == 1
        assert payload["points"] == [[0, 0, 0.0, 0.0]]


def _placed(curve, lat, coords, tol):
    """`on_curve` on the candidates coords; coords None: the float window
    of `enumerate_near_curve`."""
    if coords is None:
        return enumerate_near_curve(curve, lat, tol)
    return on_curve(curve, lat, coords, tol)


def _on_curve_one_by_one(curve, lat, coords, tol):
    """The oracle of `on_curve`: each candidate placed on its own, with
    its position in Fraction arithmetic, its nearest sample by an argmin
    over all samples and its closest parameter by a scalar brentq on the
    tangency condition (the nearer bracket end without a sign change).
    Returns (coords, positions, params), ordered by parameter."""
    ss = np.linspace(curve.domain.lo, curve.domain.hi, CLOSEST_SAMPLES)
    pts = curve.point(ss)
    if coords is None:
        coords = lattice_mod._window_coords(lat, pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5)
    reach = tol + float(np.max(np.hypot(*np.diff(pts, axis=0).T)))
    found = []
    for m, n in coords:
        p = (lat.v0[0] + m * lat.v1[0] + n * lat.v2[0],
             lat.v0[1] + m * lat.v1[1] + n * lat.v2[1])
        q = np.array([float(p[0]), float(p[1])])
        d2 = np.sum((pts - q) ** 2, axis=1)
        i = int(np.argmin(d2))
        if d2[i] > reach * reach:
            continue
        lo, hi = float(ss[max(i - 1, 0)]), float(ss[min(i + 1, len(ss) - 1)])

        def tangency(s, q=q):
            return float(np.dot(curve.point(s) - q, curve.derivatives(s)[0]))

        if tangency(lo) <= 0.0 <= tangency(hi):
            s = brentq(tangency, lo, hi, xtol=1e-15)
        else:
            s = min((lo, hi), key=lambda t, q=q: math.dist(curve.point(t), q))
        if math.dist(curve.point(s), q) <= tol:
            found.append(((m, n), p, s))
    found.sort(key=lambda item: item[2])
    return [f[0] for f in found], [f[1] for f in found], [f[2] for f in found]


def _export(tmp_path, name, m0, rigid):
    """The curve (a CurveSpec) and lattice of an exported sharp instance."""
    argv = ["examples", name, "--m0", str(m0), "--outdir", str(tmp_path)]
    assert main(argv + (["--rigid"] if rigid else [])) == 0
    return (load_curve_spec(str(tmp_path / f"{name}-curve.json")),
            load_lattice_spec(str(tmp_path / f"{name}-lattice.json")))


def _arc_candidates(spec, lat):
    """The candidates of count's exact path."""
    arc = ConicArc(conic=spec.conic, constraints=(), bbox=curve_bbox(spec.curve))
    return enumerate_on_arc(arc, lat).coords


# the m0 of the exported instances that the count benchmark runs, with
# and without --rigid
COUNT_INSTANCES = [(name, m0, rigid) for name, m0s in (
    ("parabola", (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15)),
    ("hyperbola", (1, 2, 3, 5)),
    ("hyperbola-general", (1, 2, 3)),
) for m0 in m0s for rigid in (False, True)]


class TestBatchedPlacement:
    """`on_curve` places all candidates in one batched pass; the one by
    one sample-and-brentq placement it replaced is the oracle."""

    @staticmethod
    def _assert_matches_oracle(curve, lat, coords, tol):
        got = _placed(curve, lat, coords, tol)
        want_coords, want_positions, want_params = _on_curve_one_by_one(curve, lat, coords, tol)
        assert got.coords == want_coords
        assert got.positions == want_positions
        assert all(isinstance(v, Fraction) for p in got.positions for v in p)
        assert len(got.params) == len(want_params)
        for s, t in zip(got.params, want_params):
            assert abs(s - t) <= 1e-12 * max(1.0, abs(t))
        return got

    @pytest.mark.parametrize("name,m0,rigid", COUNT_INSTANCES)
    def test_exported_instances(self, tmp_path, name, m0, rigid):
        spec, lat = _export(tmp_path, name, m0, rigid)
        got = self._assert_matches_oracle(spec.curve, lat, _arc_candidates(spec, lat), 1e-6)
        assert len(got) == _expected_instance(name, m0, rigid).expected_bound

    @pytest.mark.parametrize("coeffs,lo,hi", [
        (("0", "0", "1", "0.05"), -1, 1),
        (("1", "0.125", "0.5625", "0.0625"), -2, 1),
        (("1", "-0.125", "0.875", "-0.0625"), -1, 2),
        (("2", "0", "0.6875", "-0.03125"), -2, 1),
        (("-0.5", "0.25", "0.5", "0.03125"), -2, 1),
    ])
    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_dyadic_cubics(self, coeffs, lo, hi, tol):
        spec = parse_curve_spec({"type": "graph", "coeffs": list(coeffs),
                                 "domain": [str(lo), str(hi)]})
        self._assert_matches_oracle(spec.curve, Lattice.standard(), None, tol)

    # n = m^2 and m^2 - m n - n^2 = 1 in the lattice coordinates of a
    # lattice with rational origin and generators, as plane conics
    @pytest.mark.parametrize("conic_mn,seed,count", [
        (Conic.make(1, 0, 0, 0, -1, 0), (0, 0), 5),
        (Conic.make(1, -1, -1, 0, 0, -1), (1, 0), 7),
    ])
    def test_rational_lattice(self, conic_mn, seed, count):
        lat = Lattice.make((Fraction(1, 3), Fraction(-1, 2)), (2, Fraction(1, 5)),
                           (Fraction(-1, 7), 3))
        conic = plane_conic_from_lattice_frame(conic_mn, lat)
        start = lat.point(*seed)
        curve = conic.branch_curve((float(start[0]), float(start[1])), Interval(-6.0, 6.0))
        arc = ConicArc(conic=conic, constraints=(), bbox=curve_bbox(curve))
        got = self._assert_matches_oracle(curve, lat, enumerate_on_arc(arc, lat).coords, 1e-6)
        assert len(got) == count
        assert all(conic_mn(m, n) == 0 for m, n in got.coords)
        window = self._assert_matches_oracle(curve, lat, None, 1e-9)
        assert window.coords == got.coords

    @pytest.mark.parametrize("name,m0,rigid", [
        ("parabola", 10, False), ("parabola", 4, True), ("hyperbola", 3, False),
        ("hyperbola-general", 2, True),
    ])
    def test_points_at_the_domain_ends(self, tmp_path, name, m0, rigid):
        # the arcs end at lattice points, such as (0, 0) at s = 0 on the
        # parabola: their closest parameters are the domain ends exactly,
        # where the tangency residual is zero
        spec, lat = _export(tmp_path, name, m0, rigid)
        points = on_curve(spec.curve, lat, _arc_candidates(spec, lat), 1e-6)
        dom = spec.curve.domain
        assert points.params[0] == dom.lo
        assert points.params[-1] == dom.hi
        assert len(points) == _expected_instance(name, m0, rigid).expected_bound

    # the closed-form placement of conic arcs (`AffineCurve.inverse`)
    # against the sampling oracle, on lattices with rational origin and
    # generators drawn by the seed

    @staticmethod
    def _random_lattice(rng):
        def q():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        v1 = (Fraction(rng.randint(1, 4), rng.randint(1, 5)), q())
        v2 = (q(), Fraction(rng.randint(1, 4), rng.randint(1, 5)))
        if v1[0] * v2[1] == v1[1] * v2[0]:
            v2 = (v2[0] + 1, v2[1])
        return Lattice.make((q(), q()), v1, v2)

    @staticmethod
    def _lattice_conic_curve(conic_mn, lat, seed, interval):
        """The branch through the lattice point `seed` of the plane conic
        whose lattice-coordinate form is conic_mn, and all the lattice
        points of the conic in the plane box around |m|, |n| <= 40 as
        candidates."""
        conic = plane_conic_from_lattice_frame(conic_mn, lat)
        start = lat.point(*seed)
        curve = conic.branch_curve((float(start[0]), float(start[1])), interval)
        corners = [lat.point(m, n) for m in (-40, 40) for n in (-40, 40)]
        xs, ys = ([float(p[i]) for p in corners] for i in (0, 1))
        arc = ConicArc(conic=conic, constraints=(), bbox=(min(xs), max(xs), min(ys), max(ys)))
        return curve, enumerate_on_arc(arc, lat).coords

    @pytest.mark.parametrize("seed", range(6))
    def test_random_hyperbolas_with_both_branches(self, seed):
        # (m - m0)(n - n0) = N has lattice points on both branches; only
        # part of the seed's branch lies on the arc
        rng = random.Random(seed)
        lat = self._random_lattice(rng)
        big_n = rng.choice((6, 12, 24, 30, 36))
        m0, n0 = rng.randint(-3, 3), rng.randint(-3, 3)
        conic_mn = Conic.make(0, 1, 0, -n0, -m0, m0 * n0 - big_n)
        curve, coords = self._lattice_conic_curve(conic_mn, lat, (m0 + 1, n0 + big_n),
                                                  Interval(-rng.uniform(2, 8), rng.uniform(2, 8)))
        assert curve.curvature(0.0) < 0.0
        assert np.isnan(curve.inverse(lattice_mod._float_points(lat, coords))).sum() == len(coords) // 2
        got = self._assert_matches_oracle(curve, lat, coords, 1e-6)
        assert 0 < len(got) <= len(coords) // 2

    @pytest.mark.parametrize("seed", range(6))
    def test_ellipse_arcs_across_the_cut(self, seed):
        # arcs longer than half a turn that contain s = +-half a turn,
        # where atan2 jumps
        rng = random.Random(seed)
        lat = self._random_lattice(rng)
        a, r = rng.choice(((1, 25), (1, 50), (1, 65), (2, 33)))
        seed_mn = next((m, n) for m in range(-8, 9) for n in range(-8, 9) if m * m + a * n * n == r)
        conic_mn = Conic.make(1, 0, a, 0, 0, -r)
        k = plane_conic_from_lattice_frame(conic_mn, lat).curvature()
        turn = 2.0 * math.pi / math.sqrt(k)
        lo = rng.choice((rng.uniform(0.05, 0.45), rng.uniform(-0.95, -0.55))) * turn
        hi = lo + rng.uniform(0.55, 0.9) * turn
        curve, coords = self._lattice_conic_curve(conic_mn, lat, seed_mn, Interval(lo, hi))
        assert lo < 0.5 * turn < hi or lo < -0.5 * turn < hi
        got = self._assert_matches_oracle(curve, lat, coords, 1e-6)
        assert len(coords) // 2 <= len(got) < len(coords)

    @pytest.mark.parametrize("conic_mn,seed", [
        (Conic.make(1, 0, 0, 0, -1, 0), (0, 0)),        # n = m^2
        (Conic.make(0, 1, 0, 0, 0, -12), (1, 12)),      # m n = 12
        (Conic.make(1, 0, 1, 0, 0, -25), (5, 0)),       # m^2 + n^2 = 25
    ])
    def test_candidates_at_both_domain_ends(self, conic_mn, seed):
        # the arc from the second to the last but one point of a longer arc
        lat = self._random_lattice(random.Random(7))
        k = plane_conic_from_lattice_frame(conic_mn, lat).curvature()
        half = 0.45 * 2.0 * math.pi / math.sqrt(k) if k > 0.0 else 8.0
        curve, coords = self._lattice_conic_curve(conic_mn, lat, seed, Interval(-half, half))
        inner = on_curve(curve, lat, coords, 1e-6)
        assert len(inner) >= 4
        lo, hi = inner.params[1], inner.params[-2]
        curve, _ = self._lattice_conic_curve(conic_mn, lat, seed, Interval(lo, hi))
        got = self._assert_matches_oracle(curve, lat, coords, 1e-6)
        assert got.coords == inner.coords[1:-1]
        assert got.params[0] == lo and got.params[-1] == hi

    def test_full_circle_counts_its_seed_point_once(self, tmp_path, z2_spec, capsys):
        assert main(["examples", "circle", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        spec = load_curve_spec(str(tmp_path / "circle-curve.json"))
        lat = Lattice.standard()
        dom = spec.curve.domain
        assert spec.curve.point(dom.hi) == pytest.approx((1.0, 0.0), abs=1e-12)
        got = self._assert_matches_oracle(spec.curve, lat, _arc_candidates(spec, lat), 1e-6)
        assert got.coords == [(1, 0), (0, 1), (-1, 0), (0, -1)]
        assert got.params[0] == dom.lo
        assert main(["count", str(tmp_path / "circle-curve.json"), z2_spec]) == 0
        assert capsys.readouterr().out.endswith("bound 5 count 4\n")


class TestConicSpecOffItsSeed:
    # a conic spec's curve is the branch through a float seed, which must
    # lie on the conic to a residual relative to the conic's terms at the
    # seed: on a conic scaled down to tiny coefficients, a seed off the
    # conic is refused, though its residual 3e-12 is small in absolute terms

    @pytest.fixture
    def spec(self, tmp_path):
        return write_json(tmp_path / "c.json", {
            "type": "conic", "coeffs": ["1e-12", "0", "1e-12", "0", "0", "-1e-12"],
            "seed": ["2", "0"], "domain": ["0", "6.5"]})

    def test_count_refuses_the_seed(self, spec, z2_spec, capsys):
        assert main(["count", spec, z2_spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not on the conic" in captured.err

    def test_load_refuses_the_seed(self, spec):
        with pytest.raises(kfuncs.DomainError, match="not on the conic"):
            load_curve_spec(spec)


def _mapped(curve: dict, lattice: dict, matrix, shift) -> tuple[dict, dict]:
    """A conic spec and its lattice under p -> M p + t, M in SL(2, Z): the
    conic pulled back exactly (`Conic.substituted` of the inverse map),
    the seed's exact image rounded to floats, the domain kept (the map
    preserves affine arc length)."""
    (a, b), (c, d) = matrix
    tx, ty = (Fraction(v) for v in shift)
    assert a * d - b * c == 1
    inverse = [[Fraction(d), Fraction(-b), -(d * tx - b * ty)],
               [Fraction(-c), Fraction(a), -(-c * tx + a * ty)], [0, 0, 1]]
    conic = Conic.make(*curve["coeffs"]).substituted(inverse)

    def image(p, by=(tx, ty)):
        x, y = (Fraction(v) for v in p)
        return (a * x + b * y + by[0], c * x + d * y + by[1])

    return ({"type": "conic", "domain": curve["domain"],
             "coeffs": [str(v) for v in (conic.a, conic.b, conic.c, conic.d, conic.e, conic.f)],
             "seed": [repr(float(v)) for v in image(curve["seed"])]},
            {"v0": [str(v) for v in image(lattice["v0"])],
             "v1": [str(v) for v in image(lattice["v1"], (0, 0))],
             "v2": [str(v) for v in image(lattice["v2"], (0, 0))]})


class TestMappedInstances:
    """Exported instances under an exact equi-affine map count as they
    did: each interior candidate is on the arc by the curve's inverse,
    not by a float distance, and the mapped seed is refused only by a
    residual relative to the conic's scale."""

    @pytest.mark.parametrize("name, matrix, shift, summary", [
        # the float curve passes 1.52e-6 from the exact point (89, -144):
        # an absolute 1e-6 distance dropped it (bound 8 count 7)
        ("hyperbola-general", ((1000, 1), (999, 1)), (0, 0), "bound 8 count 8 SHARP"),
        # the seed (89.333..., 55.4) has a float residual of 6.4e-9, which
        # an absolute 1e-9 refused (exit 3)
        ("circle", ((89, 55), (55, 34)), ("1/3", "2/5"), "bound 5 count 4"),
    ])
    def test_count_is_invariant(self, tmp_path, capsys, name, matrix, shift, summary):
        argv = ["examples", name, "--outdir", str(tmp_path)]
        assert main(argv + (["--m0", "3"] if name != "circle" else [])) == 0
        capsys.readouterr()
        curve = json.loads((tmp_path / f"{name}-curve.json").read_text())
        lattice_path = tmp_path / f"{name}-lattice.json"
        lattice = (json.loads(lattice_path.read_text()) if lattice_path.exists()
                   else {"v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"]})
        plain = (write_json(tmp_path / "plain-curve.json", curve),
                 write_json(tmp_path / "plain-lattice.json", lattice))
        mapped = [write_json(tmp_path / f"mapped-{kind}.json", doc)
                  for kind, doc in zip(("curve", "lattice"), _mapped(curve, lattice, matrix, shift))]
        payloads = []
        for paths in (plain, mapped):
            assert main(["count", *paths]) == 0
            out = capsys.readouterr().out
            assert out.splitlines()[-1] == summary
            payloads.append(json.loads(out[:out.rindex("}") + 1]))
        assert payloads[1]["exact_membership"] is True
        # the same lattice coordinates, in the same order along the arc
        assert [p[:2] for p in payloads[1]["points"]] == [p[:2] for p in payloads[0]["points"]]


# lattice points v0 + m v1 + n v2 = (m/2, (m + n)/4 - 1/2): all of
# Z/2 x Z/4, with fractional generators
HALF_QUARTER = Lattice.make((0, Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 4)),
                            (0, Fraction(1, 4)))

QUADRATICS = [
    ("parabola", ("0", "-0.5", "0.5"), 0, 5),
    ("graph", ("1", "0.25", "0.75"), -3, 2),
    ("parabola", ("-2", "1.5", "0.125"), -7, 4),
    ("graph", ("3", "-2", "1"), -4, 6),
]


class TestQuadraticGraphs:
    """`parabola` and three-coefficient `graph` specs are the curvature-0
    conic: `count` places their exact candidates in closed form, checked
    against the one by one sampling oracle and an exact scan over x."""

    @pytest.mark.parametrize("kind,coeffs,lo,hi", QUADRATICS)
    @pytest.mark.parametrize("lat", [Lattice.standard(), HALF_QUARTER])
    def test_closed_form_matches_oracle(self, kind, coeffs, lo, hi, lat):
        spec = parse_curve_spec({"type": kind, "coeffs": list(coeffs),
                                 "domain": [str(lo), str(hi)]})
        got = TestBatchedPlacement._assert_matches_oracle(spec.curve, lat,
                                                          _arc_candidates(spec, lat), 1e-6)
        assert len(got) >= 2

    @pytest.mark.parametrize("kind,coeffs,lo,hi", QUADRATICS)
    def test_count_matches_exact_scan_over_x(self, tmp_path, z2_spec, capsys, kind, coeffs,
                                             lo, hi):
        spec = write_json(tmp_path / "q.json", {"type": kind, "coeffs": list(coeffs),
                                                "domain": [str(lo), str(hi)]})
        main(["count", spec, z2_spec])
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        c0, c1, c2 = (Fraction(v) for v in coeffs)
        ys = [(x, c0 + c1 * x + c2 * x * x) for x in range(lo, hi + 1)]
        assert [p[:2] for p in payload["points"]] == [[x, int(y)] for x, y in ys
                                                      if y.denominator == 1]
        assert payload["exact_membership"] is True

    def test_far_parabola_counts_all_four_points(self, tmp_path, z2_spec, capsys):
        # y is about 1e12 and its ulp about 1e-4: the sampling placement
        # lost (1000003, 1000006000009)
        spec = write_json(tmp_path / "far.json", {
            "type": "parabola", "coeffs": ["0", "0", "1"], "domain": ["1000000", "1000003"]})
        assert main(["count", spec, z2_spec]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        assert [p[:2] for p in payload["points"]] == [[x, x * x] for x in range(10**6, 10**6 + 4)]
        assert payload["exact_membership"] is True
        assert out.splitlines()[-1].startswith("bound 4 count 4")

    def test_far_parabola_scan_pads_each_axis_by_its_own_size(self, tmp_path, z2_spec, capsys):
        # x is about 3e7 and y about 9e14: a pad of 1e-9 |y| on the x axis
        # made the scan cross 1 800 010 columns, past its budget
        spec = write_json(tmp_path / "far.json", {
            "type": "parabola", "coeffs": ["0", "0", "1"], "domain": ["30000000", "30000003"]})
        xmin, xmax, _, _ = curve_bbox(load_curve_spec(spec).curve)
        assert 3e7 - 2 < xmin < xmax < 3e7 + 5
        assert main(["count", spec, z2_spec]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        x0 = 3 * 10**7
        assert [p[:2] for p in payload["points"]] == [[x, x * x] for x in range(x0, x0 + 4)]
        assert out.splitlines()[-1] == "bound 4 count 4 SHARP"

    def test_candidates_need_an_inverse(self):
        # the flat reconstruction (s, s^2/2) on [-1, 1], through (0, 0) only
        curve = parse_curve_spec({"type": "curvature-ivp", "kappa_coeffs": ["0"],
                                  "domain": ["-1", "1"]}).curve
        with pytest.raises(ValueError, match="no closed-form inverse"):
            on_curve(curve, Lattice.standard(), [(0, 0)], 1e-6)
        assert enumerate_near_curve(curve, Lattice.standard(), 1e-9).coords == [(0, 0)]

    def test_graph_candidates_are_placed_by_the_graph_inverse(self):
        spec = parse_curve_spec({"type": "graph", "coeffs": ["0", "0", "1", "0.05"],
                                 "domain": ["-1", "1"]})
        exact = enumerate_on_graph(spec.graph, (), Lattice.standard(), spec.curve.inverse)
        placed = on_curve(spec.curve, Lattice.standard(), [(0, 0)], 1e-6)
        assert exact.coords == placed.coords == [(0, 0)]
        assert exact.exact and placed.exact
        assert exact.params == placed.params


class TestPlacementCost:
    """Structural costs of `count`, counted by call, so that a regression
    shows without timing."""

    def test_exact_conic_count_reads_no_samples(self, tmp_path, z2_spec, capsys, monkeypatch):
        assert main(["examples", "hyperbola", "--m0", "3", "--outdir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        reads = []
        point = AffineCurve.point

        def counted(self, s):
            reads.append(s.size if isinstance(s, np.ndarray) else "scalar")
            return point(self, s)

        monkeypatch.setattr(AffineCurve, "point", counted)
        assert main(["count", payload["curve_spec"], payload["lattice_spec"]]) == 0
        assert "SHARP" in capsys.readouterr().out
        assert reads  # the patch sees the reads
        assert CLOSEST_SAMPLES not in reads
        assert "scalar" not in reads

    def test_exact_parabola_count_reads_no_samples(self, tmp_path, z2_spec, capsys,
                                                   monkeypatch):
        spec = write_json(tmp_path / "p.json", {
            "type": "parabola", "coeffs": ["0", "-0.5", "0.5"], "domain": ["0", "3"]})
        reads = []
        point = AffineCurve.point

        def counted(self, s):
            reads.append(s.size if isinstance(s, np.ndarray) else "scalar")
            return point(self, s)

        def refuse(*args, **kwargs):
            raise AssertionError("reparameterised by the t(s) solve")

        monkeypatch.setattr(AffineCurve, "point", counted)
        monkeypatch.setattr(curve_mod, "reparam_unit_speed", refuse)
        assert main(["count", spec, z2_spec]) == 0
        assert capsys.readouterr().out.endswith("bound 4 count 4 SHARP\n")
        assert reads
        assert CLOSEST_SAMPLES not in reads
        assert "scalar" not in reads

    def test_cubic_graph_count_reads_the_polynomial_in_arrays(self, tmp_path, z2_spec, capsys,
                                                              monkeypatch):
        # one of the benchmark's seeded cubics; the scalar reads left are
        # the spec parser's checks of the ends
        spec = write_json(tmp_path / "g.json", {
            "type": "graph", "coeffs": ["0.5", "-0.25", "0.6875", "0.0625"],
            "domain": ["-2", "1"]})
        calls = {"scalar": 0, "array": 0}
        horner = specfiles._horner

        def counted(c, x):
            calls["array" if isinstance(x, np.ndarray) else "scalar"] += 1
            return horner(c, x)

        monkeypatch.setattr(specfiles, "_horner", counted)
        assert main(["count", spec, z2_spec, "--tol", "1e-6"]) == 0
        assert "count" in capsys.readouterr().out
        assert calls["array"] > 0
        assert calls["scalar"] <= 1000


class TestAreaTable:
    """`area` computes its printed value and every `--out` row in one
    pass; `swept_area`, the tests' swept-area quadrature, computes a table
    of samples in one pass."""

    @pytest.fixture
    def graph_spec(self, tmp_path):
        return write_json(tmp_path / "graph.json", {
            "type": "graph", "coeffs": ["0", "0", "1", "0.05", "0.01"],
            "domain": ["-1", "1.3"]})

    def test_last_row_is_the_printed_area(self, graph_spec, tmp_path, capsys):
        out = tmp_path / "area.csv"
        assert main(["area", graph_spec, "--out", str(out), "--samples", "37"]) == 0
        printed = capsys.readouterr().out.strip()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 37
        assert rows[0][1] == "0.0"
        assert rows[-1][1] == printed

    @pytest.mark.parametrize("samples", [0, 1])
    def test_few_samples_still_print_the_area(self, tmp_path, capsys, samples):
        spec = write_json(tmp_path / "p.json", {
            "type": "parabola", "coeffs": ["0", "0", "0.5"], "domain": ["0", "2"]})
        out = tmp_path / "area.csv"
        assert main(["area", spec, "--out", str(out), "--samples", str(samples)]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(8.0 / 12.0, rel=1e-12)
        assert out.read_text().splitlines()[1:] == ["0.0,0.0"] * samples

    @pytest.mark.parametrize("spec", [
        {"type": "parabola", "coeffs": ["0", "0", "0.5"], "domain": ["0", "5"]},
        {"type": "conic", "coeffs": ["1", "-1", "-1", "0", "0", "-1"], "seed": ["1", "0"],
         "domain": ["0", "2"]},
        {"type": "graph", "coeffs": ["0", "0", "1", "0.05"], "domain": ["-1", "1.3"]},
        {"type": "curvature-ivp", "kappa_coeffs": ["-1", "0.5"], "domain": ["-1", "2"]},
    ], ids=["parabola", "conic", "cubic-graph", "curvature-ivp"])
    def test_blocks_of_panels_give_the_same_table(self, spec, monkeypatch):
        curve = parse_curve_spec(spec).curve
        ss = np.append(np.linspace(curve.domain.lo, curve.domain.hi, 50), curve.domain.hi)
        tables = []
        for block in (reference.AREA_BLOCK, 3):
            monkeypatch.setattr(reference, "AREA_BLOCK", block)
            tables.append(swept_area(curve, curve.domain.lo)(ss).tobytes())
        assert tables[0] == tables[1]

    def test_one_pass_reads_the_curve_in_arrays(self, graph_spec, monkeypatch):
        reads = []
        point = AffineCurve.point

        def counted(self, s):
            reads.append(s.size if isinstance(s, np.ndarray) else "scalar")
            return point(self, s)

        monkeypatch.setattr(AffineCurve, "point", counted)
        curve = load_curve_spec(graph_spec).curve
        ss = np.linspace(curve.domain.lo, curve.domain.hi, 65)
        swept_area(curve, curve.domain.lo, (0.0, 0.0))(np.append(ss, curve.domain.hi))
        # the first call reads the 21 nodes of all 64 panels between samples
        assert 1 <= len(reads) <= 3
        assert reads[0] == 21 * 64
        assert "scalar" not in reads

    def test_thm41_stiff_corner_does_not_warn(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "thm4.1", "--k0=-25", "--k1=-23", "--L=4",
                         "--trials", "3"]) == 0
        out = capsys.readouterr().out
        reports = json.loads(out[out.index("{"):])["reports"]
        assert [r["verdict"] for r in reports] == ["holds"] * 3

    def test_lost_quadrature_has_bounded_work(self, monkeypatch):
        # at q = sqrt(400) 4 = 80 the panels never converge: each bisects
        # AREA_MAX_DEPTH times at most, without a warning
        nodes = []
        prime = SweptArea.prime

        def counted(self, s):
            nodes.append(np.size(s))
            return prime(self, s)

        monkeypatch.setattr(SweptArea, "prime", counted)
        curve = reconstruct_from_curvature(lambda s: -400.0, Interval(0.0, 4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SweptArea(curve, 0.0, curve.point(0.0)).with_error(4.0)
        assert 0 < sum(nodes) <= 21 * (2 ** (AREA_MAX_DEPTH + 1) - 1)  # one interval

    @pytest.mark.parametrize("theorem", ["thm4.1", "cor4.2"])
    def test_verify_areas_never_integrate_the_curve(self, capsys, monkeypatch, theorem):
        # both areas solve the area ODE, which reads kappa alone: no point
        # or derivative of the reconstructed curve is read
        reads = []
        monkeypatch.setattr(odekernel.StepReader, "read", lambda self, s: reads.append(s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", theorem, "--k0=-400", "--k1=-399", "--L", "4",
                         "--trials", "3"]) == 0
        assert "holds" in capsys.readouterr().out
        assert reads == []


# the specs of the area-ODE checks, each with its constant curvature (None
# where it varies); every spec runs at its base lo, at an interior base and
# with the apex (0, 0) from both
AREA_SPECS = {
    "parabola": ({"type": "parabola", "coeffs": ["0", "0", "0.5"], "domain": ["0", "5"]}, 0.0),
    "hyperbola": ({"type": "conic", "coeffs": ["1", "-1", "-1", "0", "0", "-1"],
                   "seed": ["1", "0"], "domain": ["0", "2"]}, "conic"),
    "ellipse": ({"type": "conic", "coeffs": ["1", "0", "2", "0", "0", "-1"],
                 "seed": ["1", "0"], "domain": ["-0.5", "1.5"]}, "conic"),
    "constant-negative": ({"type": "constant-curvature", "k": "-2",
                           "domain": ["-0.5", "1.5"]}, -2.0),
    "constant-positive": ({"type": "constant-curvature", "k": "3", "domain": ["0", "1.2"]}, 3.0),
    "quartic": ({"type": "graph", "coeffs": ["0", "0", "1", "0.05", "0.01"],
                 "domain": ["-1", "1.3"]}, None),
    "ivp": ({"type": "curvature-ivp", "kappa_coeffs": ["-1", "0.5"], "domain": ["-1", "2"]},
            None),
}
AREA_MODES = ("lo", "interior", "apex", "interior-apex")


def _area_table(spec, mode, tmp_path, capsys, samples=33):
    """`area --out` of a spec in one of AREA_MODES: the curve, the base,
    the apex (None for c(base)), the sample parameters and areas."""
    path = write_json(tmp_path / "spec.json", spec)
    curve = load_curve_spec(path).curve
    lo, hi = curve.domain.lo, curve.domain.hi
    base = lo + 0.37 * (hi - lo) if mode.startswith("interior") else lo
    apex = (0.0, 0.0) if mode.endswith("apex") else None
    out = tmp_path / "area.csv"
    argv = ["area", path, "--out", str(out), "--samples", str(samples), "--base", repr(base)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + (["--apex", "0", "0"] if apex else [])) == 0
    printed = capsys.readouterr().out.strip()
    lines = out.read_text().splitlines()[1:]
    assert lines[-1].split(",")[1] == printed  # the last row is A(hi), the printed area
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    return curve, base, apex, rows[:, 0], rows[:, 1]


def _mp_jets(kappa, t0, jet, ts, forcing):
    """The jets at each t of ts of y''' + kappa y' = forcing from jet at
    t0, by mpmath's Taylor-series solver; left of t0 by the mirrored
    problem z(u) = y(t0 - u), since the solver runs forwards only."""
    out = {}
    for sign in (1, -1):
        side = sorted((t for t in ts if (t - t0) * sign > 0), key=lambda t: abs(t - t0))
        if side:
            solve = mpmath.odefun(lambda u, z: [z[1], z[2], sign * forcing
                                                - kappa(t0 + sign * u) * z[1]],
                                  0, [jet[0], sign * jet[1], jet[2]])
            for t in side:
                z = solve(abs(mpmath.mpf(t) - t0))
                out[t] = [z[0], sign * z[1], z[2]]
    return [out.get(t, jet) for t in ts]


def _graph_area(coeffs, x0, x, apex):
    """1/2 integral_x0^x ((X - px) f'(X) - (f(X) - py)) dX in Fractions,
    the area swept along the graph of f from x0 seen from the apex (px,
    py), (x0, f(x0)) when apex is None."""
    cs = [Fraction(c) for c in coeffs]
    f = lambda t: sum(c * t ** i for i, c in enumerate(cs))
    px, py = (x0, f(x0)) if apex is None else (Fraction(apex[0]), Fraction(apex[1]))
    # the integrand's coefficients: X f' - px f' - f + py
    integrand = [-c for c in cs] + [Fraction(0)]
    integrand[0] += py
    for i in range(1, len(cs)):
        integrand[i] += i * cs[i]
        integrand[i - 1] -= px * i * cs[i]
    prim = lambda t: sum(c * t ** (i + 1) / (i + 1) for i, c in enumerate(integrand))
    return (prim(x) - prim(x0)) / 2


class TestAreaODE:
    """`area` takes A from the area ODE A''' + kappa A' = 1/2 on its sample
    grid, and a polynomial graph's A from its exact area in x, against the
    swept-area quadrature and against exact references."""

    @pytest.mark.parametrize("mode", AREA_MODES)
    @pytest.mark.parametrize("name", list(AREA_SPECS))
    def test_matches_the_quadrature(self, name, mode, tmp_path, capsys):
        curve, base, apex, ss, got = _area_table(AREA_SPECS[name][0], mode, tmp_path, capsys)
        assert base not in ss or got[np.searchsorted(ss, base)] == 0.0  # A(base) is exact
        want = swept_area(curve, base, apex)(ss)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("mode", ["lo", "interior"])
    @pytest.mark.parametrize("name", [n for n, (_, k) in AREA_SPECS.items() if k is not None])
    def test_constant_curvature_is_abar(self, name, mode, tmp_path, capsys):
        spec, k = AREA_SPECS[name]
        if k == "conic":
            k = parse_curve_spec(spec).conic.curvature()
        _, base, _, ss, got = _area_table(spec, mode, tmp_path, capsys)
        # A(s) = abar(k, s - base), an odd function of s - base
        want = np.array([math.copysign(kfuncs.abar(k, abs(s - base)), s - base) for s in ss])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("mode", AREA_MODES)
    def test_graph_is_its_exact_area(self, mode, tmp_path, capsys):
        spec = AREA_SPECS["quartic"][0]
        curve, base, apex, ss, got = _area_table(spec, mode, tmp_path, capsys)
        xs = curve.point(ss)[:, 0].tolist()
        x0 = Fraction(float(curve.point(base)[0]))
        want = np.array([float(_graph_area(spec["coeffs"], x0, Fraction(x), apex)) for x in xs])
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize("mode", AREA_MODES)
    def test_ivp_matches_mpmath(self, mode, tmp_path, capsys):
        curve, base, apex, ss, got = _area_table(AREA_SPECS["ivp"][0], mode, tmp_path, capsys,
                                                 samples=13)
        kappa = lambda s: -1 + s / 2  # the spec's curvature, in mpmath
        with mpmath.workdps(25):
            jet = [0, 0, 0]
            if apex is not None:  # the curve's jet at the base, from its frame at s = 0
                x, y = (_mp_jets(kappa, 0, j, [base], 0)[0] for j in ([0, 1, 0], [0, 0, 1]))
                jet = [0, (x[0] * y[1] - y[0] * x[1]) / 2, (x[0] * y[2] - y[0] * x[2]) / 2]
            want = np.array([float(j[0]) for j in _mp_jets(kappa, mpmath.mpf(base), jet,
                                                           ss.tolist(), mpmath.mpf(1) / 2)])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("spec", [
        {"type": "constant-curvature", "k": "-25", "domain": ["0", "4"]},
        {"type": "curvature-ivp", "kappa_coeffs": ["-25"], "domain": ["0", "4"]},
    ], ids=["constant-curvature", "curvature-ivp"])
    def test_stiff_corner_is_abar(self, spec, tmp_path, capsys):
        # q = sqrt(-k) L = 20: the swept area was off by 5.8e-9 relative
        _, base, _, ss, got = _area_table(spec, "lo", tmp_path, capsys)
        want = np.array([kfuncs.abar(-25.0, s) for s in ss])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("command", ["area", "curvature", "arclength"])
    def test_ivp_commands_integrate_the_curve_only_for_the_apex(self, command, tmp_path,
                                                               capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated the curve")

        monkeypatch.setattr(odekernel.StepReader, "__init__", refuse)
        path = write_json(tmp_path / "ivp.json", AREA_SPECS["ivp"][0])
        out = tmp_path / "table.csv"
        assert main([command, path, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 66
        if command == "area":
            with pytest.raises(AssertionError, match="integrated the curve"):
                main([command, path, "--apex", "0", "0"])

    def test_samples_past_one_solve_budget(self, tmp_path, capsys, monkeypatch):
        # blocks of at most MAX_RHS_EVALS // 4 grid points, each within the budget
        monkeypatch.setattr(odekernel, "MAX_RHS_EVALS", 400)
        _, _, _, ss, got = _area_table(AREA_SPECS["ivp"][0], "interior", tmp_path, capsys,
                                       samples=2001)
        monkeypatch.undo()
        want = curve_mod.area_function(load_curve_spec(write_json(
            tmp_path / "again.json", AREA_SPECS["ivp"][0])).curve,
            ss[0] + 0.37 * (ss[-1] - ss[0]))(ss)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


FLAT_QUARTIC = {"type": "graph", "coeffs": ["0", "0", "1e-9", "0", "1"], "domain": ["-3", "3"]}


class TestGraphArea:
    """A polynomial graph's `area` is its exact area in x, at the x(s) of
    the samples read from the curve: it solves no ODE and reads no
    curvature."""

    def test_flat_bottomed_quartic_is_its_exact_area(self, tmp_path, capsys):
        # the quadrature printed 388.67162663176373: its panels never converged
        assert main(["area", write_json(tmp_path / "flat.json", FLAT_QUARTIC)]) == 0
        want = _graph_area(FLAT_QUARTIC["coeffs"], Fraction(-3), Fraction(3), None)
        assert want == Fraction("388.800000036")
        assert abs(float(capsys.readouterr().out) - want) <= 1e-12 * want

    def test_flat_bottomed_quartic_table_is_its_exact_area(self, tmp_path, capsys):
        # the quadrature printed 388.7895778517959 with --samples 65
        curve, base, _, ss, got = _area_table(FLAT_QUARTIC, "lo", tmp_path, capsys, samples=65)
        x0 = Fraction(float(curve.point(base)[0]))
        want = [_graph_area(FLAT_QUARTIC["coeffs"], x0, Fraction(x), None)
                for x in curve.point(ss)[:, 0].tolist()]
        assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got.tolist(), want))
        assert abs(got[-1] - Fraction("388.800000036")) <= 1e-12 * got[-1]

    @pytest.mark.parametrize("mode", AREA_MODES)
    def test_solves_no_ode_and_reads_no_curvature(self, mode, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("read the area ODE's inputs")

        build = specfiles.graph_curve
        monkeypatch.setattr(odekernel, "step_propagators", refuse)
        monkeypatch.setattr(specfiles, "graph_curve",
                            lambda *a: dataclasses.replace(build(*a), curvature=refuse))
        _area_table(AREA_SPECS["quartic"][0], mode, tmp_path, capsys)

    def test_blocks_of_reads_give_the_same_table(self, tmp_path, capsys, monkeypatch):
        tables = []
        for block in (cli.AREA_BLOCK, 3):
            monkeypatch.setattr(cli, "AREA_BLOCK", block)
            got = _area_table(AREA_SPECS["quartic"][0], "interior-apex", tmp_path, capsys)[4]
            tables.append(got.tobytes())
        assert tables[0] == tables[1]

    def test_base_outside_the_domain_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "quart.json", AREA_SPECS["quartic"][0])
        assert main(["area", path, "--base", "5"]) == 2
        assert "outside curve domain" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", [["-1", "30"], ["-3", "30"]],
                             ids=["value", "coefficient-and-value"])
    def test_area_past_the_float_range_exits_3(self, domain, tmp_path, capsys):
        # on [-3, 30] the area's u coefficient, 3.4e308, has no float either
        path = write_json(tmp_path / "quart.json", dict(AREA_SPECS["quartic"][0], domain=domain))
        assert main(["area", path, "--apex", "1e308", "1e308"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "float range" in captured.err

    @pytest.mark.parametrize("domain", [["-1", "1.3"], ["-3", "-2.9"]],
                             ids=["large-terms", "coefficient-past-the-range"])
    def test_finite_area_from_a_far_apex_prints(self, domain, tmp_path, capsys):
        # the integrand's terms reach 2.9e308 on [-1, 1.3], and on
        # [-3, -2.9] the u coefficient is 3.4e308; the areas are finite
        spec = dict(AREA_SPECS["quartic"][0], domain=domain)
        path = write_json(tmp_path / "quart.json", spec)
        assert main(["area", path, "--apex", "1e308", "1e308"]) == 0
        got = float(capsys.readouterr().out)
        curve = load_curve_spec(path).curve
        x0, x1 = (Fraction(float(v)) for v in curve.point(np.array([curve.domain.lo, curve.domain.hi]))[:, 0])
        want = _graph_area(spec["coeffs"], x0, x1, (1e308, 1e308))
        assert abs(got - want) <= 1e-12 * abs(want)


class TestSubcommandOptions:
    """Each subcommand takes only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["bounds", "--k0", "-1", "--k1", "0", "--L", "2", "--format", "csv"],
        ["kernel", "--k", "-1", "--tol", "1e-3"],
        ["figures", "fig1", "--seed", "3"],
        ["examples", "circle", "--samples", "5"],
    ])
    def test_unread_option_is_parse_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_count_seed_is_parse_error(self, parabola_spec, z2_spec, capsys):
        assert main(["count", parabola_spec, z2_spec, "--seed", "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_option_count(self):
        subparsers = cli._build_parser()._subparsers._group_actions[0].choices
        options = {name: sorted(o for a in sp._actions for o in a.option_strings
                                if o.startswith("--") and o != "--help")
                   for name, sp in subparsers.items()}
        assert sum(map(len, options.values())) == 42
        assert options["verify"] == sorted(["--k0", "--k1", "--L", "--trials", "--constant",
                                            "--tol", "--format", "--seed", "--out"])
        assert options["figures"] == ["--out"]

    @pytest.mark.parametrize("grid", ["0", "1", "-3"])
    def test_kernel_grid_below_two_is_parse_error(self, capsys, grid):
        assert main(["kernel", "--k", "-1", f"--grid={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid" in captured.err


class TestProximityWindow:
    def test_window_applies_to_proximity_points(self, tmp_path, z2_spec, capsys):
        # the flat reconstruction (s, s^2/2) on [-2, 2]
        spec = write_json(tmp_path / "ivp.json", {
            "type": "curvature-ivp", "kappa_coeffs": ["0"], "domain": ["-2", "2"]})
        main(["count", spec, z2_spec, "--tol", "1e-6"])
        out = capsys.readouterr().out
        everything = json.loads(out[:out.rindex("}") + 1])
        assert [p[:2] for p in everything["points"]] == [[-2, 2], [0, 0], [2, 2]]
        main(["count", spec, z2_spec, "--xmin", "1", "--tol", "1e-6"])
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        assert [p[:2] for p in payload["points"]] == [[2, 2]]
        assert payload["count"] == 1 and payload["exact_membership"] is False

    def test_window_applies_to_exact_graph_points(self, tmp_path, z2_spec, capsys):
        spec = write_json(tmp_path / "g.json", {
            "type": "graph", "coeffs": ["0", "0", "1", "0.125"], "domain": ["-2", "2"]})
        main(["count", spec, z2_spec])
        out = capsys.readouterr().out
        everything = json.loads(out[:out.rindex("}") + 1])
        assert [p[:2] for p in everything["points"]] == [[-2, 3], [0, 0], [2, 5]]
        main(["count", spec, z2_spec, "--xmin", "1"])
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        assert [p[:2] for p in payload["points"]] == [[2, 5]]
        assert payload["count"] == 1 and payload["exact_membership"] is True

    def test_window_edges_are_exact(self, tmp_path, z2_spec, capsys):
        spec = write_json(tmp_path / "g.json", {
            "type": "graph", "coeffs": ["0", "0", "1", "0.125"], "domain": ["-2", "2"]})
        main(["count", spec, z2_spec, "--xmin", "-2", "--xmax", "1/2", "--ymin", "0",
              "--tol", "1e-6"])
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        assert [p[:2] for p in payload["points"]] == [[-2, 3], [0, 0]]

    @pytest.mark.parametrize("bound", ["1/0", "1e1000000", "x"])
    def test_bad_window_bound_is_parse_error(self, parabola_spec, z2_spec, capsys, bound):
        start = time.perf_counter()
        assert main(["count", parabola_spec, z2_spec, f"--xmin={bound}"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid exact_number value" in captured.err


class TestCSVBlocks:
    """`area`, `curvature` and `arclength` write their --out table
    CSV_BLOCK rows at a time: the bytes do not depend on the block."""

    @pytest.mark.parametrize("command", ["area", "curvature", "arclength"])
    @pytest.mark.parametrize("spec", [
        {"type": "parabola", "coeffs": ["0", "0", "0.5"], "domain": ["0", "5"]},
        {"type": "graph", "coeffs": ["0", "0", "1", "0.05"], "domain": ["-1", "1.3"]},
        {"type": "curvature-ivp", "kappa_coeffs": ["-1", "0.5"], "domain": ["-1", "2"]},
    ], ids=["parabola", "cubic-graph", "curvature-ivp"])
    def test_blocks_give_the_same_bytes(self, command, spec, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "spec.json", spec)
        tables = []
        for block in (cli.CSV_BLOCK, 3):
            monkeypatch.setattr(cli, "CSV_BLOCK", block)
            out = tmp_path / f"{command}{block}.csv"
            assert main([command, path, "--out", str(out), "--samples", "50"]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        assert len(tables[0].splitlines()) == 51
        first, second = capsys.readouterr().out.splitlines()
        assert first == second
