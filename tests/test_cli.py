import dataclasses
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from affinecurves.cli import main
from affinecurves.curve import AREA_MAX_DEPTH, AffineCurve, AreaFunction
from affinecurves.lattice import (
    ConicArc,
    Lattice,
    enumerate_near_curve,
    enumerate_on_arc,
    on_curve,
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

ALPHA = 2.0 ** (-1.0 / 3.0) * 5.0 ** (1.0 / 6.0)


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

    def test_reconstruction_failure_is_domain_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "ivp.json", {
            "type": "curvature-ivp", "kappa_coeffs": ["-1e30"],
            "domain": ["0", "1"]})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["area", spec]) == 3
        assert "domain error" in capsys.readouterr().err


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

    def test_thm34_hypothesis_gate(self, capsys):
        cap = (math.pi / 2.0) ** 2
        assert main(["verify", "thm3.4", "--k0", "0", "--k1",
                     repr(cap * 2), "--L", "2", "--trials", "3"]) == 4

    def test_unknown_theorem(self):
        assert main(["verify", "thm9.9"]) == 2

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_thm41_failed_sweep_quadrature_is_a_hypothesis(self, capsys):
        # the sweep's error estimate (about 1e47) swamps its stiff area
        assert main(["verify", "thm4.1", "--k0=-400", "--k1=-399", "--L", "4",
                     "--trials", "1"]) == 4
        out = capsys.readouterr().out
        (report,) = json.loads(out[out.index("{"):])["reports"]
        assert report["verdict"] == "hypotheses-failed"
        assert [h["ok"] for h in report["hypotheses"]
                if h["name"] == "swept-area-quadrature"] == [False]

    def test_thm41_stiff_corner_holds(self, capsys):
        assert main(["verify", "thm4.1", "--k0=-25", "--k1=-23", "--L", "4",
                     "--trials", "3"]) == 0
        out = capsys.readouterr().out
        reports = json.loads(out[out.index("{"):])["reports"]
        assert [r["verdict"] for r in reports] == ["holds"] * 3
        for r in reports:
            assert [h["ok"] for h in r["hypotheses"]
                    if h["name"] == "swept-area-quadrature"] == [True]

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

    def test_inexact_warning_names_tolerance(self, tmp_path, z2_spec, capsys):
        spec = write_json(tmp_path / "g.json", {
            "type": "graph", "coeffs": ["0", "0", "1", "0.05"],
            "domain": ["-1", "1"]})
        for extra, tol in (([], "1e-09"), (["--tol", "1e-6"], "1e-06")):
            main(["count", spec, z2_spec, "--theorem", "low_aff_bd", *extra])
            out = capsys.readouterr().out
            warning = json.loads(out[:out.rindex("}") + 1])["warning"]
            assert f"using {tol} proximity membership" in warning


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

    def test_on_curve_readme_graph_same_as_scalar_sampling(self):
        spec = parse_curve_spec({"type": "graph", "coeffs": ["0", "0", "1", "0.05"],
                                 "domain": ["-1", "1"]})
        self._assert_same_points(spec.curve, Lattice.standard(), None, 1e-9)

    @staticmethod
    def _assert_same_points(curve, lat, coords, tol):
        def stacked(s):
            if isinstance(s, np.ndarray):
                return np.array([curve.point(u) for u in s])
            return curve.position(s)

        got = on_curve(curve, lat, coords, tol)
        ref = on_curve(dataclasses.replace(curve, position=stacked), lat, coords, tol)
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


class TestAreaTable:
    """`area` computes its printed value and every `--out` row in one
    pass of the swept-area quadrature."""

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

    def test_one_pass_reads_the_curve_in_arrays(self, graph_spec, tmp_path, capsys,
                                                monkeypatch):
        reads = []
        point = AffineCurve.point

        def counted(self, s):
            reads.append(s.size if isinstance(s, np.ndarray) else "scalar")
            return point(self, s)

        monkeypatch.setattr(AffineCurve, "point", counted)
        out = tmp_path / "area.csv"
        assert main(["area", graph_spec, "--apex", "0", "0", "--out", str(out),
                     "--samples", "65"]) == 0
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

    def test_thm41_lost_sweep_has_bounded_work(self, capsys, monkeypatch):
        nodes = []
        prime = AreaFunction.prime

        def counted(self, s):
            nodes.append(np.size(s))
            return prime(self, s)

        monkeypatch.setattr(AreaFunction, "prime", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "thm4.1", "--k0=-400", "--k1=-399", "--L", "4",
                         "--trials", "1"]) == 4
        assert 0 < sum(nodes) <= 21 * (2 ** (AREA_MAX_DEPTH + 1) - 1)  # one interval
