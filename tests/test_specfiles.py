import pytest

from affinecurves.curve import ConvexityError, affine_curvature_at
from affinecurves.specfiles import SpecError, parse_curve_spec, parse_lattice_spec


class TestCurveSpecs:
    def test_parabola(self):
        spec = parse_curve_spec({"type": "parabola",
                                 "coeffs": ["0", "0", "0.5"],
                                 "domain": ["0", "5"]})
        assert spec.exact
        assert spec.curve.domain.hi == pytest.approx(5.0, abs=1e-9)
        assert spec.conic(2, 2) == 0  # y = x^2/2 holds at (2, 2)

    def test_parabola_decimal_rounding(self):
        # decimal strings parse by round-to-nearest into binary64
        spec = parse_curve_spec({"type": "parabola",
                                 "coeffs": ["0", "0", "0.1"],
                                 "domain": ["0", "1"]})
        assert spec.curve is not None
        assert float(spec.conic.a) == pytest.approx(0.1)
        assert spec.conic.a.denominator == 10  # exact decimal fraction

    def test_graph_cubic_not_exact(self):
        spec = parse_curve_spec({"type": "graph",
                                 "coeffs": ["0", "0", "1", "0.05"],
                                 "domain": ["-1", "1"]})
        assert not spec.exact
        assert spec.curve.unit_speed_defect(50) <= 1e-8

    def test_graph_concave_rejected(self):
        with pytest.raises(ConvexityError):
            parse_curve_spec({"type": "graph",
                              "coeffs": ["0", "0", "1", "-3"],
                              "domain": ["0", "1"]})

    def test_conic_seed_off_curve(self):
        from affinecurves.kfuncs import DomainError
        with pytest.raises(DomainError):
            parse_curve_spec({"type": "conic",
                              "coeffs": ["1", "0", "1", "0", "0", "-1"],
                              "seed": ["2", "0"], "domain": ["0", "1"]})

    def test_constant_curvature_with_frame(self):
        spec = parse_curve_spec({
            "type": "constant-curvature", "k": "-1",
            "domain": ["-1", "1"],
            "origin": ["1", "2"], "tangent": ["1", "0"], "normal": ["0.5", "1"]})
        assert spec.curve.point(0.0) == pytest.approx((1.0, 2.0))
        assert not spec.exact  # non-identity frame loses the exact conic

    def test_constant_curvature_exact_conic(self):
        spec = parse_curve_spec({"type": "constant-curvature", "k": "-1",
                                 "domain": ["0", "2"]})
        assert spec.exact
        # x^2 + k y^2 - 2y = 0 through the origin
        assert spec.conic(0, 0) == 0
        x, y = spec.curve.point(1.0)
        assert spec.conic.evaluate_float(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_curvature_ivp(self):
        spec = parse_curve_spec({"type": "curvature-ivp",
                                 "kappa_coeffs": ["0", "1"],
                                 "domain": ["0", "1.5"]})
        assert affine_curvature_at(spec.curve, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_curvature_ivp_needs_anchor(self):
        with pytest.raises(SpecError):
            parse_curve_spec({"type": "curvature-ivp",
                              "kappa_coeffs": ["0"], "domain": ["1", "2"]})

    def test_missing_field(self):
        with pytest.raises(SpecError):
            parse_curve_spec({"type": "parabola", "coeffs": ["0", "0", "1"]})

    def test_bad_domain_order(self):
        with pytest.raises(SpecError):
            parse_curve_spec({"type": "parabola", "coeffs": ["0", "0", "1"],
                              "domain": ["2", "1"]})


class TestNonFinite:
    @pytest.mark.parametrize("spec", [
        {"type": "constant-curvature", "k": "nan", "domain": ["0", "1"]},
        {"type": "constant-curvature", "k": "-inf", "domain": ["0", "1"]},
        {"type": "graph", "coeffs": ["0", "0", "1"], "domain": ["-1", "inf"]},
        {"type": "graph", "coeffs": ["0", "nan", "1"], "domain": ["-1", "1"]},
        {"type": "curvature-ivp", "kappa_coeffs": ["inf"], "domain": ["0", "1"]},
        {"type": "conic", "coeffs": ["1", "0", "1", "0", "0", "-1"],
         "seed": ["nan", "0"], "domain": ["0", "1"]},
        {"type": "constant-curvature", "k": "0", "domain": ["0", "1"],
         "origin": ["0", "nan"], "tangent": ["1", "0"], "normal": ["0", "1"]},
    ])
    def test_rejected(self, spec):
        with pytest.raises(SpecError, match="non-finite"):
            parse_curve_spec(spec)


class TestLatticeSpecs:
    def test_fraction_strings(self):
        lat = parse_lattice_spec({"v0": ["0", "0"], "v1": ["1/3", "0"],
                                  "v2": ["0", "3"]})
        assert float(lat.cell_area) == pytest.approx(1.0)

    def test_dependent_generators(self):
        with pytest.raises(SpecError):
            parse_lattice_spec({"v0": ["0", "0"], "v1": ["1", "1"],
                                "v2": ["2", "2"]})

    def test_bad_component(self):
        with pytest.raises(SpecError):
            parse_lattice_spec({"v0": ["0", "0"], "v1": ["x", "0"],
                                "v2": ["0", "1"]})
