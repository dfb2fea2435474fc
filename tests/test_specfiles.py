import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecurves import curve as curve_mod
from affinecurves.curve import ConvexityError, OrientationError
from affinecurves.kfuncs import DomainError
from affinecurves.lattice import Lattice, PolyGraph
from affinecurves.odekernel import SolverError
from affinecurves.specfiles import (
    CURVE_KINDS,
    CurveSpec,
    SpecError,
    parse_curve_spec,
    parse_lattice_spec,
)

from reference import affine_curvature_at, unit_speed_defect


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
        assert unit_speed_defect(spec.curve, 50) <= 1e-8

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

    @pytest.mark.parametrize("coeffs", [["1", "0", "1", "0", "0", "-1"],
                                        ["1", "-1", "-1", "1", "1", "-1"]],
                             ids=["zero-coefficient", "all-terms"])
    def test_conic_seed_whose_scale_overflows(self, coeffs):
        # x^2 overflows, so the residual's scale is inf or nan: refused,
        # not read as a residual within it
        from affinecurves.kfuncs import DomainError
        with pytest.raises(DomainError):
            parse_curve_spec({"type": "conic", "coeffs": coeffs,
                              "seed": ["1e160", "1e160"], "domain": ["0", "1"]})

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


# every kind of spec whose membership is exact, and one that is not
EXACT_DOCS = [
    {"type": "parabola", "coeffs": ["1", "-0.5", "0.5"], "domain": ["-2", "3"]},
    {"type": "graph", "coeffs": ["0.25", "1.5", "0.125"], "domain": ["-4", "1"]},
    {"type": "conic", "coeffs": ["1", "-1", "-1", "0", "0", "-1"],
     "seed": ["1", "0"], "domain": ["0", "2"]},
    {"type": "constant-curvature", "k": "-1", "domain": ["0", "2"]},
]
CUBIC_DOC = {"type": "graph", "coeffs": ["0", "0", "1", "0.05"], "domain": ["-1", "1"]}


class TestQuadraticSpecs:
    """`parabola` and three-coefficient `graph` specs are the curvature-0
    conic, built in closed form like every other exact spec."""

    @pytest.mark.parametrize("doc", EXACT_DOCS)
    def test_every_exact_kind_has_an_inverse(self, doc):
        spec = parse_curve_spec(doc)
        assert spec.exact
        ss = np.linspace(spec.curve.domain.lo, spec.curve.domain.hi, 9)
        np.testing.assert_allclose(spec.curve.inverse(spec.curve.point(ss)), ss,
                                   rtol=1e-13, atol=1e-13)

    def test_cubic_graph_has_none(self):
        # a curvature-ivp spec has no exact conic and no inverse
        spec = parse_curve_spec({"type": "curvature-ivp", "kappa_coeffs": ["0.5", "-0.2"],
                                 "domain": ["-1", "1"]})
        assert not spec.exact
        assert spec.graph is None
        assert spec.curve.inverse is None

    def test_cubic_graph_keeps_its_exact_polynomial(self):
        spec = parse_curve_spec(CUBIC_DOC)
        assert not spec.exact  # no conic: its exact route is the vertical lattice lines
        assert spec.graph == PolyGraph((Fraction(0), Fraction(0), Fraction(1), Fraction(1, 20)),
                                       Fraction(-1), Fraction(1))
        ss = np.linspace(spec.curve.domain.lo, spec.curve.domain.hi, 9)
        np.testing.assert_allclose(spec.curve.inverse(spec.curve.point(ss)), ss,
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("field,value", [("coeffs", ["0", "0", "1", "1e-401"]),
                                             ("domain", ["-1", "1e-401"])])
    def test_graph_exponent_past_the_limit_is_refused(self, field, value):
        with pytest.raises(SpecError, match="exceeds 400"):
            parse_curve_spec({**CUBIC_DOC, field: value})

    def test_quadratic_specs_solve_no_ode(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reparameterised by the t(s) solve")

        monkeypatch.setattr(curve_mod, "reparam_unit_speed", refuse)
        for doc in EXACT_DOCS[:2]:
            parse_curve_spec(doc)
        with pytest.raises(AssertionError, match="t\\(s\\) solve"):
            parse_curve_spec(CUBIC_DOC)  # the patch sees graph_curve's call

    @pytest.mark.parametrize("kind", ["parabola", "graph"])
    def test_the_graph_of_the_polynomial(self, kind):
        spec = parse_curve_spec({"type": kind, "coeffs": ["1", "-0.5", "0.5"],
                                 "domain": ["-2", "3"]})
        curve = spec.curve
        assert spec.curve.domain.lo == 0.0
        assert spec.curve.domain.hi == 5.0  # (x1 - x0) (2 c2)^(1/3)
        ss = np.linspace(0.0, 5.0, 11)
        x, y = curve.point(ss).T
        np.testing.assert_allclose(x, ss - 2.0, atol=1e-15)
        np.testing.assert_allclose(y, 1.0 - 0.5 * x + 0.5 * x * x, rtol=1e-15, atol=1e-15)
        assert unit_speed_defect(curve, 50) <= 1e-15
        assert curve.curvature(ss).tolist() == [0.0] * 11

    @pytest.mark.parametrize("kind", ["parabola", "graph"])
    def test_nonpositive_quadratic_coefficient_is_not_convex(self, kind):
        for c2 in ("0", "-1"):
            with pytest.raises(ConvexityError):
                parse_curve_spec({"type": kind, "coeffs": ["0", "0", c2], "domain": ["0", "1"]})

    def test_subnormal_quadratic_coefficient_gives_a_finite_curve(self):
        # a = (2 c2)^(-1/3) is about 4.7e107 at c2 = 5e-324
        curve = parse_curve_spec({"type": "parabola", "coeffs": ["0", "0", "5e-324"],
                                  "domain": ["-1", "1"]}).curve
        ss = np.linspace(curve.domain.lo, curve.domain.hi, 9)
        assert 0.0 < curve.domain.hi < 1e-100
        for values in (curve.point(ss), *curve.derivatives(ss), curve.inverse(curve.point(ss))):
            assert np.all(np.isfinite(values))
        np.testing.assert_allclose(curve.point(ss)[:, 0], np.linspace(-1.0, 1.0, 9), atol=1e-15)
        assert unit_speed_defect(curve, 9) <= 1e-12


class TestFractionStrings:
    """`p/q` strings in `graph` and `parabola` coeffs and domain, and in a
    `constant-curvature` k, parse as their correctly rounded floats, and
    the exact routes keep their Fractions; decimal strings parse as
    before."""

    @pytest.mark.parametrize("kind, coeffs, domain", [
        ("graph", ["0", "0", "1/2", "1/32"], ["-1", "3/2"]),
        ("parabola", ["1/3", "-1/7", "1/2"], ["-2/3", "5/2"]),
        ("graph", ["-5/4", "0.1", "3/8"], ["1/3", "2"]),
    ])
    def test_graph_coefficients_and_domain(self, kind, coeffs, domain):
        spec = parse_curve_spec({"type": kind, "coeffs": coeffs, "domain": domain})
        rounded = parse_curve_spec({"type": kind, "domain": [repr(float(Fraction(v))) for v in domain],
                                    "coeffs": [repr(float(Fraction(v))) for v in coeffs]})
        ss = np.linspace(spec.curve.domain.lo, spec.curve.domain.hi, 9)
        assert spec.curve.domain == rounded.curve.domain
        assert spec.curve.point(ss).tolist() == rounded.curve.point(ss).tolist()
        exact = tuple(Fraction(v) for v in coeffs)
        if len(coeffs) > 3:
            assert spec.graph == PolyGraph(exact, *(Fraction(v) for v in domain))
        else:
            assert (spec.conic.a, spec.conic.d, spec.conic.f) == (exact[2], exact[1], exact[0])

    def test_constant_curvature_k(self):
        spec = parse_curve_spec({"type": "constant-curvature", "k": "-1/3",
                                 "domain": ["0", "1"]})
        assert spec.curve.curvature(0.5) == float(Fraction(-1, 3))
        assert spec.conic.c == Fraction(-1, 3)

    def test_decimal_strings_keep_their_floats(self):
        spec = parse_curve_spec({"type": "parabola", "coeffs": ["0", "0.1", "7e-1"],
                                 "domain": ["-0.3", "0.9"]})
        assert spec.curve.point(0.0)[0] == -0.3  # the frame's origin is at x = lo
        assert (spec.conic.a, spec.conic.d) == (Fraction(7, 10), Fraction(1, 10))

    @pytest.mark.parametrize("value", ["1/0", "1/x", "1//2"])
    def test_bad_fraction_is_a_spec_error(self, value):
        with pytest.raises(SpecError, match="bad number"):
            parse_curve_spec({"type": "parabola", "coeffs": ["0", "0", "1"],
                              "domain": ["0", value]})


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

    def test_domain_length_overflow(self):
        # hi - lo is inf: the closed-form parabola would be infinitely long
        with pytest.raises(SpecError, match="finite length"):
            parse_curve_spec({"type": "graph", "coeffs": ["0", "0", "1e-300"],
                              "domain": ["-1e308", "1e308"]})


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


# spec fields drawn from short numeric strings, most of them well formed,
# and from arbitrary JSON values
_NUMBER = st.one_of(
    st.integers(-4, 4).map(str),
    st.fractions(min_value=-4, max_value=4, max_denominator=16).map(str),
    st.floats(-4.0, 4.0, allow_nan=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "", "x", "1/0", "0x10"]),
)
_JSON = st.recursive(st.none() | st.booleans() | st.integers(-9, 9) | st.text(max_size=4)
                     | st.floats(allow_nan=True, allow_infinity=True),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                     max_leaves=6)
_FIELD = st.one_of(st.lists(_NUMBER, min_size=1, max_size=7), _NUMBER, _JSON)


_FIELDS = {"parabola": ("coeffs", "domain"), "graph": ("coeffs", "domain"),
           "conic": ("coeffs", "seed", "domain"), "constant-curvature": ("k", "domain"),
           "curvature-ivp": ("kappa_coeffs", "domain")}
_FRAME = ("origin", "tangent", "normal")


@st.composite
def _curve_docs(draw):
    """Mostly documents of a known type with its fields, each field a list
    of numeric strings or, less often, any JSON value."""
    if not draw(st.integers(0, 9)):
        return draw(_JSON)
    kind = draw(st.sampled_from(CURVE_KINDS))
    keys = list(_FIELDS[kind]) + (list(_FRAME) if draw(st.booleans()) else [])
    keys = [key for key in keys if draw(st.integers(0, 19))]  # now and then one is missing
    doc = {key: draw(_FIELD) for key in keys}
    doc["type"] = kind if draw(st.integers(0, 19)) else draw(_JSON)
    if draw(st.booleans()):  # a domain most parsers accept
        lo = draw(st.integers(-3, 0))
        doc["domain"] = [str(lo), str(lo + draw(st.integers(1, 3)))]
    return doc


class TestSpecFuzz:
    """Any document parses to a spec or fails with a typed error; a
    parsed graph reads arrays bit for bit as stacked scalar reads."""

    TYPED = (SpecError, DomainError, ConvexityError, OrientationError, SolverError)

    @settings(max_examples=150, deadline=None)
    @given(_curve_docs())
    def test_curve_spec(self, doc):
        try:
            spec = parse_curve_spec(doc)
        except self.TYPED:
            return
        assert isinstance(spec, CurveSpec)
        if spec.kind in ("parabola", "graph"):
            curve = spec.curve
            ss = np.linspace(curve.domain.lo, curve.domain.hi, 7)
            assert curve.point(ss).tobytes() == np.array([curve.point(s) for s in ss]).tobytes()
            for got, want in zip(curve.derivatives(ss),
                                 zip(*(curve.derivatives(float(s)) for s in ss))):
                assert got.tobytes() == np.array(want).tobytes()
            assert curve.curvature(ss).tobytes() == np.array(
                [curve.curvature(float(s)) for s in ss]).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.sampled_from(("v0", "v1", "v2", "x")),
                           st.lists(_NUMBER, min_size=1, max_size=3) | _JSON, max_size=4)
           | _JSON)
    def test_lattice_spec(self, doc):
        try:
            lat = parse_lattice_spec(doc)
        except SpecError:
            return
        assert isinstance(lat, Lattice)


class TestExponents:
    """A decimal exponent past binary64's range is refused before `Fraction`
    builds its power of ten."""

    @pytest.mark.parametrize("value", ["1e1000000", "1E-1000000", "2.5e401", "1e" + "9" * 50])
    def test_huge_exponent_is_spec_error(self, value):
        start = time.perf_counter()
        with pytest.raises(SpecError, match="exponent"):
            parse_lattice_spec({"v0": ["0", "0"], "v1": [value, "0"], "v2": ["0", "1"]})
        with pytest.raises(SpecError, match="exponent"):
            parse_curve_spec({"type": "conic", "coeffs": ["1", "0", value, "0", "0", "-1"],
                              "seed": ["1", "0"], "domain": ["0", "1"]})
        assert time.perf_counter() - start < 1.0

    def test_count_exits_2_within_a_second(self, tmp_path, capsys):
        from affinecurves.cli import main
        curve = tmp_path / "c.json"
        curve.write_text(json.dumps({"type": "parabola", "coeffs": ["0", "0", "1"],
                                     "domain": ["0", "2"]}))
        lat = tmp_path / "lat.json"
        lat.write_text(json.dumps({"v0": ["0", "0"], "v1": ["1e1000000", "0"], "v2": ["0", "1"]}))
        start = time.perf_counter()
        assert main(["count", str(curve), str(lat)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exponent" in captured.err

    @pytest.mark.parametrize("value,expected", [("1e-12", Fraction(1, 10**12)),
                                                ("5/3", Fraction(5, 3)),
                                                ("1e400", Fraction(10**400)),
                                                ("-7.5E+002", Fraction(-750))])
    def test_ordinary_values_parse(self, value, expected):
        lat = parse_lattice_spec({"v0": ["0", "0"], "v1": [value, "0"], "v2": ["0", "1"]})
        assert lat.v1[0] == expected
