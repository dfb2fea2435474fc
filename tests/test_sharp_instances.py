import math
from fractions import Fraction

import numpy as np
import pytest

from affinecurves.conics import Conic
from affinecurves.curve import affine_curvature_at
from affinecurves.kfuncs import hk
from affinecurves.lattice import Lattice, equal_spaced_orbit, m_of_curve
from affinecurves.sharp_instances import (
    ALPHA,
    ZXZ_SPACING,
    circle_instance,
    fibonacci,
    hyperbola_general_instance,
    hyperbola_zxz_instance,
    is_classified_angle,
    parabola_instance,
    rotation_trace,
)


def check_instance(inst):
    """Shared verification: enumeration equals expectation exactly, the
    certificate reproduces the attained bound, and the curve is sound."""
    pts = inst.enumerate()
    assert pts.coords == list(inst.expected_coords)
    assert all(b > a for a, b in zip(pts.params, pts.params[1:]))
    cert = inst.certificate()
    assert cert.conclusive, cert.to_dict()
    assert cert.bound == inst.expected_bound == len(pts)
    assert inst.curve.unit_speed_defect(100) <= 1e-8
    ks = [affine_curvature_at(inst.curve, s)
          for s in (inst.curve.domain.lo, inst.curve.domain.hi)]
    for k in ks:
        assert k == pytest.approx(inst.k0, abs=1e-8)
    return pts, cert


class TestParabola:
    def test_standard_m1(self):
        inst = parabola_instance(m0=1)
        pts, _ = check_instance(inst)
        assert pts.coords == [(0, 0), (1, 0), (2, 1), (3, 3)]
        assert inst.spacing == pytest.approx(1.0)

    @pytest.mark.parametrize("m0", range(1, 6))
    def test_sharp_family(self, m0):
        inst = parabola_instance(m0=m0)
        pts, cert = check_instance(inst)
        assert cert.bound == 2 * m0 + 2

    @pytest.mark.parametrize("m0", range(1, 5))
    def test_rigid_family(self, m0):
        inst = parabola_instance(m0=m0, rigid=True)
        pts, cert = check_instance(inst)
        assert cert.bound == 2 * m0 + 1

    def test_m0_zero(self):
        inst = parabola_instance(m0=0)
        pts = inst.enumerate()
        assert len(pts) == 2

    def test_scaled_lattice_spacing(self):
        lat = Lattice.make((0, 0), (1, 0), (0, 2))
        inst = parabola_instance(lat, m0=1)
        assert inst.spacing == pytest.approx(2.0 ** (1.0 / 3.0))
        check_instance(inst)

    def test_negative_orientation_corrected(self):
        lat = Lattice.make((0, 0), (1, 0), (0, -1))
        inst = parabola_instance(lat, m0=1)
        check_instance(inst)

    def test_orbit_extension(self):
        inst = parabola_instance(m0=2)
        orbit, _ = equal_spaced_orbit(inst.plane_conic(), inst.k0, inst.lattice,
                                      inst.seed_points(), inst.seed_params[:4],
                                      count=8)
        for j, (m, n) in enumerate(orbit.coords):
            assert (m, n) == (j, j * (j - 1) // 2)


class TestHyperbolaZxZ:
    def test_seed_values_exact(self):
        assert math.cosh(ALPHA * ZXZ_SPACING) == pytest.approx(1.5, abs=1e-12)
        assert math.sinh(ALPHA * ZXZ_SPACING) == pytest.approx(
            math.sqrt(5.0) / 2.0, abs=1e-12)
        assert hk(-ALPHA ** 2, ZXZ_SPACING) == pytest.approx(0.5, abs=1e-12)

    def test_m1_sharp_points(self):
        inst = hyperbola_zxz_instance(1)
        pts, cert = check_instance(inst)
        assert pts.coords == [(1, 0), (1, -1), (2, -3), (5, -8)]
        assert cert.bound == 4

    def test_m1_rigid_points(self):
        inst = hyperbola_zxz_instance(1, rigid=True)
        pts, cert = check_instance(inst)
        assert pts.coords == [(1, -1), (2, -3), (5, -8)]
        assert cert.bound == 3

    @pytest.mark.parametrize("m0", range(1, 5))
    def test_families(self, m0):
        sharp = hyperbola_zxz_instance(m0)
        _, cert = check_instance(sharp)
        assert cert.bound == 2 * m0 + 2
        rigid = hyperbola_zxz_instance(m0, rigid=True)
        _, cert = check_instance(rigid)
        assert cert.bound == 2 * m0 + 1

    def test_multiplier_is_one(self):
        inst = hyperbola_zxz_instance(1)
        pts = inst.enumerate()
        assert m_of_curve(inst.lattice, pts.positions) == 1

    def test_fibonacci_orbit_exact(self):
        inst = hyperbola_zxz_instance(2)
        orbit, phi = equal_spaced_orbit(inst.arc.conic, inst.k0, inst.lattice,
                                        inst.seed_points(),
                                        inst.seed_params[:4], count=8)
        assert (phi.m11, phi.m12, phi.m21, phi.m22) == (1, -1, -1, 2)
        for j in range(2, 9):
            assert orbit.coords[j - 1] == (fibonacci(2 * j - 3),
                                           -fibonacci(2 * j - 2))

    def test_curve_on_conic(self):
        inst = hyperbola_zxz_instance(1)
        conic = inst.arc.conic
        for s in (0.0, 0.8, 2.0):
            x, y = inst.curve.point(s)
            assert conic.evaluate_float(x, y) == pytest.approx(0.0, abs=1e-10)


class TestHyperbolaGeneral:
    def test_reduces_to_standard(self):
        std = hyperbola_general_instance(Lattice.standard(), 1)
        zxz = hyperbola_zxz_instance(1)
        assert std.expected_coords == zxz.expected_coords
        assert std.k0 == pytest.approx(zxz.k0)
        assert std.spacing == pytest.approx(zxz.spacing)
        check_instance(std)

    def test_area_8_lattice(self):
        lat = Lattice.make((0, 0), (2, 0), (0, 4))
        inst = hyperbola_general_instance(lat, 1)
        b = 2.0
        assert inst.spacing == pytest.approx(b * ZXZ_SPACING)
        assert inst.k0 == pytest.approx(-ALPHA ** 2 / b ** 2)
        pts, cert = check_instance(inst)
        assert cert.bound == 4

    def test_profile_identity(self):
        lat = Lattice.make((1, 1), (3, 1), (1, 1 + Fraction(2, 3)))
        inst = hyperbola_general_instance(lat, 1)
        assert hk(inst.k0, inst.spacing) == pytest.approx(
            float(inst.cell_area) / 2.0, abs=1e-10)
        check_instance(inst)

    def test_spacing_between_orbit_points(self):
        lat = Lattice.make((0, 0), (2, 0), (0, 4))
        inst = hyperbola_general_instance(lat, 1)
        pts = inst.enumerate()
        gaps = [b - a for a, b in zip(pts.params, pts.params[1:])]
        for g in gaps:
            assert g == pytest.approx(inst.spacing, rel=1e-9)

    def test_rigid_variant(self):
        lat = Lattice.make((0, 0), (1, 1), (0, 1))
        inst = hyperbola_general_instance(lat, 2, rigid=True)
        _, cert = check_instance(inst)
        assert cert.bound == 5


class TestCircle:
    def test_unit_circle(self):
        inst = circle_instance(1.0)
        assert inst.radius == 1.0
        assert inst.lam_full == pytest.approx(2 * math.pi)
        assert inst.curve.unit_speed_defect(100) <= 1e-12

    def test_radius_scaling(self):
        inst = circle_instance(4.0)
        assert inst.radius == pytest.approx(4.0 ** -0.75)
        assert affine_curvature_at(inst.curve, 0.3) == pytest.approx(4.0, rel=1e-10)

    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0])
    def test_config_profile_identity(self, k):
        inst = circle_instance(k)
        for config in inst.configs:
            cell = config.cell_area_over_r2 * inst.radius ** 2
            assert hk(k, inst.spacing(config)) == pytest.approx(
                cell / 2.0, rel=1e-10)

    def test_traces_are_integer_rotations(self):
        inst = circle_instance(1.0)
        for config in inst.configs:
            assert rotation_trace(config.theta) == pytest.approx(
                config.trace, abs=1e-12)
            mat = config.basis_matrix
            assert mat[0][0] + mat[1][1] == config.trace

    def test_orbits_close_on_conic(self):
        inst = circle_instance(1.0)
        square, hexa = inst.configs
        assert square.orbit_coords(5)[4] == square.point_coords[0]
        assert hexa.orbit_coords(7)[6] == hexa.point_coords[0]
        assert square.orbit_on_conic(8)
        assert hexa.orbit_on_conic(12)

    def test_angle_classification(self):
        for mult in range(1, 7):
            assert is_classified_angle(mult * math.pi / 3)
            assert is_classified_angle(mult * math.pi / 2)
        for theta in (0.5, 1.0, 2 * math.pi / 5, 0.9 * math.pi):
            assert not is_classified_angle(theta)

    def test_invalid_curvature(self):
        with pytest.raises(ValueError):
            circle_instance(-1.0)


class TestSpecExport:
    def test_lattice_spec_round_trip(self):
        inst = parabola_instance(Lattice.make((0, 0), (1, 0), (0, 2)), 1)
        spec = inst.to_lattice_spec()
        rebuilt = Lattice.make(spec["v0"], spec["v1"], spec["v2"])
        assert rebuilt == inst.lattice

    def test_curve_spec_conic_matches(self):
        inst = hyperbola_zxz_instance(1)
        spec = inst.to_curve_spec()
        assert spec["type"] == "conic"
        conic = Conic.make(*spec["coeffs"])
        for s in (0.0, 1.0):
            x, y = inst.curve.point(s)
            assert conic.evaluate_float(x, y) == pytest.approx(0.0, abs=1e-9)

    def test_parabola_plane_conic(self):
        inst = parabola_instance(m0=1)
        conic = inst.plane_conic()
        assert (conic.a, conic.b, conic.c, conic.d, conic.e, conic.f) == (
            1, 0, 0, -1, -2, 0)


class TestInstanceCurves:
    """Each instance curve is the constant-curvature curve on its conic."""

    @pytest.mark.parametrize("make", [
        lambda: parabola_instance(Lattice.make((0, 0), (1, 0), (0, 2)), 3, rigid=True),
        lambda: hyperbola_general_instance(Lattice.make((0, 0), (2, 0), (0, 4)), 2),
        lambda: hyperbola_general_instance(Lattice.make((1, 1), (3, 1), (1, 2)), 1,
                                           rigid=True),
    ])
    def test_sharp_curve_on_conic(self, make):
        inst = make()
        curve, conic = inst.curve, inst.plane_conic()
        assert curve.unit_speed_defect(200) <= 1e-10
        assert curve.structure_defect(200) <= 1e-12
        for s in np.linspace(curve.domain.lo, curve.domain.hi, 25):
            x, y = curve.point(s)
            assert abs(conic.evaluate_float(x, y)) <= 1e-11 * (1.0 + x * x + y * y)
            assert curve.curvature(s) == inst.k0

    @pytest.mark.parametrize("k", [0.25, 1.0, 4.0])
    def test_circle_curve(self, k):
        inst = circle_instance(k)
        curve, r = inst.curve, inst.radius
        assert curve.unit_speed_defect(200) <= 1e-12
        assert curve.structure_defect(200) <= 1e-12
        for s in np.linspace(curve.domain.lo, curve.domain.hi, 25):
            x, y = curve.point(s)
            assert x * x + y * y == pytest.approx(r * r, rel=1e-14)
        assert curve.point(curve.domain.hi) == pytest.approx((r, 0.0), abs=1e-14)

    def test_spec_seed_is_lattice_point(self):
        lat = Lattice.make((0, 0), (2, 0), (0, 4))
        assert hyperbola_general_instance(lat, 1).to_curve_spec()["seed"] == ["2.0", "0.0"]
        assert parabola_instance(lat, 1).to_curve_spec()["seed"] == ["0.0", "0.0"]
