import math
from fractions import Fraction

import pytest

from affinecurves.conics import Conic
from affinecurves.kfuncs import abar, fk, hk
from affinecurves.lattice import (
    AffineMap,
    ConicArc,
    Lattice,
    LinearConstraint,
    bound_general,
    bound_rigid,
    bound_sharp,
    bound_three_points,
    bound_two_points,
    conic_in_lattice_coords,
    enumerate_on_arc,
    equal_spaced_orbit,
    lattice_equal,
    m_of_curve,
    motion_preserves_lattice,
    parity_multiplier_bound,
    triangle_multiplier,
)

ALPHA = 2.0 ** (-1.0 / 3.0) * 5.0 ** (1.0 / 6.0)
BIG_L = math.asinh(math.sqrt(5.0) / 2.0) / ALPHA

Z2 = Lattice.standard()
HYPERBOLA = Conic.make(1, -1, -1, 0, 0, -1)
PARABOLA = Conic.make(1, 0, 0, -1, -2, 0)  # y = x(x-1)/2


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def hyperbola_arc(y_lo, y_hi, x_hi):
    return ConicArc(
        conic=HYPERBOLA,
        constraints=(
            LinearConstraint.make(1, 0, 0),       # branch through (1, 0)
            LinearConstraint.make(0, 1, -y_lo),   # y >= y_lo
            LinearConstraint.make(0, -1, y_hi),   # y <= y_hi
        ),
        bbox=(0.0, x_hi + 1.0, y_lo - 1.0, y_hi + 1.0),
        param_of=lambda x, y: math.asinh(-math.sqrt(5.0) * y / 2.0) / ALPHA,
    )


class TestLatticeBasics:
    def test_fundamental_area(self):
        assert Z2.cell_area == 1
        assert Lattice.make((0, 0), (2, 0), (0, 3)).cell_area == 6
        assert Lattice.make((1, 1), (1, 2), (2, 3)).cell_area == 1

    def test_membership(self):
        lat = Lattice.make((1, 1), (1, 2), (2, 3))
        assert (1, 1) in lat
        assert (2, 3) in lat
        assert (Fraction(3, 2), 1) not in lat

    def test_decimal_string_generators(self):
        lat = Lattice.make(("0", "0"), ("0.5", "0"), ("0", "0.5"))
        assert lat.cell_area == Fraction(1, 4)
        assert ("1.5", "2.0") in lat

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError):
            Lattice.make((0, 0), (1, 2), (2, 4))


class TestTriangleMultiplier:
    def test_half_cell(self):
        assert triangle_multiplier(Z2, (0, 0), (1, 0), (0, 1)) == 1

    def test_circle_points(self):
        assert triangle_multiplier(Z2, (5, 0), (4, 3), (0, 5)) == 10

    def test_fibonacci_triple(self):
        # consecutive points on the hyperbola branch span half a cell
        assert triangle_multiplier(Z2, (1, -1), (2, -3), (5, -8)) == 1
        # skipping one point quadruples the multiplier
        assert triangle_multiplier(Z2, (1, 0), (2, -3), (5, -8)) == 4

    def test_collinear_degenerate(self):
        assert triangle_multiplier(Z2, (0, 0), (1, 1), (2, 2)) == 0

    def test_non_lattice_point_rejected(self):
        with pytest.raises(ValueError):
            triangle_multiplier(Z2, (0, 0), (1, 0), (Fraction(1, 2), 1))


class TestMultiplierCertificate:
    def test_hyperbola_points(self):
        pts = [(1, 0), (1, -1), (2, -3), (5, -8)]
        assert m_of_curve(Z2, pts) == 1

    def test_circle_25(self):
        pts = [(x, y) for x in range(-5, 6) for y in range(-5, 6)
               if x * x + y * y == 25]
        assert len(pts) == 12
        assert m_of_curve(Z2, pts) == 2
        assert parity_multiplier_bound(1, 0, 1, 25) == 2

    def test_parity_helper_negative(self):
        assert parity_multiplier_bound(2, 0, 1, 25) == 1
        assert parity_multiplier_bound(1, 1, 1, 25) == 1

    def test_too_few_points(self):
        assert m_of_curve(Z2, [(0, 0), (1, 0)]) == 1


class TestEnumeration:
    def test_parabola_arc(self):
        arc = ConicArc(
            conic=PARABOLA,
            constraints=(LinearConstraint.make(1, 0, 0),
                         LinearConstraint.make(-1, 0, 3)),
            bbox=(0.0, 3.0, -1.0, 4.0),
            param_of=lambda x, y: x,
        )
        pts = enumerate_on_arc(arc, Z2)
        assert pts.coords == [(0, 0), (1, 0), (2, 1), (3, 3)]
        assert pts.params == [0.0, 1.0, 2.0, 3.0]

    def test_hyperbola_window(self):
        pts = enumerate_on_arc(hyperbola_arc(-8, 0, 5), Z2)
        assert pts.coords == [(1, 0), (1, -1), (2, -3), (5, -8)]
        ds = [b - a for a, b in zip(pts.params, pts.params[1:])]
        for d in ds:
            assert d == pytest.approx(BIG_L, abs=1e-12)

    def test_empty_window(self):
        arc = ConicArc(
            conic=Conic.make(1, 0, 1, 0, 0, -25),
            constraints=(LinearConstraint.make(0, 1, -10),),
            bbox=(-5.0, 5.0, -5.0, 5.0),
        )
        assert len(enumerate_on_arc(arc, Z2)) == 0

    def test_circle_full(self):
        arc = ConicArc(conic=Conic.make(1, 0, 1, 0, 0, -25),
                       constraints=(), bbox=(-5.0, 5.0, -5.0, 5.0))
        assert len(enumerate_on_arc(arc, Z2)) == 12

    def test_scaled_lattice(self):
        # halving the lattice spacing in y picks up the half-integer heights
        lat = Lattice.make((0, 0), (1, 0), (0, Fraction(1, 2)))
        arc = ConicArc(
            conic=PARABOLA,
            constraints=(LinearConstraint.make(1, 0, 0),
                         LinearConstraint.make(-1, 0, 4)),
            bbox=(0.0, 4.0, -1.0, 7.0),
            param_of=lambda x, y: x,
        )
        pts = enumerate_on_arc(arc, lat)
        assert [(float(x), float(y)) for x, y in pts.positions] == [
            (0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 3.0), (4.0, 6.0)]

    def test_lattice_frame_conic(self):
        latconic = conic_in_lattice_coords(PARABOLA, Z2)
        assert (latconic.a, latconic.d, latconic.e) == (1, -1, -2)
        arc = ConicArc(conic=latconic,
                       constraints=(LinearConstraint.make(1, 0, 0),
                                    LinearConstraint.make(-1, 0, 3)),
                       bbox=(0.0, 3.0, 0.0, 0.0), frame="lattice")
        pts = enumerate_on_arc(arc, Z2)
        assert pts.coords == [(0, 0), (1, 0), (2, 1), (3, 3)]


class TestCountBounds:
    def test_two_points_basic(self):
        cert = bound_two_points(0.0, 1.0, 1, 1.0)
        assert cert.bound == 2 and cert.conclusive

    def test_two_points_boundary(self):
        lam = fk(0.0, 0.5)
        cert = bound_two_points(0.0, lam, 1, 1.0)
        assert cert.bound == 2

    def test_two_points_no_conclusion(self):
        cert = bound_two_points(0.0, 3.0, 1, 1.0)
        assert cert.bound is None and not cert.conclusive

    def test_general_bound(self):
        cert = bound_general(0.0, 3.0, 1, 1.0)
        assert cert.intermediates["subdivision_length"] == pytest.approx(
            6.0 ** (1.0 / 3.0), rel=1e-12)
        assert cert.bound == 4

    def test_general_small_arc(self):
        assert bound_general(0.0, 1e-6, 1, 1.0).bound == 2

    def test_general_exactly_one_unit(self):
        lam = fk(0.0, 0.5)
        assert bound_general(0.0, lam, 1, 1.0).bound == 2

    def test_three_points_hyperbola_rigidity(self):
        k0 = -ALPHA ** 2
        cert = bound_three_points(k0, k0, 2 * BIG_L, 1, 1.0)
        assert cert.bound == 3
        assert "rigidity" in cert.notes

    def test_three_points_flat(self):
        assert bound_three_points(0.0, 0.0, 2.0, 1, 1.0).bound == 3
        assert bound_three_points(0.0, 0.0, 3.0, 1, 1.0).bound is None

    def test_sharp_parabola_family(self):
        for m0 in range(1, 6):
            cert = bound_sharp(0.0, 0.0, 2 * m0 + 1.0, 1, 1.0)
            assert cert.intermediates["L"] == pytest.approx(1.0, abs=1e-12)
            assert cert.intermediates["m"] == m0
            assert cert.bound == 2 * m0 + 2

    def test_sharp_short_arc(self):
        assert bound_sharp(0.0, 0.0, 1.5, 1, 1.0).bound == 2

    def test_sharp_hyperbola(self):
        k0 = -ALPHA ** 2
        cert = bound_sharp(k0, k0, 3 * BIG_L, 1, 1.0)
        assert cert.intermediates["L"] == pytest.approx(BIG_L, abs=1e-11)
        assert cert.bound == 4

    def test_rigid_integer_ratio(self):
        for m0 in range(1, 5):
            cert = bound_rigid(0.0, 0.0, 2.0 * m0, 1, 1.0)
            assert cert.bound == 2 * m0 + 1

    def test_rigid_non_integer_rejected(self):
        with pytest.raises(ValueError):
            bound_rigid(0.0, 0.0, 2.5, 1, 1.0)

    def test_rigid_m1_matches_three_points(self):
        assert bound_rigid(0.0, 0.0, 2.0, 1, 1.0).bound == 3

    def test_certificate_recomputation(self):
        cert = bound_sharp(-1.0, 0.0, 5.0, 2, 3.0)
        L = cert.intermediates["L"]
        assert hk(-1.0, L) == pytest.approx(2 * 3.0 / 2, rel=1e-10)
        assert cert.bound == 2 * math.floor(5.0 / (2 * L)) + 2


class TestLatticeEqual:
    def test_unimodular_change(self):
        assert lattice_equal(Lattice.make((0, 0), (1, 0), (0, 1)),
                             Lattice.make((0, 0), (1, 1), (0, 1)))

    def test_different_area(self):
        assert not lattice_equal(Lattice.make((0, 0), (2, 0), (0, 1)), Z2)

    def test_identical(self):
        lat = Lattice.make((1, 2), (3, 1), (1, 1))
        assert lattice_equal(lat, lat)

    def test_sublattice_same_area_offset(self):
        assert lattice_equal(Lattice.make((5, -7), (1, 0), (0, 1)), Z2)


class TestMotions:
    def test_hyperbola_motion(self):
        phi = AffineMap.make(((1, -1), (-1, 2)))
        assert phi.det == 1
        assert motion_preserves_lattice(phi, Z2, (1, 0), (1, -1), (2, -3))

    def test_identity(self):
        ident = AffineMap.make(((1, 0), (0, 1)))
        assert motion_preserves_lattice(ident, Z2, (0, 0), (1, 0), (0, 1))

    def test_half_shear_leaves_lattice(self):
        shear = AffineMap.make(((1, Fraction(1, 2)), (0, 1)))
        assert not motion_preserves_lattice(shear, Z2, (0, 0), (1, 0), (0, 1))

    def test_from_three_points(self):
        src = [(1, 0), (1, -1), (2, -3)]
        dst = [(1, -1), (2, -3), (5, -8)]
        phi = AffineMap.from_three_points(src, dst)
        assert (phi.m11, phi.m12, phi.m21, phi.m22) == (1, -1, -1, 2)
        assert phi.det == 1


class TestEqualSpacedOrbit:
    def test_fibonacci_orbit(self):
        seeds = [(1, 0), (1, -1), (2, -3), (5, -8)]
        params = [0.0, BIG_L, 2 * BIG_L, 3 * BIG_L]
        orbit, phi = equal_spaced_orbit(HYPERBOLA, -ALPHA ** 2, Z2,
                                        seeds, params, count=8)
        assert phi.det == 1
        for j in range(2, 9):
            assert orbit.coords[j - 1] == (fib(2 * j - 3), -fib(2 * j - 2))

    def test_parabola_orbit(self):
        seeds = [(0, 0), (1, 0), (2, 1), (3, 3)]
        orbit, _ = equal_spaced_orbit(PARABOLA, 0.0, Z2, seeds,
                                      [0.0, 1.0, 2.0, 3.0], count=8)
        for j, (m, n) in enumerate(orbit.coords):
            assert (m, n) == (j, j * (j - 1) // 2)

    def test_circle_square_configuration(self):
        lat = Lattice.make((1, 0), (-1, 1), (-1, -1))
        circle = Conic.make(1, 0, 1, 0, 0, -1)
        seeds = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        params = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        orbit, phi = equal_spaced_orbit(circle, 1.0, lat, seeds, params, count=6)
        # the orbit closes: a quarter rotation has order four
        assert orbit.positions[4] == seeds[0]
        assert (phi.m11, phi.m12, phi.m21, phi.m22) == (0, -1, 1, 0)

    def test_unequal_spacing_rejected(self):
        seeds = [(1, 0), (1, -1), (2, -3), (5, -8)]
        with pytest.raises(ValueError, match="spaced"):
            equal_spaced_orbit(HYPERBOLA, -ALPHA ** 2, Z2, seeds,
                               [0.0, BIG_L, 2.1 * BIG_L, 3 * BIG_L], count=5)

    def test_wrong_area_rejected(self):
        # scale the lattice so the triangle no longer spans half a cell
        lat = Lattice.make((0, 0), (2, 0), (0, 1))
        seeds = [(2, 0), (2, -1), (2, -3), (6, -8)]
        with pytest.raises(ValueError):
            equal_spaced_orbit(HYPERBOLA, -ALPHA ** 2, lat, seeds,
                               [0.0, BIG_L, 2 * BIG_L, 3 * BIG_L], count=5)


class TestAreaProfileConsistency:
    def test_intro_constant_equation(self):
        # the spacing solves sinh(a L)/a * (cosh(a L) - 1)/a^2 = 1/2 for k0 < 0
        for k0 in (-1.0, -ALPHA ** 2):
            L = None
            from affinecurves.kfuncs import gk
            L = gk(k0, 0.5)
            a = math.sqrt(-k0)
            lhs = (math.sinh(a * L) / a) * ((math.cosh(a * L) - 1.0) / (a * a))
            assert abs(lhs - 0.5) <= 1e-10

    def test_two_point_threshold_matches_abar(self):
        cert = bound_two_points(-1.0, 1.0, 1, 1.0)
        assert cert.intermediates["area_profile"] == pytest.approx(
            abar(-1.0, 1.0), rel=1e-12)
