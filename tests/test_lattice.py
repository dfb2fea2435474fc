import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinecurves import lattice as lattice_mod
from affinecurves.conics import Conic
from affinecurves.curve import AdaptedFrame, constant_curvature_curve
from affinecurves.kfuncs import Interval, abar, fk, hk
from affinecurves.lattice import (
    ON_CURVE_TOL,
    AffineMap,
    ConicArc,
    Lattice,
    LinearConstraint,
    PolyGraph,
    bound_general,
    bound_rigid,
    bound_sharp,
    bound_three_points,
    bound_two_points,
    enumerate_on_arc,
    enumerate_on_graph,
    equal_spaced_orbit,
    m_of_coords,
    m_of_curve,
    motion_preserves_lattice,
    on_curve,
    plane_conic_from_lattice_frame,
    triangle_multiplier,
)
from affinecurves.sharp_instances import hyperbola_general_instance, parabola_instance
from affinecurves.specfiles import curve_bbox, parse_curve_spec

from reference import (
    conic_in_lattice_coords,
    constraint_substituted,
    lattice_equal,
    lattice_substitution,
    parity_multiplier_bound,
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
    )


def hyperbola_curve(lo, hi):
    """The unit-speed arc of HYPERBOLA through (1, 0) at s = 0, with
    s = asinh(-sqrt(5) y / 2) / ALPHA and curvature -ALPHA^2."""
    frame = AdaptedFrame(np.array((1.0, 0.0)), -ALPHA * np.array((1.0, 2.0)) / math.sqrt(5.0),
                         ALPHA ** 2 * np.array((1.0, 0.0)))
    return constant_curvature_curve(-ALPHA ** 2, Interval(lo, hi), frame)


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

    def test_off_lattice_point_raises(self):
        with pytest.raises(ValueError, match="not a lattice point"):
            m_of_curve(Z2, [(0, 0), (1, 0), (Fraction(1, 2), 1)])


def _convex_hull(points):
    """Vertices of the strictly convex hull, counter-clockwise (monotone
    chain with exact integer turns; collinear points are dropped)."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_vectors = st.tuples(_fractions, _fractions)


@st.composite
def _lattices(draw):
    v1, v2 = draw(_vectors), draw(_vectors)
    assume(v1[0] * v2[1] - v1[1] * v2[0] != 0)
    return Lattice.make(draw(_vectors), v1, v2)


@st.composite
def _convex_polygons(draw):
    """Vertex coordinates of a strictly convex lattice polygon, in a random
    rotation and direction."""
    cloud = draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                          min_size=3, max_size=25))
    hull = _convex_hull(cloud)
    assume(len(hull) >= 3)
    r = draw(st.integers(0, len(hull) - 1))
    hull = hull[r:] + hull[:r]
    return hull[::-1] if draw(st.booleans()) else hull


class TestMultiplierProperty:
    """m_of_curve against the all-triples scan it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(_lattices(), _convex_polygons(), st.data())
    def test_matches_all_triples(self, lat, polygon, data):
        order = data.draw(st.sampled_from(("cycle", "chain", "star", "shuffle")))
        size = len(polygon)
        if order == "chain":  # an open sub-chain, as the points of an arc
            a = data.draw(st.integers(0, size - 3))
            polygon = polygon[a:data.draw(st.integers(a + 3, size))]
        elif order == "star":  # every step-th vertex: the turns may agree, the winding not
            step = data.draw(st.integers(1, size - 1))
            assume(math.gcd(step, size) == 1)
            polygon = [polygon[i * step % size] for i in range(size)]
        elif order == "shuffle":
            polygon = data.draw(st.permutations(polygon))
        coords = list(polygon)
        points = [lat.point(m, n) for m, n in coords]
        if order in ("cycle", "chain"):
            assert lattice_mod._convex_turns(coords) is not None
        assert m_of_curve(lat, points) == lattice_mod._m_of_all_triples(lat, points)

    @settings(max_examples=200, deadline=None)
    @given(_lattices(), _convex_polygons(), st.data())
    def test_coords_match_all_triples_in_any_order(self, lat, polygon, data):
        # count takes the multiplier from the integer coordinates it found;
        # most shuffled orders are not convex and take the all-triples scan
        coords = data.draw(st.permutations(polygon))
        points = [lat.point(m, n) for m, n in coords]
        assert m_of_coords(coords) == lattice_mod._m_of_all_triples(lat, points)

    def test_coords_of_a_rational_lattice(self):
        lat = Lattice.make((Fraction(1, 3), Fraction(-1, 2)), (2, Fraction(1, 5)),
                           (Fraction(-1, 7), 3))
        pentagon = [(0, 0), (3, 0), (4, 3), (1, 5), (-2, 3)]
        for coords in (pentagon, [pentagon[2 * i % 5] for i in range(5)]):
            points = [lat.point(m, n) for m, n in coords]
            assert m_of_coords(coords) == m_of_curve(lat, points)
            assert m_of_coords(coords) == lattice_mod._m_of_all_triples(lat, points)

    def test_pentagram_order_is_not_convex(self):
        # every turn is positive, but the edges wind twice; consecutive
        # triples would give 15 where the least triangle has multiplier 9
        pentagon = [(0, 0), (3, 0), (4, 3), (1, 5), (-2, 3)]
        star = [pentagon[2 * i % 5] for i in range(5)]
        assert lattice_mod._convex_turns(star) is None
        assert m_of_curve(Z2, star) == lattice_mod._m_of_all_triples(Z2, star) == 9

    @settings(max_examples=100, deadline=None)
    @given(_lattices(), _convex_polygons(), st.data())
    def test_duplicate_or_collinear_raises(self, lat, polygon, data):
        i = data.draw(st.integers(0, len(polygon) - 1))
        j = (i + 1) % len(polygon)
        if data.draw(st.booleans()):  # repeat a vertex somewhere
            coords = list(polygon)
            coords.insert(data.draw(st.integers(0, len(coords))), polygon[i])
        else:  # the midpoint of an edge of the doubled polygon
            coords = [(2 * m, 2 * n) for m, n in polygon]
            mid = (polygon[i][0] + polygon[j][0], polygon[i][1] + polygon[j][1])
            coords.insert(i + 1, mid)
        with pytest.raises(ValueError):
            m_of_curve(lat, [lat.point(m, n) for m, n in coords])

    def test_parabola_m0_40_is_linear(self, monkeypatch):
        # structural, not timed: the 82 points found on the exported
        # parabola at m0 = 40 take no cubic scan and at most N multiplier
        # evaluations
        small = parabola_instance(m0=6)
        pts = small.enumerate().positions
        assert m_of_curve(small.lattice, pts) == lattice_mod._m_of_all_triples(small.lattice, pts)

        inst = parabola_instance(m0=40)
        points = inst.enumerate()
        assert len(points) == 82
        calls = []
        real = lattice_mod.triangle_multiplier

        def counted(*args):
            calls.append(args)
            return real(*args)

        def cubic(*args):
            raise AssertionError("m_of_curve took the all-triples scan")

        monkeypatch.setattr(lattice_mod, "triangle_multiplier", counted)
        monkeypatch.setattr(lattice_mod, "_m_of_all_triples", cubic)
        assert m_of_curve(inst.lattice, points.positions) == 1
        assert len(calls) <= len(points)


class TestEnumeration:
    def test_parabola_arc(self):
        arc = ConicArc(
            conic=PARABOLA,
            constraints=(LinearConstraint.make(1, 0, 0),
                         LinearConstraint.make(-1, 0, 3)),
            bbox=(0.0, 3.0, -1.0, 4.0),
        )
        pts = enumerate_on_arc(arc, Z2)
        assert pts.coords == [(0, 0), (1, 0), (2, 1), (3, 3)]
        assert pts.params == [0.0, 1.0, 2.0, 3.0]  # scan indices
        # on the unit-speed parabola (s, s(s-1)/2), s = x
        curve = constant_curvature_curve(0.0, Interval(0.0, 3.0), AdaptedFrame(
            np.array((0.0, 0.0)), np.array((1.0, -0.5)), np.array((0.0, 1.0))))
        placed = on_curve(curve, Z2, pts.coords, ON_CURVE_TOL)
        assert placed.coords == pts.coords
        assert placed.params == [0.0, 1.0, 2.0, 3.0]

    def test_hyperbola_window(self):
        pts = enumerate_on_arc(hyperbola_arc(-8, 0, 5), Z2)
        assert pts.coords == [(1, -1), (1, 0), (2, -3), (5, -8)]  # scan order
        placed = on_curve(hyperbola_curve(0.0, 3 * BIG_L), Z2, pts.coords, ON_CURVE_TOL)
        assert placed.coords == [(1, 0), (1, -1), (2, -3), (5, -8)]
        ds = [b - a for a, b in zip(placed.params, placed.params[1:])]
        for d in ds:
            assert d == pytest.approx(BIG_L, abs=1e-12)

    @pytest.mark.parametrize("past, kept", [(5e-13, True), (-5e-13, False)])
    def test_conic_point_near_an_end_is_placed_by_its_parameter(self, past, kept):
        # on x^2 + 10^24 y^2 = 1 the speed is about 10^4, so the arc's end
        # 5e-13 (within END_RTOL) past or short of the point (3/5, 4e-12/5)
        # lies 4e-9 from it in x, matching neither end point: the point is
        # on the arc exactly when its parameter lies in the domain
        lat = Lattice.make((0, 0), (Fraction(1, 5), 0), (0, Fraction(1, 5 * 10**12)))
        doc = {"type": "conic", "coeffs": ["1", "0", "1e24", "0", "0", "-1"], "seed": ["1", "0"]}
        (end,) = parse_curve_spec({**doc, "domain": ["0", "1e-4"]}).curve.inverse(
            np.array([[0.6, 0.8e-12]])).tolist()
        curve = parse_curve_spec({**doc, "domain": ["0", repr(end + past)]}).curve
        assert not np.allclose(curve.point(curve.domain.hi), (0.6, 0.8e-12), rtol=ON_CURVE_TOL,
                               atol=ON_CURVE_TOL)
        placed = on_curve(curve, lat, [(5, 0), (4, 3), (3, 4)], ON_CURVE_TOL)
        assert placed.coords == [(5, 0), (4, 3), (3, 4)][:3 if kept else 2]

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
        )
        pts = enumerate_on_arc(arc, lat)
        assert [(float(x), float(y)) for x, y in pts.positions] == [
            (0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 3.0), (4.0, 6.0)]

    def test_lattice_frame_conic(self):
        latconic = conic_in_lattice_coords(PARABOLA, Z2)
        assert (latconic.a, latconic.d, latconic.e) == (1, -1, -2)
        arc = ConicArc(conic=plane_conic_from_lattice_frame(latconic, Z2),
                       constraints=(LinearConstraint.make(1, 0, 0),
                                    LinearConstraint.make(-1, 0, 3)),
                       bbox=(0.0, 3.0, 0.0, 0.0))
        pts = enumerate_on_arc(arc, Z2)
        assert pts.coords == [(0, 0), (1, 0), (2, 1), (3, 3)]


def _rational_isqrt(d):
    if d < 0:
        return None
    p, q = d.numerator, d.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        return None
    return Fraction(rp, rq)


def _fraction_roots_quadratic(a, b, c):
    """Integer solutions of a n^2 + b n + c = 0 over Fractions."""
    if a == 0:
        if b == 0:
            return []
        n = -c / b
        return [int(n)] if n.denominator == 1 else []
    root = _rational_isqrt(b * b - 4 * a * c)
    if root is None:
        return []
    out = []
    for sign in (1, -1):
        n = (-b + sign * root) / (2 * a)
        if n.denominator == 1:
            out.append(int(n))
    return sorted(set(out))


def _fraction_scan(arc, lat):
    """The column scan of `enumerate_on_arc` in Fraction arithmetic, in
    scan order: the reference for the integer scan."""
    sub = lattice_substitution(lat)
    conic = arc.conic.substituted(sub)
    constraints = tuple(constraint_substituted(g, sub) for g in arc.constraints)
    m_lo, m_hi, _, _ = lattice_mod._box_coord_ranges(lat, arc.bbox[:2], arc.bbox[2:])
    found = []
    for m in range(m_lo - 1, m_hi + 2):
        mf = Fraction(m)
        b1 = conic.b * mf + conic.e
        c0 = conic.a * mf * mf + conic.d * mf + conic.f
        for n in _fraction_roots_quadratic(conic.c, b1, c0):
            if all(g.satisfied(mf, Fraction(n)) for g in constraints):
                found.append((m, n))
    return found


@st.composite
def _lattice_frame_conics(draw):
    """A conic of a drawn type with small integer coefficients in lattice
    coordinates, through a drawn point with a half-integer n (so that some
    columns have a square discriminant but no integer root), divided by a
    drawn rational."""
    small = st.integers(-3, 3)
    kind = draw(st.sampled_from(("ellipse", "hyperbola", "parabola", "c == 0")))
    if kind == "ellipse":
        a, b, c = draw(st.integers(1, 3)), draw(small), draw(st.integers(1, 3))
        assume(b * b < 4 * a * c)
    elif kind == "hyperbola":
        a, b, c = draw(small), draw(small), draw(small)
        assume(b * b > 4 * a * c)
    elif kind == "parabola":  # quadratic part (p m + q n)^2
        p, q = draw(small), draw(small)
        assume((p, q) != (0, 0))
        a, b, c = p * p, 2 * p * q, q * q
    else:  # each column is linear in n
        a, b, c = draw(small), draw(small), 0
    d, e = draw(small), draw(small)
    m0, n0 = draw(st.integers(-4, 4)), Fraction(draw(st.integers(-8, 8)), 2)
    f = -(a * m0 * m0 + b * m0 * n0 + c * n0 * n0 + d * m0 + e * n0)
    scale = draw(_fractions.filter(bool))
    return Conic.make(*(v / scale for v in (a, b, c, d, e, f))), (m0, n0)


@st.composite
def _windows(draw, centre):
    """A float box around the centre, and a drawn subset of the constraints
    x >= xmin, x <= xmax, y >= ymin, y <= ymax on its fractional bounds (the
    window options of `count`)."""
    reach = [Fraction(draw(st.integers(0, 24)), 3) for _ in range(4)]
    xmin, xmax = centre[0] - reach[0], centre[0] + reach[1]
    ymin, ymax = centre[1] - reach[2], centre[1] + reach[3]
    cons = (LinearConstraint.make(1, 0, -xmin), LinearConstraint.make(-1, 0, xmax),
            LinearConstraint.make(0, 1, -ymin), LinearConstraint.make(0, -1, ymax))
    keep = [draw(st.booleans()) for _ in cons]
    return (tuple(g for g, k in zip(cons, keep) if k),
            (float(xmin), float(xmax), float(ymin), float(ymax)))


class TestIntegerScan:
    """enumerate_on_arc against the Fraction column scan it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(_lattices(), _lattice_frame_conics(), st.data())
    def test_matches_fraction_scan(self, lat, conic_point, data):
        conic, (m0, n0) = conic_point
        conic, centre = plane_conic_from_lattice_frame(conic, lat), lat.point(m0, n0)
        constraints, bbox = data.draw(_windows(centre))
        arc = ConicArc(conic=conic, constraints=constraints, bbox=bbox)
        assert enumerate_on_arc(arc, lat).coords == _fraction_scan(arc, lat)

    @pytest.mark.parametrize("lat", [Z2, Lattice.make((1, 2), (2, 1), (Fraction(1, 2), 3))])
    def test_hyperbola_general_m0_6(self, lat):
        # about 75 k columns, 2.2 s in Fraction arithmetic
        inst = hyperbola_general_instance(lat, 6)
        assert inst.enumerate().coords == list(inst.expected_coords)

    def test_budget_admits_hyperbola_m0_7(self):
        bbox = curve_bbox(hyperbola_general_instance(Z2, 7).curve)
        m_lo, m_hi, _, _ = lattice_mod._box_coord_ranges(Z2, bbox[:2], bbox[2:])
        m_lo, m_hi = m_lo - 1, m_hi + 1  # the columns that enumerate_on_arc scans
        assert 4 * 10**5 < m_hi - m_lo <= lattice_mod.MAX_SCAN_COLUMNS


def _poly(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(coeffs))


def _interpolant(points):
    """The ascending coefficients of the polynomial through the points
    (distinct x), by Lagrange's formula in Fractions."""
    out = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, scale = [Fraction(1)], Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [a - xj * b for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
                scale *= xi - xj
        out = [o + yi * b / scale for o, b in zip(out, basis)]
    return out


def _y_range(coeffs, lo, hi, pieces=16):
    """Rational bounds on p over [lo, hi]: on each of the pieces, the Taylor
    expansion at its centre, with |x - centre| <= its half-width."""
    ymin = ymax = None
    for k in range(pieces):
        a, b = lo + (hi - lo) * k / pieces, lo + (hi - lo) * (k + 1) / pieces
        c, r = (a + b) / 2, (b - a) / 2
        taylor, deriv = [], list(coeffs)
        for order in range(len(coeffs)):
            taylor.append(_poly(deriv, c) / math.factorial(order))
            deriv = [j * d for j, d in enumerate(deriv)][1:]
        spread = sum(abs(t) * r ** j for j, t in enumerate(taylor) if j)
        lo_k, hi_k = taylor[0] - spread, taylor[0] + spread
        ymin = lo_k if ymin is None else min(ymin, lo_k)
        ymax = hi_k if ymax is None else max(ymax, hi_k)
    return ymin, ymax


def _box_scan(graph, constraints, lat):
    """The lattice points on the graph that satisfy the constraints, by a
    Fraction scan of every lattice point of the box [lo, hi] x [ymin, ymax]:
    m over the box's corners, and per m the n that put x in [lo, hi]
    (the generators' x-components are nonzero), in increasing x."""
    ymin, ymax = _y_range(graph.coeffs, graph.lo, graph.hi)
    ms = [lat.coords_of((x, y))[0] for x in (graph.lo, graph.hi) for y in (ymin, ymax)]
    v0, v1, v2 = lat.v0, lat.v1, lat.v2
    found = []
    for m in range(math.floor(min(ms)), math.ceil(max(ms)) + 1):
        ends = sorted(((graph.lo - v0[0] - m * v1[0]) / v2[0],
                       (graph.hi - v0[0] - m * v1[0]) / v2[0]))
        for n in range(math.ceil(ends[0]), math.floor(ends[1]) + 1):
            x, y = lat.point(m, n)
            if (graph.lo <= x <= graph.hi and y == _poly(graph.coeffs, x)
                    and all(g.satisfied(x, y) for g in constraints)):
                found.append((x, (m, n)))
    return [c for _, c in sorted(found)]


def _skewed_lattice(rng):
    """A lattice with a nonzero origin, denominators 2 to 6, and nonzero
    x-components in both generators."""
    def q(lo, hi):
        while True:
            v = Fraction(rng.randint(lo, hi), rng.randint(2, 6))
            if v:
                return v
    while True:
        lat = Lattice.make((q(-6, 6), q(-6, 6)), (q(1, 6), q(-6, 6)), (q(-6, 6), q(-6, 6)))
        if lat.cell_area:
            return lat


def _graph_through_lattice_points(rng, lat, degree):
    """A graph of the given degree through at least degree lattice points
    of distinct x, with a rational domain just past their x-range: the
    interpolant of degree + 1 of them, plus a multiple of the product
    of (x - x_i) over all but the last."""
    points = {}
    while len(points) < degree + 1:
        x, y = lat.point(rng.randint(-2, 2), rng.randint(-2, 2))
        points.setdefault(x, y)
    coeffs = _interpolant(list(points.items()))
    product = [Fraction(1)]
    for xi in list(points)[:-1]:
        product = [a - xi * b for a, b in zip([Fraction(0)] + product, product + [Fraction(0)])]
    eps = Fraction(rng.choice((-1, 1)), rng.randint(7, 40))
    coeffs = [c + eps * b for c, b in zip(coeffs, product)]
    lo = min(points) - Fraction(rng.randint(0, 5), 4)
    hi = max(points) + Fraction(rng.randint(0, 5), 4)
    return PolyGraph(tuple(coeffs), lo, hi)


def _convex_cubic(rng, c2):
    """A dyadic cubic, convex for |x| <= 2 (as the benchmark draws them)."""
    return [Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-2, 2), 8), c2,
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 2), 32)]


# the graphs of test_near_curve_matches_exact_scan in test_cli.py, and 50
# seeded cubics drawn as the benchmark draws its graphs
NEAR_CURVE_GRAPHS = [
    (("0", "0", "1", "0.05"), -1, 1),
    (("1", "0.125", "0.5625", "0.0625"), -2, 1),
    (("1", "-0.125", "0.875", "-0.0625"), -1, 2),
    (("2", "0", "0.6875", "-0.03125"), -2, 1),
    (("-0.5", "0.25", "0.5", "0.03125"), -2, 1),
] + [(tuple(repr(float(c)) for c in _convex_cubic(rng, Fraction(8 + i % 10, 16))),
      -1 - i % 2, 2 - i % 2)
     for rng in [random.Random(431)] for i in range(50)]


class TestGraphEnumeration:
    """enumerate_on_graph, one divisibility test per vertical lattice line,
    against independent routes."""

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_box_scan_on_skewed_lattices(self, seed):
        rng = random.Random(seed)
        lat = _skewed_lattice(rng)
        for degree in (3, 4):
            graph = _graph_through_lattice_points(rng, lat, degree)
            want = _box_scan(graph, (), lat)
            assert len(want) >= degree  # the comparison is not vacuous
            got = enumerate_on_graph(graph, (), lat)
            assert got.coords == want  # scan order is increasing x
            assert got.exact
            assert got.params == list(range(len(want)))  # the scan index
            assert got.positions == [lat.point(m, n) for m, n in want]
            # a window cut through the middle of the domain
            cut = LinearConstraint.make(rng.choice((-1, 1)), Fraction(1, 7),
                                        -(graph.lo + graph.hi) / 2)
            got = enumerate_on_graph(graph, (cut,), lat)
            assert got.coords == [c for c in want if cut.satisfied(*lat.point(*c))]

    @pytest.mark.parametrize("coeffs,lo,hi", NEAR_CURVE_GRAPHS)
    def test_matches_float_proximity_scan(self, coeffs, lo, hi):
        spec = parse_curve_spec({"type": "graph", "coeffs": list(coeffs),
                                 "domain": [str(lo), str(hi)]})
        scan = enumerate_on_graph(spec.graph, (), Z2)
        got = on_curve(spec.curve, Z2, scan.coords, ON_CURVE_TOL)
        near = lattice_mod.enumerate_near_curve(spec.curve, Z2, 1e-6)
        assert got.coords == scan.coords == near.coords
        assert got.exact and not near.exact
        # the two placements of each point: `on_curve`, by the graph's
        # inverse, and the tangency root of the float scan
        np.testing.assert_allclose(got.params, near.params, rtol=0, atol=1e-13)

    def test_line_budget(self, monkeypatch):
        monkeypatch.setattr(lattice_mod, "MAX_SCAN_COLUMNS", 20)
        half = Lattice.make((0, 0), (Fraction(1, 2), 0), (0, 1))
        square = (Fraction(0), Fraction(0), Fraction(1))
        graph = PolyGraph(square, Fraction(0), Fraction(19, 2))  # x = 0, 1/2, ..., 19/2
        assert enumerate_on_graph(graph, (), half).coords == [(2 * x, x * x) for x in range(10)]
        with pytest.raises(lattice_mod.BudgetError, match="21 vertical lattice lines"):
            enumerate_on_graph(PolyGraph(square, Fraction(0), Fraction(10)), (), half)

    def test_point_past_the_float_range_is_a_domain_error(self):
        graph = PolyGraph((Fraction(0), Fraction(0), Fraction(10**307)), Fraction(0), Fraction(10))
        with pytest.raises(lattice_mod.DomainError, match="past the float range"):
            enumerate_on_graph(graph, (), Z2)


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


class TestAffineMapOrbit:
    def test_iterates_the_map(self):
        phi = AffineMap.make(((1, -1), (-1, 2)))
        assert phi.orbit((1, 0), 4) == [(1, 0), (1, -1), (2, -3), (5, -8)]
        assert all(isinstance(c, Fraction) for p in phi.orbit((1, 0), 3) for c in p)

    def test_count_is_exact(self):
        quarter = AffineMap.make(((0, -1), (1, 0)), (1, 0))
        assert quarter.orbit((0, 0), 5)[4] == (0, 0)
        assert quarter.orbit((0, 0), 1) == [(0, 0)]
        assert quarter.orbit((0, 0), 0) == []
