"""Exact lattice arithmetic, enumeration on conic arcs, and counting bounds.

Membership decisions, triangle multipliers, and orbit verification all run
in exact arithmetic over Python integers or Fractions (exact for integer
and decimal-string inputs); floating point only enters through arc-length
parameters and the profile functions used by the bound formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Any, Callable, Sequence

import numpy as np

from .conics import Conic, RationalLike, frac
from .kfuncs import BRENT_MAXITER, BRENT_RTOL, DomainError, abar, fk, gk, hk
from .reports import Hypothesis, sturm_range

Vec2 = tuple[Fraction, Fraction]

SPACING_TOL = 1e-9
EQ_BOUNDARY_RTOL = 1e-12
INT_RATIO_TOL = 1e-9
CLOSEST_SAMPLES = 2048  # curve samples behind each closest-point search
END_RTOL = 1e-12  # parameters this close to a domain end (relative) are placed at the end
ON_CURVE_TOL = 1e-6  # distance from an exact candidate to its curve point, in `on_curve`
MAX_SCAN_COLUMNS = 10**6  # lattice columns of an exact arc scan, points of a float window
# stopping rule of the tangency roots, |step| <= ROOT_XTOL + ROOT_RTOL |s|, as brentq's
ROOT_XTOL, ROOT_RTOL, ROOT_MAXITER = 1e-15, BRENT_RTOL, BRENT_MAXITER
_cKDTree = None  # scipy.spatial.cKDTree, imported by the first enumerate_near_curve


class BudgetError(DomainError):
    """A computation that would exceed a fixed work budget."""


def _vec2(x: RationalLike, y: RationalLike) -> Vec2:
    return (frac(x), frac(y))


def _wedge(v: Vec2, w: Vec2) -> Fraction:
    return v[0] * w[1] - v[1] * w[0]


def _sub(v: Vec2, w: Vec2) -> Vec2:
    return (v[0] - w[0], v[1] - w[1])


def triangle_area_exact(p1: Vec2, p2: Vec2, p3: Vec2) -> Fraction:
    return abs(_wedge(_sub(p2, p1), _sub(p3, p1))) / 2


@dataclass(frozen=True)
class Lattice:
    """Origin v0 plus all integer combinations of the generators v1, v2."""

    v0: Vec2
    v1: Vec2
    v2: Vec2

    def __post_init__(self) -> None:
        if _wedge(self.v1, self.v2) == 0:
            raise ValueError("lattice generators are dependent")

    @classmethod
    def make(cls, v0, v1, v2) -> "Lattice":
        return cls(_vec2(*v0), _vec2(*v1), _vec2(*v2))

    @classmethod
    def standard(cls) -> "Lattice":
        return cls.make((0, 0), (1, 0), (0, 1))

    @property
    def cell_area(self) -> Fraction:
        return abs(_wedge(self.v1, self.v2))

    @cached_property
    def cleared(self) -> tuple[int, tuple[int, int, int], tuple[int, int, int]]:
        """(den, xs, ys): the x and y components of v0, v1, v2 times the
        positive lcm den of their six denominators, so that v0 + m v1 + n v2
        is ((xs[0] + m xs[1] + n xs[2]) / den, (ys[0] + m ys[1] + n ys[2]) / den)."""
        comps = (self.v0[0], self.v1[0], self.v2[0], self.v0[1], self.v1[1], self.v2[1])
        den = math.lcm(*(c.denominator for c in comps))
        ints = [int(c * den) for c in comps]
        return den, tuple(ints[:3]), tuple(ints[3:])

    def point(self, m: int, n: int) -> Vec2:
        den, xs, ys = self.cleared
        return (Fraction(xs[0] + m * xs[1] + n * xs[2], den),
                Fraction(ys[0] + m * ys[1] + n * ys[2], den))

    def coords_of(self, p: Vec2) -> Vec2:
        """Exact (m, n) with p = v0 + m v1 + n v2 (rational, not necessarily
        integral)."""
        q = _sub((frac(p[0]), frac(p[1])), self.v0)
        det = _wedge(self.v1, self.v2)
        m = _wedge(q, self.v2) / det
        n = _wedge(self.v1, q) / det
        return (m, n)

    def __contains__(self, p) -> bool:
        m, n = self.coords_of(p)
        return m.denominator == 1 and n.denominator == 1


def _lattice_coords(lat: Lattice, points: Sequence) -> list[tuple[int, int]]:
    """Integer lattice coordinates of the points; ValueError at the first
    point off the lattice."""
    coords = []
    for p in points:
        m, n = lat.coords_of(p)
        if m.denominator != 1 or n.denominator != 1:
            raise ValueError(f"{p} is not a lattice point")
        coords.append((int(m), int(n)))
    return coords


def triangle_multiplier(lat: Lattice, p1, p2, p3) -> int:
    """The integer m with Area = m/2 * cell area, via exact lattice coordinates.

    Returns 0 for collinear points (degenerate)."""
    (m1, n1), (m2, n2), (m3, n3) = _lattice_coords(lat, (p1, p2, p3))
    return abs((m2 - m1) * (n3 - n1) - (n2 - n1) * (m3 - m1))


def _convex_turns(coords: list[tuple[int, int]]) -> list[int] | None:
    """The multipliers |e_i wedge e_(i+1)| of the cyclic triples
    (c_i, c_(i+1), c_(i+2)), e_i = c_(i+1) - c_i, when the closed polygon
    c_0 .. c_(N-1) is strictly convex; None otherwise.

    Strictly convex means that every turn e_i wedge e_(i+1) has the same
    nonzero sign and that the edge directions wind exactly once.  With
    turns of one sign the direction rotates monotonically, by less than pi
    per edge, so it crosses the vertical twice per winding: the winding is
    one exactly when the nonzero x-components of the edges change sign
    twice around the cycle (a vertical edge is skipped; its neighbours lie
    on either side of the vertical)."""
    edges = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(coords, coords[1:] + coords[:1])]
    turns = [_wedge(e, f) for e, f in zip(edges, edges[1:] + edges[:1])]
    if not (all(t > 0 for t in turns) or all(t < 0 for t in turns)):
        return None
    signs = [dx > 0 for dx, _ in edges if dx != 0]
    if sum(a != b for a, b in zip(signs, signs[1:] + signs[:1])) != 2:
        return None
    return [abs(t) for t in turns]


def m_of_curve(lat: Lattice, points: Sequence) -> int:
    """Smallest triangle multiplier over all triples of the given lattice
    points on the curve: a certificate for the area-quantization integer
    restricted to the points actually found.  Fewer than three points give
    the conservative default 1; a point off the lattice raises ValueError.
    The points are taken to their integer lattice coordinates and handed
    to `m_of_coords`."""
    if len(points) < 3:
        return 1
    return m_of_coords(_lattice_coords(lat, points))


def m_of_coords(coords: Sequence[tuple[int, int]]) -> int:
    """`m_of_curve` of the lattice points with these integer lattice
    coordinates, in any lattice: a triangle's multiplier is the absolute
    determinant of its coordinate differences, so the coordinates are
    points of Z^2 with the same multipliers.

    When the points, in the order given, are the vertices of a strictly
    convex polygon (`_convex_turns`), the minimum is taken over the N
    cyclically consecutive triples (i, i+1, i+2 mod N) in exact integer
    lattice coordinates, in O(N).  Lemma: some minimum-area vertex
    triangle of a strictly convex polygon has consecutive vertices.
    Proof: along the chain of vertices strictly between v_i and v_k on one
    side of the chord v_i v_k, the edge directions rotate monotonically
    and, since the chain closes with the chord, pass the chord direction
    at most once; so the distance to the chord's line first increases,
    then decreases, and over the chain it is least at v_(i+1) or
    v_(k-1).  Hence area(v_i, v_j, v_k) >= area(v_i, v_(i+1), v_k) or
    area(v_i, v_(k-1), v_k), a triangle with one polygon edge.  The same
    argument on the chord of that edge moves the third vertex next to it.
    The argument is discrete, so it covers closed curves (the circle) and
    arcs of any turning alike.

    Otherwise (repeated or collinear points, or an order that is not
    convex) every triple is scanned by `_m_of_all_triples`, which raises
    ValueError on a collinear triple."""
    if len(coords) < 3:
        return 1
    turns = _convex_turns(list(coords))
    if turns is None:
        return _m_of_all_triples(Lattice.standard(), coords)
    return min(turns)


def _m_of_all_triples(lat: Lattice, points: Sequence) -> int:
    """Smallest triangle multiplier over all O(N^3) triples of at least
    three points; ValueError on a collinear triple."""
    best: int | None = None
    for a, b, c in combinations(points, 3):
        mult = triangle_multiplier(lat, a, b, c)
        if mult == 0:
            raise ValueError(f"collinear lattice points {a}, {b}, {c} on a convex arc")
        best = mult if best is None else min(best, mult)
    return int(best)


def parity_multiplier_bound(a: int, b: int, c: int, r: int) -> int:
    """Analytic lower bound for the multiplier on a x^2 + b xy + c y^2 = r:
    2 when a, c, r are odd and b is even (mod-2 argument), else 1."""
    if a % 2 == 1 and c % 2 == 1 and r % 2 == 1 and b % 2 == 0:
        return 2
    return 1


@dataclass(frozen=True)
class LinearConstraint:
    """g1 x + g2 y + g0 >= 0 with exact coefficients."""

    g1: Fraction
    g2: Fraction
    g0: Fraction

    @classmethod
    def make(cls, g1, g2, g0) -> "LinearConstraint":
        return cls(frac(g1), frac(g2), frac(g0))

    def satisfied(self, x: Fraction, y: Fraction) -> bool:
        return self.g1 * x + self.g2 * y + self.g0 >= 0

    def substituted(self, t: list[list[Fraction]]) -> "LinearConstraint":
        g = (self.g1, self.g2, self.g0)
        new = tuple(sum(g[i] * t[i][j] for i in range(3)) for j in range(3))
        return LinearConstraint(new[0], new[1], new[2])


@dataclass(frozen=True)
class ConicArc:
    """Arc of an exact conic cut out by linear inequalities.

    `frame` says whether the conic/constraints/bbox live in plane
    coordinates or directly in the lattice's (m, n) coordinates; `param_of`
    maps a plane point to its arc-length parameter for ordering."""

    conic: Conic
    constraints: tuple[LinearConstraint, ...]
    bbox: tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)
    frame: str = "plane"
    param_of: Callable[[float, float], float] | None = None


@dataclass
class LatticePointSet:
    """Enumerated lattice points on an arc, ordered by arc parameter."""

    coords: list[tuple[int, int]]
    positions: list[Vec2]
    params: list[float]
    exact: bool = True

    def __len__(self) -> int:
        return len(self.coords)

    def positions_float(self) -> list[tuple[float, float]]:
        return [(float(x), float(y)) for x, y in self.positions]


def _lattice_substitution(lat: Lattice) -> list[list[Fraction]]:
    """Homogeneous matrix of (m, n) -> v0 + m v1 + n v2."""
    return [
        [lat.v1[0], lat.v2[0], lat.v0[0]],
        [lat.v1[1], lat.v2[1], lat.v0[1]],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def conic_in_lattice_coords(conic: Conic, lat: Lattice) -> Conic:
    """Exact conic satisfied by the lattice coordinates of points of the
    plane conic."""
    return conic.substituted(_lattice_substitution(lat))


def plane_conic_from_lattice_frame(conic: Conic, lat: Lattice) -> Conic:
    """Exact plane conic whose lattice-coordinate form is the given conic."""
    det = _wedge(lat.v1, lat.v2)
    v0, v1, v2 = lat.v0, lat.v1, lat.v2
    inv = [
        [v2[1] / det, -v2[0] / det, (v2[0] * v0[1] - v2[1] * v0[0]) / det],
        [-v1[1] / det, v1[0] / det, (v1[1] * v0[0] - v1[0] * v0[1]) / det],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    return conic.substituted(inv)


def _cleared(coeffs: Sequence[Fraction]) -> list[int]:
    """The coefficients times the positive lcm of their denominators."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * lcm) for c in coeffs]


def _integer_roots_quadratic(a: int, b: int, c: int) -> list[int]:
    """Integer solutions of a n^2 + b n + c = 0, in increasing order."""
    if a == 0:
        if b == 0 or c % b:
            return []
        return [-c // b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    r = math.isqrt(disc)
    if r * r != disc:
        return []
    return sorted({(s - b) // (2 * a) for s in (r, -r) if (s - b) % (2 * a) == 0})


def enumerate_on_arc(arc: ConicArc, lat: Lattice) -> LatticePointSet:
    """Complete enumeration of lattice points on the arc.

    Works column-by-column in lattice coordinates: for each integer m in
    the scan range the conic restricts to a quadratic in n, whose integer
    roots are found exactly; the constraints are then tested exactly.
    Every column of the range is visited, so the scan is complete.

    The arithmetic is over Python integers.  Before the scan the conic is
    multiplied by the positive lcm L of its six denominators, and each
    constraint by the lcm of its own.  Scaling by L > 0 keeps the roots of
    each column's quadratic and the sign of each constraint, and it
    multiplies the discriminant by L^2: so the rational discriminant is a
    rational square exactly when the integer one is an integer square, and
    the roots (-b +- r) / 2a are the same rationals.  A range of more than
    MAX_SCAN_COLUMNS columns raises BudgetError before the scan.
    """
    if arc.frame == "lattice":
        conic_mn = arc.conic
        constraints_mn = arc.constraints
    else:
        sub = _lattice_substitution(lat)
        conic_mn = arc.conic.substituted(sub)
        constraints_mn = tuple(g.substituted(sub) for g in arc.constraints)

    m_lo, m_hi = _m_scan_range(arc, lat)
    if m_hi - m_lo > MAX_SCAN_COLUMNS:
        raise BudgetError(f"the arc crosses {m_hi - m_lo + 1} lattice columns; "
                          f"the scan budget is {MAX_SCAN_COLUMNS}")
    a, b, c, d, e, f = _cleared((conic_mn.a, conic_mn.b, conic_mn.c,
                                 conic_mn.d, conic_mn.e, conic_mn.f))
    gs = [_cleared((g.g1, g.g2, g.g0)) for g in constraints_mn]
    found: list[tuple[int, int]] = []
    for m in range(m_lo, m_hi + 1):
        for n in _integer_roots_quadratic(c, b * m + e, (a * m + d) * m + f):
            if all(g1 * m + g2 * n + g0 >= 0 for g1, g2, g0 in gs):
                found.append((m, n))

    positions = [lat.point(m, n) for m, n in found]
    if arc.param_of is not None:
        params = [arc.param_of(float(x), float(y)) for x, y in positions]
    else:
        params = [float(i) for i in range(len(found))]
    order = sorted(range(len(found)), key=lambda i: params[i])
    return LatticePointSet(
        coords=[found[i] for i in order],
        positions=[positions[i] for i in order],
        params=[params[i] for i in order],
    )


def on_curve(curve, lat: Lattice, coords: Sequence[tuple[int, int]] | None,
             tol: float) -> LatticePointSet:
    """The lattice points with the given coordinates, the candidates of an
    exact enumeration, that lie within distance tol of the curve, ordered
    by parameter; coords None gives `enumerate_near_curve`.

    The candidates are placed in closed form, by the curve's `inverse`
    (every exact spec's curve is a constant-curvature curve, which has
    one; a curve without one raises ValueError): it gives each candidate's
    parameter, NaN off the curve's branch.  A candidate whose parameter
    lies strictly inside the domain is on the arc when it lies within tol
    of the curve point at that parameter; the scan put it on the spec's
    conic, but the curve's own conic can differ from it (a conic spec's
    curve is built from a float seed).  A candidate whose parameter lies
    outside the domain, or within END_RTOL max(1, |lo|, |hi|) of an end,
    where rounding could put it on either side, is on the arc when it lies
    within tol of the nearer of c(lo) and c(hi), and takes that end as its
    parameter; so a closed circle's seed point is counted once.
    """
    if coords is None:
        return enumerate_near_curve(curve, lat, tol)
    if curve.inverse is None:
        raise ValueError(f"the curve {curve.label!r} has no closed-form inverse to place points")
    try:
        q = _float_points(lat, coords)
    except OverflowError:  # a candidate past the float range is far from the curve
        coords = [c for c in coords if _fits_float(lat, c)]
        q = _float_points(lat, coords)
    s = curve.inverse(q)  # NaN off the branch
    lo, hi = curve.domain.lo, curve.domain.hi
    band = END_RTOL * max(1.0, abs(lo), abs(hi))
    inside = (s > lo + band) & (s < hi - band)
    ends = curve.point(np.array((lo, hi)))
    d_lo, d_hi = (np.hypot(*(q - end).T) for end in ends)
    at_end = ~inside & ~np.isnan(s) & (np.minimum(d_lo, d_hi) <= tol)
    s = np.where(at_end, np.where(d_lo <= d_hi, lo, hi), s)
    near = np.flatnonzero(inside)
    on_arc = near[np.hypot(*(curve.point(s[near]) - q[near]).T) <= tol]
    on = np.union1d(on_arc, np.flatnonzero(at_end))
    return _point_set(lat, [coords[j] for j in on.tolist()], s[on], True)


def _float_points(lat: Lattice, coords: Sequence[tuple[int, int]]) -> np.ndarray:
    """The points with the given lattice coordinates as a (p, 2) float
    array, each entry correctly rounded from the integer-cleared generators."""
    den, xs, ys = lat.cleared
    return np.array([((xs[0] + m * xs[1] + n * xs[2]) / den, (ys[0] + m * ys[1] + n * ys[2]) / den)
                     for m, n in coords], dtype=float).reshape(-1, 2)


def _fits_float(lat: Lattice, coord: tuple[int, int]) -> bool:
    """Whether the point with these lattice coordinates lies within the float range."""
    try:
        _float_points(lat, [coord])
    except OverflowError:
        return False
    return True


def _point_set(lat: Lattice, coords: list[tuple[int, int]], params: np.ndarray,
               exact: bool) -> LatticePointSet:
    """The points with the given coordinates and parameters, in parameter order."""
    order = np.argsort(params, kind="stable").tolist()
    found = [coords[j] for j in order]
    return LatticePointSet(coords=found,
                           positions=[lat.point(m, n) for m, n in found],
                           params=params[order].tolist(),
                           exact=exact)


def _tangency(curve, s: np.ndarray, q: np.ndarray):
    """Row by row: g(s) = (c(s) - q) . c'(s), its derivative
    g'(s) = |c'(s)|^2 + (c(s) - q) . c''(s), and c(s) - q."""
    r = curve.point(s) - q
    d1, d2, _ = curve.derivatives(s)
    with np.errstate(over="ignore", invalid="ignore"):  # a Newton step on inf or NaN bisects
        g = r[:, 0] * d1[:, 0] + r[:, 1] * d1[:, 1]
        dg = d1[:, 0] * d1[:, 0] + d1[:, 1] * d1[:, 1] + r[:, 0] * d2[:, 0] + r[:, 1] * d2[:, 1]
    return g, dg, r


def _tangency_roots(curve, q: np.ndarray, lo: np.ndarray, s: np.ndarray, hi: np.ndarray,
                    g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """A root of the tangency condition g(s) = (c(s) - q) . c'(s) in each
    bracket [lo, hi] with g(lo) <= 0 <= g(hi), from the start s where
    `_tangency` gave g and g', for all the rows at once: one `curve.point`
    and one `curve.derivatives` array call per iteration, over the rows
    still moving.

    Each row takes Newton steps s - g/g', kept inside its bracket: the
    bracket shrinks to the last iterate on the side of its sign, and a
    step that leaves the closed bracket (or g' = 0) bisects it instead.
    A row stops at a zero residual, where it is, or once a step moves it
    by at most brentq's tolerance, 1e-15 + 4 eps |s|."""
    lo, s, hi = lo.copy(), s.copy(), hi.copy()
    rows = np.arange(len(s))
    for _ in range(ROOT_MAXITER):
        t = s[rows]
        lo[rows] = np.where(g < 0.0, t, lo[rows])
        hi[rows] = np.where(g > 0.0, t, hi[rows])
        a, b = lo[rows], hi[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t - g / dg
        step = np.where((step >= a) & (step <= b), step, 0.5 * (a + b))  # NaN bisects too
        step[g == 0.0] = t[g == 0.0]  # a zero residual stays, also where g' = 0
        s[rows] = step
        rows = rows[np.abs(step - t) > ROOT_XTOL + ROOT_RTOL * np.abs(step)]
        if not rows.size:
            break
        g, dg, _ = _tangency(curve, s[rows], q[rows])
    return s


def _box_coord_ranges(lat: Lattice, xs, ys) -> tuple[int, int, int, int]:
    """floor(min m), ceil(max m), floor(min n), ceil(max n) over the lattice
    coordinates (m, n) of the four corners of the box xs x ys."""
    ms, ns = zip(*(lat.coords_of((Fraction(x), Fraction(y))) for x in xs for y in ys))
    return math.floor(min(ms)), math.ceil(max(ms)), math.floor(min(ns)), math.ceil(max(ns))


def _window_coords(lat: Lattice, lo, hi) -> list[tuple[int, int]]:
    """Lattice coordinates covering the box [lo[0], hi[0]] x [lo[1], hi[1]].
    More than MAX_SCAN_COLUMNS of them raise BudgetError before the list
    is built."""
    m_lo, m_hi, n_lo, n_hi = _box_coord_ranges(lat, (lo[0], hi[0]), (lo[1], hi[1]))
    size = (m_hi - m_lo + 3) * (n_hi - n_lo + 3)
    if size > MAX_SCAN_COLUMNS:
        raise BudgetError(f"the curve's window holds {size} lattice points; "
                          f"the scan budget is {MAX_SCAN_COLUMNS}")
    return [(m, n) for m in range(m_lo - 1, m_hi + 2) for n in range(n_lo - 1, n_hi + 2)]


def enumerate_near_curve(curve, lat: Lattice, tol: float = 1e-9) -> LatticePointSet:
    """Float fallback when no exact membership test exists: the lattice
    points of the curve's bounding window within distance tol of the
    curve, ordered by the parameter of their closest curve point.  The
    result is flagged inexact.

    All points are placed together, in a fixed number of array calls.
    Their float positions come from the integer-cleared generators
    (`Lattice.cleared`), correctly rounded.  The curve is sampled once; a
    point's nearest sample (one k-d tree query for all points) brackets its
    closest parameter between that sample's two neighbours, where it is
    the root of the tangency condition (c(s) - p) . c'(s) = 0, found by
    `_tangency_roots`; without a sign change in the bracket the nearer
    bracket end is taken.  The root fixes the distance to about eps |p|,
    where minimising the squared distance would only fix it to about
    sqrt(eps) |p|.
    """
    global _cKDTree
    if _cKDTree is None:
        from scipy.spatial import cKDTree as _cKDTree
    ss = np.linspace(curve.domain.lo, curve.domain.hi, CLOSEST_SAMPLES)
    pts = curve.point(ss)
    coords = _window_coords(lat, pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5)
    reach = tol + float(np.max(np.hypot(*np.diff(pts, axis=0).T)))
    q = _float_points(lat, coords)
    _, i = _cKDTree(pts).query(q)
    near = np.flatnonzero(np.sum((pts[i] - q) ** 2, axis=1) <= reach * reach)
    q, i = q[near], i[near]
    lo, mid, hi = ss[np.maximum(i - 1, 0)], ss[i], ss[np.minimum(i + 1, len(ss) - 1)]
    g, dg, r = _tangency(curve, np.concatenate((lo, mid, hi)), np.concatenate((q, q, q)))
    g_lo, g_mid, g_hi = g.reshape(3, len(q))
    dist_lo, _, dist_hi = np.hypot(r[:, 0], r[:, 1]).reshape(3, len(q))
    s = np.where(dist_lo <= dist_hi, lo, hi)  # the nearer end, lo on a tie
    b = (g_lo <= 0.0) & (g_hi >= 0.0)
    s[b] = _tangency_roots(curve, q[b], lo[b], mid[b], hi[b], g_mid[b],
                           dg.reshape(3, len(q))[1][b])

    r = curve.point(s) - q
    on = np.flatnonzero(np.hypot(r[:, 0], r[:, 1]) <= tol)
    return _point_set(lat, [coords[j] for j in near[on].tolist()], s[on], False)


def _m_scan_range(arc: ConicArc, lat: Lattice) -> tuple[int, int]:
    xmin, xmax, ymin, ymax = arc.bbox
    if arc.frame == "lattice":
        return math.floor(xmin) - 1, math.ceil(xmax) + 1
    m_lo, m_hi, _, _ = _box_coord_ranges(lat, (xmin, xmax), (ymin, ymax))
    return m_lo - 1, m_hi + 1


@dataclass
class CountBoundCertificate:
    """A counting theorem instantiated on concrete inputs.

    `bound` is None when a hypothesis fails and the theorem is silent."""

    theorem: str
    inputs: dict[str, Any]
    intermediates: dict[str, Any] = field(default_factory=dict)
    hypotheses: list[Hypothesis] = field(default_factory=list)
    bound: int | None = None
    notes: str = ""

    @property
    def conclusive(self) -> bool:
        return self.bound is not None and all(h.ok for h in self.hypotheses)

    def to_dict(self) -> dict[str, Any]:
        return {
            "theorem": self.theorem,
            "inputs": self.inputs,
            "intermediates": self.intermediates,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "bound": self.bound,
            "notes": self.notes,
        }


def _inputs(k0, lam, multiplier, cell_area, k1=None) -> dict:
    out = {"k0": k0, "lam": lam, "multiplier": multiplier,
           "cell_area": float(cell_area)}
    if k1 is not None:
        out["k1"] = k1
    return out


def bound_two_points(k0: float, lam: float, multiplier: int,
                     cell_area: float) -> CountBoundCertificate:
    """At most two lattice points when the arc's area profile stays within
    half a (multiplier-scaled) fundamental cell."""
    target = multiplier * float(cell_area) / 2.0
    value = abar(k0, lam)
    ok = value <= target * (1.0 + EQ_BOUNDARY_RTOL)
    cert = CountBoundCertificate(
        theorem="2pts1",
        inputs=_inputs(k0, lam, multiplier, cell_area),
        intermediates={"area_profile": value, "half_cell": target},
        hypotheses=[Hypothesis("area-profile-within-half-cell", ok,
                               f"abar(k0, lam) = {value:.6g} vs {target:.6g}")],
        bound=2 if ok else None,
    )
    if not ok:
        cert.notes = "no conclusion: area profile exceeds half cell"
    return cert


def bound_general(k0: float, lam: float, multiplier: int,
                  cell_area: float) -> CountBoundCertificate:
    """Subdivision bound 2 ceil(lam / F) with F the area-profile inverse at
    half the scaled cell.  Sub-arc convexity at that length is a caller
    assumption recorded in the notes."""
    target = multiplier * float(cell_area) / 2.0
    unit = fk(k0, target)
    ratio = lam / unit
    m = max(1, math.ceil(ratio - INT_RATIO_TOL))
    return CountBoundCertificate(
        theorem="low_aff_bd",
        inputs=_inputs(k0, lam, multiplier, cell_area),
        intermediates={"subdivision_length": unit, "pieces": m},
        hypotheses=[],
        bound=2 * m,
        notes="assumes every sub-arc of the subdivision length is convex",
    )


def bound_three_points(k0: float, k1: float, lam: float, multiplier: int,
                       cell_area: float) -> CountBoundCertificate:
    """At most three lattice points from the rectangle bound at half length."""
    if k0 > k1:
        raise ValueError(f"need k0 <= k1, got {k0} > {k1}")
    target = multiplier * float(cell_area) / 2.0
    hyps = [sturm_range(k1, (math.pi / lam) ** 2)]
    try:
        value = hk(k0, lam / 2.0)
        ok = value <= target * (1.0 + EQ_BOUNDARY_RTOL)
        hyps.append(Hypothesis("rect-profile-within-half-cell", ok,
                               f"hk(k0, lam/2) = {value:.6g} vs {target:.6g}"))
    except DomainError as exc:
        value = math.nan
        ok = False
        hyps.append(Hypothesis("rect-profile-within-half-cell", False, str(exc)))
    cert = CountBoundCertificate(
        theorem="2pts2",
        inputs=_inputs(k0, lam, multiplier, cell_area, k1),
        intermediates={"rect_profile": value, "half_cell": target},
        hypotheses=hyps,
        bound=3 if all(h.ok for h in hyps) else None,
    )
    if ok and abs(value - target) <= 1e-10 * max(1.0, target):
        cert.notes = ("rigidity boundary: three points force constant "
                      "curvature k0 with points at endpoints and midpoint")
    return cert


def _sharp_setup(k0: float, k1: float, multiplier: int, cell_area: float):
    target = multiplier * float(cell_area) / 2.0
    spacing = gk(k0, target)
    hyps = []
    if k1 > 0.0:
        hyps.append(sturm_range(k1, (math.pi / (2.0 * spacing)) ** 2))
    return target, spacing, hyps


def bound_sharp(k0: float, k1: float, lam: float, multiplier: int,
                cell_area: float) -> CountBoundCertificate:
    """2m + 2 with m = floor(lam / 2L) and L the rectangle-profile inverse."""
    if k0 > k1:
        raise ValueError(f"need k0 <= k1, got {k0} > {k1}")
    target, spacing, hyps = _sharp_setup(k0, k1, multiplier, cell_area)
    m = math.floor(lam / (2.0 * spacing) + INT_RATIO_TOL)
    return CountBoundCertificate(
        theorem="sharp_lat",
        inputs=_inputs(k0, lam, multiplier, cell_area, k1),
        intermediates={"L": spacing, "m": m, "half_cell": target},
        hypotheses=hyps,
        bound=2 * m + 2 if all(h.ok for h in hyps) else None,
    )


def bound_rigid(k0: float, k1: float, lam: float, multiplier: int,
                cell_area: float) -> CountBoundCertificate:
    """2m + 1 for open arcs whose length is an exact even multiple of L.

    Raises ValueError when lam/(2L) is not an integer; use bound_sharp then.
    """
    if k0 > k1:
        raise ValueError(f"need k0 <= k1, got {k0} > {k1}")
    target, spacing, hyps = _sharp_setup(k0, k1, multiplier, cell_area)
    ratio = lam / (2.0 * spacing)
    m = round(ratio)
    if abs(ratio - m) > INT_RATIO_TOL:
        raise ValueError(
            f"lam/(2L) = {ratio} is not an integer (to {INT_RATIO_TOL}); "
            "the floor-based bound applies instead")
    return CountBoundCertificate(
        theorem="rigid_lat",
        inputs=_inputs(k0, lam, multiplier, cell_area, k1),
        intermediates={"L": spacing, "m": m, "half_cell": target},
        hypotheses=hyps,
        bound=2 * m + 1 if all(h.ok for h in hyps) else None,
        notes=("equality forces constant curvature k0, spacing L between "
               "consecutive points, and lattice endpoints"),
    )


# theorem id -> certificate from (k0, k1, lam, multiplier, cell area); the
# entries look the bound_* names up when called
COUNT_BOUNDS = {
    "2pts1": lambda k0, k1, lam, m, cell: bound_two_points(k0, lam, m, cell),
    "low_aff_bd": lambda k0, k1, lam, m, cell: bound_general(k0, lam, m, cell),
    "2pts2": lambda k0, k1, lam, m, cell: bound_three_points(k0, k1, lam, m, cell),
    "sharp_lat": lambda k0, k1, lam, m, cell: bound_sharp(k0, k1, lam, m, cell),
    "rigid_lat": lambda k0, k1, lam, m, cell: bound_rigid(k0, k1, lam, m, cell),
}


def _on_generators(lat: Lattice, v: Vec2) -> bool:
    """Whether the vector v is an integer combination of the generators."""
    return (lat.v0[0] + v[0], lat.v0[1] + v[1]) in lat


def lattice_equal(lat_a: Lattice, lat_b: Lattice) -> bool:
    """Exact set equality: each origin lies in the other lattice and each
    generator pair is an integral combination of the other."""

    def absorbed(target: Lattice, other: Lattice) -> bool:
        return other.v0 in target and all(_on_generators(target, v)
                                          for v in (other.v1, other.v2))

    return absorbed(lat_a, lat_b) and absorbed(lat_b, lat_a)


@dataclass(frozen=True)
class AffineMap:
    """v -> M v + b with exact entries."""

    m11: Fraction
    m12: Fraction
    m21: Fraction
    m22: Fraction
    b1: Fraction
    b2: Fraction

    @classmethod
    def make(cls, matrix, offset=(0, 0)) -> "AffineMap":
        (a, b), (c, d) = matrix
        return cls(frac(a), frac(b), frac(c), frac(d), frac(offset[0]), frac(offset[1]))

    @classmethod
    def from_three_points(cls, src: Sequence, dst: Sequence) -> "AffineMap":
        """The unique affine map with src[i] -> dst[i], solved exactly."""
        s = [_vec2(*p) for p in src]
        t = [_vec2(*p) for p in dst]
        u1, u2 = _sub(s[1], s[0]), _sub(s[2], s[0])
        w1, w2 = _sub(t[1], t[0]), _sub(t[2], t[0])
        det = _wedge(u1, u2)
        if det == 0:
            raise ValueError("source points are collinear")
        # M [u1 u2] = [w1 w2]
        m11 = (w1[0] * u2[1] - w2[0] * u1[1]) / det
        m12 = (w2[0] * u1[0] - w1[0] * u2[0]) / det
        m21 = (w1[1] * u2[1] - w2[1] * u1[1]) / det
        m22 = (w2[1] * u1[0] - w1[1] * u2[0]) / det
        b1 = t[0][0] - (m11 * s[0][0] + m12 * s[0][1])
        b2 = t[0][1] - (m21 * s[0][0] + m22 * s[0][1])
        return cls(m11, m12, m21, m22, b1, b2)

    @property
    def det(self) -> Fraction:
        return self.m11 * self.m22 - self.m12 * self.m21

    def __call__(self, p) -> Vec2:
        x, y = frac(p[0]), frac(p[1])
        return (self.m11 * x + self.m12 * y + self.b1,
                self.m21 * x + self.m22 * y + self.b2)

    def linear(self, v) -> Vec2:
        x, y = frac(v[0]), frac(v[1])
        return (self.m11 * x + self.m12 * y, self.m21 * x + self.m22 * y)

    def orbit(self, p, count: int) -> list[Vec2]:
        """The first count points p, M(p), M(M(p)), ... of the orbit of p."""
        points = [_vec2(*p)]
        while len(points) < count:
            points.append(self(points[-1]))
        return points[:count]


def motion_preserves_lattice(motion: AffineMap, lat: Lattice,
                             p1, p2, p3) -> bool:
    """Certify that a special affine motion preserves the lattice.

    Requires det = 1, lattice images of the three sample points, and the
    image triangle spanning exactly half a fundamental cell; generator
    images are direct-checked as well.
    """
    if motion.det != 1:
        return False
    pts = [_vec2(*p) for p in (p1, p2, p3)]
    if any(p not in lat for p in pts):
        return False
    images = [motion(p) for p in pts]
    if any(q not in lat for q in images):
        return False
    if triangle_area_exact(*images) != lat.cell_area / 2:
        return False
    return all(_on_generators(lat, motion.linear(v)) for v in (lat.v1, lat.v2))


def equal_spaced_orbit(conic: Conic, k0: float, lat: Lattice,
                       points: Sequence, params: Sequence[float],
                       count: int) -> tuple[LatticePointSet, AffineMap]:
    """Extend four equally spaced lattice points on a constant-curvature
    conic to a full orbit under the translation-along-the-curve motion.

    The motion is solved exactly from the three correspondences
    p_j -> p_{j+1}; every orbit point is verified to lie in the lattice and
    on the conic by exact arithmetic, and the profile identity
    hk(k0, L) = cell/2 is checked to 1e-10.
    """
    if len(points) != 4 or len(params) != 4:
        raise ValueError("need exactly four seed points with parameters")
    pts = [_vec2(*p) for p in points]
    if len({tuple(p) for p in pts}) != 4:
        raise ValueError("seed points must be distinct")
    for p in pts:
        if conic(p[0], p[1]) != 0:
            raise ValueError(f"seed {p} is not on the conic")
        if p not in lat:
            raise ValueError(f"seed {p} is not a lattice point")

    spacings = [params[i + 1] - params[i] for i in range(3)]
    spacing = spacings[0]
    if any(abs(d - spacing) > SPACING_TOL for d in spacings):
        raise ValueError(f"seed points not equally spaced: {spacings}")

    if triangle_area_exact(pts[1], pts[2], pts[3]) != lat.cell_area / 2:
        raise ValueError("Area of the last three seeds must equal half the cell")

    profile = hk(k0, spacing)
    if abs(profile - float(lat.cell_area) / 2.0) > 1e-10 * max(1.0, profile):
        raise ValueError(
            f"profile identity fails: hk(k0, L) = {profile} vs cell/2 = "
            f"{float(lat.cell_area) / 2.0}")

    motion = AffineMap.from_three_points(pts[:3], pts[1:])
    if motion.det != 1:
        raise ValueError(f"curve motion has determinant {motion.det} != 1")
    if not motion_preserves_lattice(motion, lat, *pts[:3]):
        raise ValueError("curve motion does not preserve the lattice")

    orbit = motion.orbit(pts[0], count)  # the seeds first: the motion maps each to the next
    for p in orbit:
        if conic(p[0], p[1]) != 0:
            raise ValueError(f"orbit point {p} left the conic")
        if p not in lat:
            raise ValueError(f"orbit point {p} left the lattice")
    coords = _lattice_coords(lat, orbit)
    orbit_params = [params[0] + i * spacing for i in range(len(orbit))]
    return (LatticePointSet(coords=coords, positions=orbit,
                            params=orbit_params), motion)
