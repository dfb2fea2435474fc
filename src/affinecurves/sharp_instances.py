"""The extremal curve-plus-lattice configurations where the counting
bounds are attained.

Each instance packages a unit-speed curve, its exact plane conic, an
exact lattice, the expected lattice points, and the bound it attains.
All instances have multiplier 1.

A lattice family (parabola, hyperbola) is its lattice-frame conic, its
unimodular step and its start point; its curve, curvature k0 and spacing
L come from its plane conic as `count` derives them from the exported
spec.  ALPHA and ZXZ_SPACING are reference closed forms for the tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conics import Conic
from .curve import AdaptedFrame, AffineCurve, constant_curvature_curve
from .kfuncs import Interval, gk
from .lattice import (
    COUNT_BOUNDS,
    ON_CURVE_TOL,
    AffineMap,
    ConicArc,
    CountBoundCertificate,
    Lattice,
    LatticePointSet,
    enumerate_on_arc,
    on_curve,
    plane_conic_from_lattice_frame,
)
from .specfiles import curve_bbox

logger = logging.getLogger(__name__)

ALPHA = 2.0 ** (-1.0 / 3.0) * 5.0 ** (1.0 / 6.0)
ZXZ_SPACING = math.asinh(math.sqrt(5.0) / 2.0) / ALPHA
# each family in lattice coordinates: its conic, and the motion carrying
# each of its lattice points to the next; n = m(m-1)/2 and x^2 - xy - y^2 = 1
PARABOLA_CONIC = Conic.make(1, 0, 0, -1, -2, 0)
ZXZ_CONIC = Conic.make(1, -1, -1, 0, 0, -1)
PARABOLA_STEP = AffineMap.make(((1, 0), (1, 1)), (1, 0))
ZXZ_STEP = AffineMap.make(((1, -1), (-1, 2)))


@dataclass(frozen=True)
class SharpInstance:
    """A curve/lattice pair attaining one of the counting bounds, with
    constant curvature k0 over the whole curve domain; its lattice points,
    `spacing` apart from the domain's start on, are the family's step orbit."""

    curve: AffineCurve
    lattice: Lattice
    conic: Conic  # in plane coordinates
    expected_coords: tuple[tuple[int, int], ...]
    theorem: str  # 'sharp_lat' or 'rigid_lat'
    k0: float
    spacing: float

    @property
    def expected_bound(self) -> int:
        return len(self.expected_coords)

    @property
    def cell_area(self) -> Fraction:
        return self.lattice.cell_area

    def enumerate(self) -> LatticePointSet:
        """`count`'s route: the conic's scan over the curve's padded box, placed on it."""
        arc = ConicArc(self.conic, (), curve_bbox(self.curve))
        coords = enumerate_on_arc(arc, self.lattice).coords
        return on_curve(self.curve, self.lattice, coords, ON_CURVE_TOL)

    def certificate(self) -> CountBoundCertificate:
        return COUNT_BOUNDS[self.theorem](self.k0, self.k0, self.curve.domain.length, 1,
                                          float(self.cell_area))

    def to_curve_spec(self) -> dict:
        """Conic-type curve specification anchored at the curve's s = 0 point."""
        conic, seed = self.conic, self.curve.point(0.0)
        return {
            "type": "conic",
            "coeffs": [str(v) for v in (conic.a, conic.b, conic.c,
                                        conic.d, conic.e, conic.f)],
            "seed": [repr(float(seed[0])), repr(float(seed[1]))],
            "domain": [repr(self.curve.domain.lo), repr(self.curve.domain.hi)],
        }

    def to_lattice_spec(self) -> dict:
        lat = self.lattice
        return {
            "v0": [str(lat.v0[0]), str(lat.v0[1])],
            "v1": [str(lat.v1[0]), str(lat.v1[1])],
            "v2": [str(lat.v2[0]), str(lat.v2[1])],
        }


def _oriented(lat: Lattice) -> Lattice:
    """Flip v2 when needed so v1 wedge v2 > 0."""
    w = lat.v1[0] * lat.v2[1] - lat.v1[1] * lat.v2[0]
    if w > 0:
        return lat
    logger.info("lattice generators negatively oriented; replacing v2 by -v2")
    return Lattice(lat.v0, lat.v1, (-lat.v2[0], -lat.v2[1]))


def _orbit_coords(step: AffineMap, start: tuple[int, int], count: int) -> list[tuple[int, int]]:
    return [(int(m), int(n)) for m, n in step.orbit(start, count)]


def _orbit_instance(lattice_conic: Conic, step: AffineMap, start: tuple[int, int],
                    lat: Lattice, m0: int, rigid: bool) -> SharpInstance:
    """The family's orbit points i = (1 if rigid else 0) .. 2*m0 + 1 at s = i L
    on the plane conic's branch through the start point (s = 0), L = gk(k0, cell/2)."""
    lat = _oriented(lat)
    conic = plane_conic_from_lattice_frame(lattice_conic, lat)
    k0 = conic.curvature()
    spacing = gk(k0, float(lat.cell_area) / 2.0)
    first, last = (1 if rigid else 0), 2 * m0 + 1
    seed = tuple(float(c) for c in lat.point(*start))
    return SharpInstance(
        curve=conic.branch_curve(seed, Interval(first * spacing, last * spacing)),
        lattice=lat, conic=conic,
        expected_coords=tuple(_orbit_coords(step, start, last + 1)[first:]),
        theorem="rigid_lat" if rigid else "sharp_lat", k0=k0, spacing=spacing,
    )


def parabola_instance(lat: Lattice | None = None, m0: int = 1,
                      rigid: bool = False) -> SharpInstance:
    """Parabolic arc through 2*m0+2 (or 2*m0+1 for the rigid variant)
    lattice points at affine spacing (v1 wedge v2)^(1/3).

    In lattice coordinates the curve is n = m(m-1)/2, so for the standard
    lattice the points are (j, j(j-1)/2).
    """
    if m0 < 0:
        raise ValueError("m0 must be nonnegative")
    return _orbit_instance(PARABOLA_CONIC, PARABOLA_STEP, (0, 0), lat or Lattice.standard(),
                           m0, rigid)


def hyperbola_zxz_instance(m0: int, rigid: bool = False) -> SharpInstance:
    """Arc of x^2 - xy - y^2 = 1 through the odd-index Fibonacci points of
    the standard lattice; constant curvature -ALPHA^2."""
    return hyperbola_general_instance(Lattice.standard(), m0, rigid)


def hyperbola_general_instance(lat: Lattice, m0: int,
                               rigid: bool = False) -> SharpInstance:
    """The standard-lattice hyperbola example transferred to an arbitrary
    lattice: the Fibonacci points (f_(2j-3), -f_(2j-2)) in lattice
    coordinates, j from 1 (2 for the rigid variant) to 2*m0 + 2.

    With b = (v1 wedge v2)^(1/3) its curvature is -ALPHA^2 / b^2 and its
    spacing b ZXZ_SPACING, up to rounding.
    """
    if m0 < 1:
        raise ValueError("m0 must be at least 1")
    return _orbit_instance(ZXZ_CONIC, ZXZ_STEP, (1, 0), lat, m0, rigid)


@dataclass(frozen=True)
class CircleConfig:
    """One of the two lattice configurations admitting four equally spaced
    points on a circle.

    Exact data lives in lattice coordinates, where the rotation by theta is
    an integer matrix whose trace equals 2 cos(theta)."""

    name: str
    theta: float
    trace: int
    basis_matrix: tuple[tuple[int, int], tuple[int, int]]
    offset: tuple[int, int]
    lattice_frame_conic: Conic
    point_coords: tuple[tuple[int, int], ...]
    cell_area_over_r2: float  # geometric cell area divided by r^2


# Square: quarter-turn orbit.  Hexagonal: sixth-turn orbit; a fundamental
# cell is a parallelogram of two of the triangles.
_SQUARE = CircleConfig(
    name="square", theta=math.pi / 2, trace=0,
    basis_matrix=((0, -1), (1, 0)), offset=(1, 0),
    lattice_frame_conic=Conic.make(2, 0, 2, -2, -2, 0),
    point_coords=((0, 0), (1, 0), (1, 1), (0, 1)),
    cell_area_over_r2=2.0,
)

_HEX = CircleConfig(
    name="hexagonal", theta=math.pi / 3, trace=1,
    basis_matrix=((0, -1), (1, 1)), offset=(1, 0),
    lattice_frame_conic=Conic.make(1, 1, 1, -1, -2, 0),
    point_coords=((0, 0), (1, 0), (1, 1), (0, 2)),
    cell_area_over_r2=math.sqrt(3.0) / 2.0,
)


@dataclass(frozen=True)
class CircleInstance:
    """Circle of curvature k > 0 with the two four-point configurations.

    The counting bounds are attained only while the total count stays at
    most six, so this is an instance with a caveat rather than a sharp
    family."""

    curve: AffineCurve
    k: float
    radius: float
    lam_full: float
    configs: tuple[CircleConfig, ...]

    def spacing(self, config: CircleConfig) -> float:
        return config.theta / math.sqrt(self.k)

    def plane_points(self, config: CircleConfig, count: int) -> np.ndarray:
        """The configuration's first count orbit points, read from the curve."""
        return self.curve.point(np.arange(count) * self.spacing(config))


def circle_instance(k: float) -> CircleInstance:
    """Circle x^2 + y^2 = k^(-3/2), the constant-curvature-k closed curve."""
    if k <= 0.0:
        raise ValueError("circle instance needs k > 0")
    r = k ** -0.75
    w = math.sqrt(k)
    lam_full = 2.0 * math.pi / w
    domain = Interval(0.0, lam_full)

    frame = AdaptedFrame(np.array((r, 0.0)), np.array((0.0, r * w)),
                         np.array((-r * w * w, 0.0)))
    curve = constant_curvature_curve(k, domain, frame)
    return CircleInstance(curve=curve, k=k, radius=r, lam_full=lam_full,
                          configs=(_SQUARE, _HEX))
