"""The extremal curve-plus-lattice configurations where the counting
bounds are attained.

Each instance packages a unit-speed curve, an exact lattice, an exactly
enumerable arc, the expected lattice points, and the bound it attains.
All instances have multiplier 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .conics import Conic
from .curve import AdaptedFrame, AffineCurve, constant_curvature_curve
from .kfuncs import Interval
from .lattice import (
    COUNT_BOUNDS,
    ConicArc,
    CountBoundCertificate,
    Lattice,
    LatticePointSet,
    LinearConstraint,
    enumerate_on_arc,
    plane_conic_from_lattice_frame,
)

logger = logging.getLogger(__name__)

ALPHA = 2.0 ** (-1.0 / 3.0) * 5.0 ** (1.0 / 6.0)
ZXZ_SPACING = math.asinh(math.sqrt(5.0) / 2.0) / ALPHA
ZXZ_CONIC = Conic.make(1, -1, -1, 0, 0, -1)


@lru_cache(maxsize=None)
def fibonacci(n: int) -> int:
    """f_0 = 0, f_1 = 1, extended to f_{-1} = 1."""
    if n == -1:
        return 1
    if n < -1:
        raise ValueError("only indices >= -1 are needed here")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@dataclass(frozen=True)
class SharpInstance:
    """A curve/lattice pair attaining one of the counting bounds, with
    constant curvature k0 over the whole curve domain."""

    curve: AffineCurve
    lattice: Lattice
    arc: ConicArc
    expected_coords: tuple[tuple[int, int], ...]
    theorem: str  # 'sharp_lat' or 'rigid_lat'
    k0: float
    spacing: float
    seed_params: tuple[float, ...]

    @property
    def expected_bound(self) -> int:
        return len(self.expected_coords)

    @property
    def cell_area(self) -> Fraction:
        return self.lattice.cell_area

    def seed_points(self):
        return [self.lattice.point(m, n) for m, n in self.expected_coords[:4]]

    def enumerate(self) -> LatticePointSet:
        return enumerate_on_arc(self.arc, self.lattice)

    def certificate(self) -> CountBoundCertificate:
        return COUNT_BOUNDS[self.theorem](self.k0, self.k0, self.curve.domain.length, 1,
                                          float(self.cell_area))

    def plane_conic(self) -> Conic:
        if self.arc.frame == "lattice":
            return plane_conic_from_lattice_frame(self.arc.conic, self.lattice)
        return self.arc.conic

    def to_curve_spec(self) -> dict:
        """Conic-type curve specification anchored at the curve's s = 0 point."""
        conic = self.plane_conic()
        seed = self.curve.point(0.0)
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


def _lattice_param_map(lat: Lattice, spacing: float, coord: int, transform):
    """Map a plane point to its arc parameter through a float lattice-coord
    solve (ordering only; membership stays exact)."""
    v0 = (float(lat.v0[0]), float(lat.v0[1]))
    v1 = (float(lat.v1[0]), float(lat.v1[1]))
    v2 = (float(lat.v2[0]), float(lat.v2[1]))
    det = v1[0] * v2[1] - v1[1] * v2[0]

    def param(x: float, y: float) -> float:
        qx, qy = x - v0[0], y - v0[1]
        m = (qx * v2[1] - qy * v2[0]) / det
        n = (v1[0] * qy - v1[1] * qx) / det
        return transform((m, n)[coord]) * spacing

    return param


def parabola_instance(lat: Lattice | None = None, m0: int = 1,
                      rigid: bool = False) -> SharpInstance:
    """Parabolic arc through 2*m0+2 (or 2*m0+1 for the rigid variant)
    lattice points at affine spacing (v1 wedge v2)^(1/3).

    In lattice coordinates the curve is n = m(m-1)/2, so for the standard
    lattice the points are (j, j(j-1)/2).
    """
    if m0 < 0:
        raise ValueError("m0 must be nonnegative")
    lat = _oriented(lat or Lattice.standard())
    cell = float(lat.cell_area)
    alpha = cell ** (-1.0 / 3.0)
    spacing = 1.0 / alpha
    v0 = np.array([float(c) for c in lat.v0])
    v1 = np.array([float(c) for c in lat.v1])
    v2 = np.array([float(c) for c in lat.v2])

    j_start = 1 if rigid else 0
    j_end = 2 * m0 + 1
    domain = Interval(j_start * spacing, j_end * spacing)

    frame = AdaptedFrame(v0, alpha * (v1 - v2 / 2.0), alpha * alpha * v2)
    curve = constant_curvature_curve(0.0, domain, frame,
                                     label=f"parabola instance m0={m0}")

    arc = ConicArc(
        conic=Conic.make(1, 0, 0, -1, -2, 0),
        constraints=(LinearConstraint.make(1, 0, -j_start),
                     LinearConstraint.make(-1, 0, j_end)),
        bbox=(j_start - 1.0, j_end + 1.0, 0.0, 0.0),
        frame="lattice",
        param_of=_lattice_param_map(lat, spacing, 0, lambda m: m),
    )

    return SharpInstance(
        curve=curve, lattice=lat, arc=arc,
        expected_coords=tuple((j, j * (j - 1) // 2) for j in range(j_start, j_end + 1)),
        theorem="rigid_lat" if rigid else "sharp_lat",
        k0=0.0, spacing=spacing,
        seed_params=tuple(j * spacing for j in range(j_start, j_start + 4)),
    )


def _zxz_coords(j: int) -> tuple[int, int]:
    return (fibonacci(2 * j - 3), -fibonacci(2 * j - 2))


def hyperbola_zxz_instance(m0: int, rigid: bool = False) -> SharpInstance:
    """Arc of x^2 - xy - y^2 = 1 through the odd-index Fibonacci points of
    the standard lattice; constant curvature -alpha^2."""
    return hyperbola_general_instance(Lattice.standard(), m0, rigid)


def hyperbola_general_instance(lat: Lattice, m0: int,
                               rigid: bool = False) -> SharpInstance:
    """The standard-lattice hyperbola example transferred to an arbitrary
    lattice.

    With b = (v1 wedge v2)^(1/3) the transferred curve evaluates the
    standard coordinates at s/b, its spacing is b L, and its curvature
    -alpha^2 / b^2; this keeps unit affine speed and the profile identity
    hk(k0, spacing) = cell/2.
    """
    if m0 < 1:
        raise ValueError("m0 must be at least 1")
    lat = _oriented(lat)
    cell = float(lat.cell_area)
    b = cell ** (1.0 / 3.0)
    spacing = b * ZXZ_SPACING
    w = ALPHA / b
    k0 = -w ** 2
    sqrt5 = math.sqrt(5.0)
    v0 = np.array([float(c) for c in lat.v0])
    v1 = np.array([float(c) for c in lat.v1])
    v2 = np.array([float(c) for c in lat.v2])

    j_start = 2 if rigid else 1
    j_end = 2 * m0 + 2
    domain = Interval((j_start - 1) * spacing, (j_end - 1) * spacing)

    frame = AdaptedFrame(v0 + v1, -w * (v1 + 2.0 * v2) / sqrt5, w * w * v1)
    curve = constant_curvature_curve(k0, domain, frame,
                                     label=f"transferred hyperbola m0={m0}")

    y_top = -fibonacci(2 * j_start - 2)
    y_bot = -fibonacci(2 * j_end - 2)
    arc = ConicArc(
        conic=ZXZ_CONIC,
        constraints=(LinearConstraint.make(1, 0, 0),
                     LinearConstraint.make(0, 1, -y_bot),
                     LinearConstraint.make(0, -1, y_top)),
        bbox=(0.0, fibonacci(2 * j_end - 3) + 1.0, y_bot - 1.0, y_top + 1.0),
        frame="lattice",
        param_of=_lattice_param_map(
            lat, spacing, 1,
            lambda n: math.asinh(-sqrt5 * n / 2.0) / ALPHA / ZXZ_SPACING),
    )

    return SharpInstance(
        curve=curve, lattice=lat, arc=arc,
        expected_coords=tuple(_zxz_coords(j) for j in range(j_start, j_end + 1)),
        theorem="rigid_lat" if rigid else "sharp_lat",
        k0=k0, spacing=spacing,
        seed_params=tuple((j - 1) * spacing for j in range(j_start, j_start + 4)),
    )


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

    def orbit_coords(self, count: int) -> list[tuple[int, int]]:
        (a, b), (c, d) = self.basis_matrix
        t1, t2 = self.offset
        out = [self.point_coords[0]]
        while len(out) < count:
            m, n = out[-1]
            out.append((a * m + b * n + t1, c * m + d * n + t2))
        return out

    def orbit_on_conic(self, count: int) -> bool:
        return all(self.lattice_frame_conic(m, n) == 0
                   for m, n in self.orbit_coords(count))


def rotation_trace(theta: float) -> float:
    return 2.0 * math.cos(theta)


def is_classified_angle(theta: float) -> bool:
    """Whether 2 cos(theta) is within 1e-9 of an integer, which happens
    exactly at multiples of pi/3 and pi/2."""
    t = rotation_trace(theta)
    return abs(t - round(t)) <= 1e-9


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

    def plane_points(self, config: CircleConfig, count: int) -> list[tuple[float, float]]:
        return [(self.radius * math.cos(j * config.theta),
                 self.radius * math.sin(j * config.theta))
                for j in range(count)]


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
    curve = constant_curvature_curve(k, domain, frame, label=f"circle k={k}")
    return CircleInstance(curve=curve, k=k, radius=r, lam_full=lam_full,
                          configs=(_SQUARE, _HEX))
