"""Conic sections: invariants, affine frames, and exact arithmetic.

A conic a x^2 + b xy + c y^2 + d x + e y + f = 0 is stored with Fraction
coefficients so lattice membership tests stay exact.  Every nondegenerate
conic has constant affine curvature computable from its two classical
invariants, and an affine tangent/normal frame at any smooth point, which
together turn a branch into a reconstructed unit-speed curve.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curve import AdaptedFrame, AffineCurve, constant_curvature_curve
from .kfuncs import DomainError, Interval

RationalLike = int | str | float | Fraction


def frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


@dataclass(frozen=True)
class Conic:
    """a x^2 + b xy + c y^2 + d x + e y + f = 0 with exact coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    @classmethod
    def make(cls, a: RationalLike, b: RationalLike, c: RationalLike,
             d: RationalLike, e: RationalLike, f: RationalLike) -> "Conic":
        return cls(frac(a), frac(b), frac(c), frac(d), frac(e), frac(f))

    def __call__(self, x: RationalLike, y: RationalLike) -> Fraction:
        x, y = frac(x), frac(y)
        return (self.a * x * x + self.b * x * y + self.c * y * y
                + self.d * x + self.e * y + self.f)

    def evaluate_float(self, x: float, y: float) -> float:
        a, b, c, d, e, f = (float(v) for v in
                            (self.a, self.b, self.c, self.d, self.e, self.f))
        return a * x * x + b * x * y + c * y * y + d * x + e * y + f

    def gradient(self, x: float, y: float) -> np.ndarray:
        a, b, c, d, e = (float(v) for v in (self.a, self.b, self.c, self.d, self.e))
        return np.array((2 * a * x + b * y + d, b * x + 2 * c * y + e))

    @property
    def quad_disc(self) -> Fraction:
        """Discriminant of the quadratic part: ac - b^2/4."""
        return self.a * self.c - self.b * self.b / 4

    @property
    def full_det(self) -> Fraction:
        """Determinant of the symmetric 3x3 coefficient matrix."""
        a, c, f = self.a, self.c, self.f
        b2, d2, e2 = self.b / 2, self.d / 2, self.e / 2
        return (a * (c * f - e2 * e2) - b2 * (b2 * f - e2 * d2)
                + d2 * (b2 * e2 - c * d2))

    def curvature(self) -> float:
        """Constant affine curvature of the (nondegenerate) conic.

        delta / |Delta|^(2/3): positive for ellipses, zero for parabolas,
        negative for hyperbolas.
        """
        delta = self.full_det
        if delta == 0:
            raise DomainError("degenerate conic has no affine curvature")
        return float(self.quad_disc) / abs(float(delta)) ** (2.0 / 3.0)

    def frame_at(self, x: float, y: float) -> AdaptedFrame:
        """Affine tangent/normal frame of the positively oriented branch.

        The tangent is mu * (-Q_y, Q_x) with mu^3 (T0' H T0) = 1, where H is
        the Hessian of Q; the real cube root selects the orientation with
        c' wedge c'' = 1.  The normal follows from second-order contact and
        H-orthogonality to the tangent.
        """
        g = self.gradient(x, y)
        gnorm2 = float(g @ g)
        if gnorm2 == 0.0:
            raise DomainError(f"singular point of the conic at ({x}, {y})")
        t0 = np.array((-g[1], g[0]))
        hess = np.array([[2.0 * float(self.a), float(self.b)],
                         [float(self.b), 2.0 * float(self.c)]])
        q0 = float(t0 @ hess @ t0)
        if abs(q0) < sys.float_info.min:  # zero, or 1 / q0 overflows
            raise DomainError("tangent direction is asymptotic; no affine frame")
        mu = _cbrt(1.0 / q0)
        n0 = -g / gnorm2
        acoef = -float(t0 @ hess @ n0) / (mu * q0)
        tangent = mu * t0
        normal = acoef * t0 + n0 / mu
        try:
            return AdaptedFrame(np.array((float(x), float(y))), tangent, normal)
        except ValueError as exc:  # a frame overflowed to inf or NaN
            raise DomainError(str(exc)) from None

    def branch_curve(self, seed: tuple[float, float], interval: Interval) -> AffineCurve:
        """Unit-speed parameterization of the branch through the seed point,
        anchored there at s = 0.  A seed (x, y) is on the conic when
        |Q(x, y)| <= 1e-9 (|a| x^2 + |b x y| + |c| y^2 + |d x| + |e y| + |f|),
        a residual relative to the terms' scale, which must be finite."""
        x, y = seed
        terms = (x * x, abs(x * y), y * y, abs(x), abs(y), 1.0)
        scale = sum(abs(float(q)) * t for q, t in
                    zip((self.a, self.b, self.c, self.d, self.e, self.f), terms))
        if not (math.isfinite(scale) and abs(self.evaluate_float(x, y)) <= 1e-9 * scale):
            raise DomainError(f"seed {seed} not on the conic")
        k = self.curvature()
        fr = self.frame_at(*seed)
        return constant_curvature_curve(k, interval, fr)

    def coefficient_matrix(self) -> list[list[Fraction]]:
        b2, d2, e2 = self.b / 2, self.d / 2, self.e / 2
        return [[self.a, b2, d2], [b2, self.c, e2], [d2, e2, self.f]]

    @classmethod
    def from_coefficient_matrix(cls, s: list[list[Fraction]]) -> "Conic":
        return cls(s[0][0], 2 * s[0][1], s[1][1], 2 * s[0][2], 2 * s[1][2], s[2][2])

    def substituted(self, t: list[list[Fraction]]) -> "Conic":
        """Conic of Q composed with the affine map whose homogeneous 3x3
        matrix is t (exact): matrix transforms as T' S T."""
        s = self.coefficient_matrix()
        st = [[sum(s[i][k] * t[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
        tst = [[sum(t[k][i] * st[k][j] for k in range(3)) for j in range(3)]
               for i in range(3)]
        return Conic.from_coefficient_matrix(tst)
