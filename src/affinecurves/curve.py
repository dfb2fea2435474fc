"""Affine-geometric primitives on convex plane curves.

Curves are immutable value objects carrying a dense-output position, the
first three derivatives, and the curvature, all in the affine arc-length
parameter (c' wedge c'' identically 1).  Constructors accept analytic
closures, a curvature function with an initial frame (reconstruction), or
a convex graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.integrate import solve_ivp as _sp_solve_ivp
from scipy.optimize import brentq

from .kfuncs import Interval, ck, sk, ybar
from .odekernel import solve_ivp, third_order_op

Vec = np.ndarray

QUAD_KW = dict(epsabs=1e-11, epsrel=1e-11, limit=200)


class OrientationError(ValueError):
    """c' wedge c'' not positive: the arc is not positively-oriented convex."""


class ConvexityError(ValueError):
    """Graph second derivative not positive."""


def wedge(v: Sequence[float], w: Sequence[float]) -> float:
    """v1 w2 - v2 w1, the determinant of the rows v, w."""
    return float(v[0] * w[1] - v[1] * w[0])


def _vec(x: float, y: float) -> Vec:
    return np.array((x, y), dtype=float)


@dataclass(frozen=True)
class AdaptedFrame:
    """Affine frame (origin, tangent, normal) with tangent wedge normal = 1.

    `to_adapted` sends origin -> (0,0), tangent -> (1,0), normal -> (0,1).
    """

    origin: Vec
    tangent: Vec
    normal: Vec

    def __post_init__(self) -> None:
        d = wedge(self.tangent, self.normal)
        if abs(d - 1.0) > 1e-6:
            raise ValueError(f"frame determinant {d} != 1")

    @classmethod
    def identity(cls) -> "AdaptedFrame":
        return cls(_vec(0, 0), _vec(1, 0), _vec(0, 1))

    @property
    def det(self) -> float:
        return wedge(self.tangent, self.normal)

    def to_adapted(self, p: Sequence[float]) -> Vec:
        q = np.asarray(p, dtype=float) - self.origin
        d = self.det
        return _vec(
            (self.normal[1] * q[0] - self.normal[0] * q[1]) / d,
            (-self.tangent[1] * q[0] + self.tangent[0] * q[1]) / d,
        )

    def to_adapted_vector(self, v: Sequence[float]) -> Vec:
        """Linear part only (for derivatives)."""
        d = self.det
        return _vec(
            (self.normal[1] * v[0] - self.normal[0] * v[1]) / d,
            (-self.tangent[1] * v[0] + self.tangent[0] * v[1]) / d,
        )

    def from_adapted(self, xy: Sequence[float]) -> Vec:
        return self.origin + xy[0] * self.tangent + xy[1] * self.normal

    def from_adapted_rows(self, xy: np.ndarray) -> np.ndarray:
        """`from_adapted` of each row of a (p, 2) array, as a (p, 2) array."""
        return self.origin + xy[:, :1] * self.tangent + xy[:, 1:] * self.normal


@dataclass(frozen=True)
class AffineCurve:
    """Unit-affine-speed plane curve with three derivatives and curvature.

    `position` also takes a 1-D array of p parameters and returns the
    (p, 2) array of the scalar reads, in one call."""

    domain: Interval
    position: Callable[[float | np.ndarray], Vec]
    derivatives: Callable[[float], tuple[Vec, Vec, Vec]]
    curvature: Callable[[float], float]
    label: str = ""

    def point(self, s: float | np.ndarray) -> Vec:
        return np.asarray(self.position(s), dtype=float)

    def velocity(self, s: float) -> Vec:
        return self.derivatives(s)[0]

    def unit_speed_defect(self, n: int = 1000) -> float:
        worst = 0.0
        for s in np.linspace(self.domain.lo, self.domain.hi, n):
            d1, d2, _ = self.derivatives(s)
            worst = max(worst, abs(wedge(d1, d2) - 1.0))
        return worst

    def structure_defect(self, n: int = 200) -> float:
        """Sup of |c''' + kappa c'| over a sample grid."""
        worst = 0.0
        for s in np.linspace(self.domain.lo, self.domain.hi, n):
            d1, _, d3 = self.derivatives(s)
            worst = max(worst, float(np.max(np.abs(d3 + self.curvature(s) * d1))))
        return worst


@dataclass(frozen=True)
class ParametricCurve:
    """Raw analytic curve: position and derivative closures in a free parameter."""

    position: Callable[[float], Sequence[float]]
    d1: Callable[[float], Sequence[float]]
    d2: Callable[[float], Sequence[float]]
    d3: Callable[[float], Sequence[float]] | None = None
    d4: Callable[[float], Sequence[float]] | None = None


def affine_curvature_at(curve: AffineCurve, s: float) -> float:
    """kappa = c'' wedge c''', valid under unit affine speed."""
    _, d2, d3 = curve.derivatives(s)
    return wedge(d2, d3)


def constant_curvature_curve(k: float, interval: Interval,
                             frame: AdaptedFrame | None = None,
                             label: str = "") -> AffineCurve:
    """Closed-form curve with curvature k through frame.origin at s = 0."""
    fr = frame or AdaptedFrame.identity()

    def position(s: float | np.ndarray) -> Vec:
        if isinstance(s, np.ndarray):
            return fr.from_adapted_rows(np.array([(sk(k, u), ybar(k, u)) for u in s.tolist()]))
        return fr.from_adapted((sk(k, s), ybar(k, s)))

    def derivatives(s: float):
        c, sn = ck(k, s), sk(k, s)
        d1 = c * fr.tangent + sn * fr.normal
        d2 = -k * sn * fr.tangent + c * fr.normal
        return d1, d2, -k * d1

    return AffineCurve(interval, position, derivatives, lambda s: k,
                       label=label or f"constant-curvature k={k}")


def parabola_curve(interval: Interval) -> AffineCurve:
    """The canonical unit-speed parabola (s, s^2/2)."""
    return constant_curvature_curve(0.0, interval, label="parabola")


def _min_speed_check(d1, d2, t0: float, t1: float, n: int = 257) -> None:
    for t in np.linspace(t0, t1, n):
        g = wedge(d1(t), d2(t))
        if g <= 0.0:
            raise OrientationError(
                f"c' wedge c'' = {g} <= 0 at t = {t}; need a positively "
                "oriented locally convex arc")


def affine_arclength(raw: ParametricCurve, t0: float, t1: float) -> float:
    """Integral of (c' wedge c'')^(1/3) dt over [t0, t1]."""
    _min_speed_check(raw.d1, raw.d2, t0, t1)
    val, _ = quad(lambda t: wedge(raw.d1(t), raw.d2(t)) ** (1.0 / 3.0),
                  t0, t1, **QUAD_KW)
    return val


def reparam_unit_speed(raw: ParametricCurve, t0: float, t1: float,
                       label: str = "") -> AffineCurve:
    """Reparameterize a locally convex arc by affine arc length.

    The parameter change t(s) solves dt/ds = (c' wedge c'')^(-1/3) with
    dense output.  The third spatial derivative uses the raw fourth
    derivative when supplied and a finite-difference fallback otherwise.
    """
    if raw.d3 is None:
        raise ValueError("reparameterization needs three raw derivatives")
    lam = affine_arclength(raw, t0, t1)

    def g(t: float) -> float:
        return wedge(raw.d1(t), raw.d2(t))

    sol = _sp_solve_ivp(lambda s, t: g(t[0]) ** (-1.0 / 3.0), (0.0, lam),
                        [t0], method="DOP853", dense_output=True,
                        rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise OrientationError(f"parameter change failed: {sol.message}")
    t_of_s = sol.sol
    domain = Interval(0.0, lam)

    def t_at(s: float | np.ndarray) -> float | np.ndarray:
        t = np.clip(t_of_s(np.clip(s, 0.0, lam))[0], min(t0, t1), max(t0, t1))
        return t if isinstance(s, np.ndarray) else float(t)

    def position(s: float | np.ndarray) -> Vec:
        if isinstance(s, np.ndarray):  # one dense-output read for all the points
            return np.array([raw.position(t) for t in t_at(s).tolist()], dtype=float)
        return np.asarray(raw.position(t_at(s)), dtype=float)

    def base_derivs(s: float):
        t = t_at(s)
        c1 = np.asarray(raw.d1(t), dtype=float)
        c2 = np.asarray(raw.d2(t), dtype=float)
        c3 = np.asarray(raw.d3(t), dtype=float)
        gv = wedge(c1, c2)
        gp = wedge(c1, c3)
        tp = gv ** (-1.0 / 3.0)
        tpp = -(1.0 / 3.0) * gp * gv ** (-5.0 / 3.0)
        d1 = c1 * tp
        d2 = c2 * tp * tp + c1 * tpp
        return t, c1, c2, c3, gv, gp, tp, tpp, d1, d2

    def gamma2(s: float) -> Vec:
        return base_derivs(s)[9]

    def derivatives(s: float):
        t, c1, c2, c3, gv, gp, tp, tpp, d1, d2 = base_derivs(s)
        if raw.d4 is not None:
            c4 = np.asarray(raw.d4(t), dtype=float)
            gpp = wedge(c2, c3) + wedge(c1, c4)
            tppp = (5.0 / 9.0) * gp * gp * gv ** (-3.0) - (1.0 / 3.0) * gpp * gv ** (-2.0)
            d3 = c3 * tp ** 3 + 3.0 * c2 * tp * tpp + c1 * tppp
        else:
            d3 = _fd_vector(gamma2, s, domain)
        return d1, d2, d3

    def curvature(s: float) -> float:
        d1, d2, d3 = derivatives(s)
        return wedge(d2, d3)

    return AffineCurve(domain, position, derivatives, curvature,
                       label=label or "reparameterized")


def _fd_vector(fn: Callable[[float], Vec], s: float, domain: Interval,
               h: float = 1e-5) -> Vec:
    """First derivative of a vector function by second-order differences,
    one-sided at the domain edges."""
    step = h * max(1.0, domain.length)
    lo, hi = domain.lo, domain.hi
    if s - step >= lo and s + step <= hi:
        return (np.asarray(fn(s + step)) - np.asarray(fn(s - step))) / (2 * step)
    if s + 2 * step <= hi:
        return (-3 * np.asarray(fn(s)) + 4 * np.asarray(fn(s + step))
                - np.asarray(fn(s + 2 * step))) / (2 * step)
    return (3 * np.asarray(fn(s)) - 4 * np.asarray(fn(s - step))
            + np.asarray(fn(s - 2 * step))) / (2 * step)


def _fd_scalar(fn: Callable[[float], float], s: float, domain: Interval,
               h: float = 1e-5) -> float:
    return float(_fd_vector(lambda u: np.array([fn(u)]), s, domain, h)[0])


def curvature_from_graph(f2: Callable[[float], float], x: float,
                         f3: Callable[[float], float] | None = None,
                         f4: Callable[[float], float] | None = None) -> float:
    """Affine curvature of the convex graph y = f(x) at x.

    Evaluates -1/2 ((f'')^(-2/3))'', expanded as
    f''''/(3 f''^(5/3)) - 5 f'''^2 / (9 f''^(8/3)).  Missing third/fourth
    derivatives fall back to central differences of f''.
    """
    v2 = f2(x)
    if v2 <= 0.0:
        raise ConvexityError(f"f''({x}) = {v2} <= 0")
    h = 1e-4 * max(1.0, abs(x))
    v3 = f3(x) if f3 is not None else (f2(x + h) - f2(x - h)) / (2 * h)
    if f4 is not None:
        v4 = f4(x)
    else:
        v4 = (f2(x + h) - 2 * v2 + f2(x - h)) / (h * h)
    return v4 / (3.0 * v2 ** (5.0 / 3.0)) - 5.0 * v3 * v3 / (9.0 * v2 ** (8.0 / 3.0))


@dataclass(frozen=True)
class GraphJet:
    """A graph function with derivative closures (orders 0..4)."""

    f: Callable[[float], float]
    f1: Callable[[float], float]
    f2: Callable[[float], float]
    f3: Callable[[float], float] | None = None
    f4: Callable[[float], float] | None = None


def graph_curve(jet: GraphJet, x0: float, x1: float, label: str = "") -> AffineCurve:
    """Unit-speed curve for the convex graph y = f(x) on [x0, x1]."""
    if jet.f3 is None:
        raise ValueError("graph reparameterization needs f''' (f4 optional)")
    raw = ParametricCurve(
        position=lambda t: (t, jet.f(t)),
        d1=lambda t: (1.0, jet.f1(t)),
        d2=lambda t: (0.0, jet.f2(t)),
        d3=lambda t: (0.0, jet.f3(t)),
        d4=(lambda t: (0.0, jet.f4(t))) if jet.f4 is not None else None,
    )
    for t in np.linspace(x0, x1, 101):
        if jet.f2(t) <= 0.0:
            raise ConvexityError(f"f''({t}) = {jet.f2(t)} <= 0")
    return reparam_unit_speed(raw, x0, x1, label=label or "graph")


def reconstruct_from_curvature(kappa: Callable[[float], float] | float,
                               interval: Interval,
                               frame: AdaptedFrame | None = None,
                               rtol: float = 1e-11, atol: float = 1e-13,
                               label: str = "") -> AffineCurve:
    """Curve with prescribed curvature, anchored by the frame at s = 0.

    The adapted coordinates x and y both solve u''' + kappa u' = 0, with
    jets (0, 1, 0) and (0, 0, 1) at s = 0, so they are the two columns of
    one matrix solve; the result is unique given the frame.
    """
    if not interval.lo <= 0.0 <= interval.hi:
        raise ValueError("reconstruction interval must contain the anchor s = 0")
    fr = frame or AdaptedFrame.identity()
    kap = kappa if callable(kappa) else (lambda s, k=float(kappa): k)
    sol = solve_ivp(third_order_op(kap, interval), 0.0, 0.0,
                    ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), rtol, atol)

    def position(s: float | np.ndarray) -> Vec:
        if isinstance(s, np.ndarray):
            return fr.from_adapted_rows(sol.eval(np.clip(s, interval.lo, interval.hi))[:, 0])
        return fr.from_adapted(sol.eval(interval.clamp(s))[0])

    def derivatives(s: float):
        u = sol.eval(interval.clamp(s))
        d1 = u[1, 0] * fr.tangent + u[1, 1] * fr.normal
        d2 = u[2, 0] * fr.tangent + u[2, 1] * fr.normal
        return d1, d2, -kap(s) * d1

    return AffineCurve(interval, position, derivatives,
                       lambda s: float(kap(s)), label=label or "reconstructed")


@dataclass(frozen=True)
class AreaFunction:
    """Signed area swept between the curve and segments from the apex p0.

    A(s) = 1/2 integral_a^s (c - p0) wedge c'; positive where the sweep
    is right-handed.
    """

    curve: AffineCurve
    a: float
    p0: Vec

    def __call__(self, s: float) -> float:
        if s == self.a:
            return 0.0
        val, _ = quad(lambda u: self.prime(u), self.a, s, **QUAD_KW)
        return val

    def prime(self, s: float) -> float:
        return 0.5 * wedge(self.curve.point(s) - self.p0, self.curve.derivatives(s)[0])

    def second(self, s: float) -> float:
        return 0.5 * wedge(self.curve.point(s) - self.p0, self.curve.derivatives(s)[1])


def area_function(curve: AffineCurve, a: float, p0: Sequence[float] | None = None) -> AreaFunction:
    if not (a in curve.domain):
        raise ValueError(f"base parameter {a} outside curve domain")
    apex = curve.point(a) if p0 is None else np.asarray(p0, dtype=float)
    return AreaFunction(curve, a, apex)


def area_ode_residual(curve: AffineCurve, area: AreaFunction,
                      grid: Sequence[float] | None = None) -> float:
    """Sup over the grid of |A''' + kappa A' - 1/2|, with A''' taken by
    differencing A'' (the two lower derivatives are evaluated in closed
    form from the wedge expressions)."""
    if grid is None:
        grid = np.linspace(curve.domain.lo, curve.domain.hi, 41)
    worst = 0.0
    for s in grid:
        a3 = _fd_scalar(area.second, s, curve.domain)
        worst = max(worst, abs(a3 + curve.curvature(s) * area.prime(s) - 0.5))
    return worst


def adapted_frame(curve: AffineCurve, s0: float) -> AdaptedFrame:
    """Frame with axes along the affine tangent and normal at c(s0)."""
    d1, d2, _ = curve.derivatives(s0)
    return AdaptedFrame(curve.point(s0), np.asarray(d1, float), np.asarray(d2, float))


def graphing_parameter_set(curve: AffineCurve, s0: float,
                           resolution: float = 1e-3) -> Interval:
    """Connected component of s0 where the adapted x-coordinate increases.

    Endpoints are domain endpoints or zeros of x', bracketed to 1e-10;
    on the result the curve is the graph of a convex function in the
    adapted coordinates at s0.
    """
    fr = adapted_frame(curve, s0)

    def xprime(s: float) -> float:
        return float(fr.to_adapted_vector(curve.derivatives(s)[0])[0])

    lo, hi = curve.domain.lo, curve.domain.hi
    step = max(resolution * curve.domain.length, 1e-12)

    def hunt(direction: int) -> float:
        end = hi if direction > 0 else lo
        prev = s0
        while True:
            nxt = prev + direction * step
            if (direction > 0 and nxt >= end) or (direction < 0 and nxt <= end):
                if xprime(end) > 0.0:
                    return end
                nxt = end
            if xprime(nxt) <= 0.0:
                a, b = (prev, nxt) if direction > 0 else (nxt, prev)
                return brentq(xprime, a, b, xtol=1e-10)
            if nxt == end:
                return end
            prev = nxt

    return Interval(hunt(-1), hunt(+1))
