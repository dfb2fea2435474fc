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

from .kfuncs import BRENT_MAXITER, BRENT_RTOL, DomainError, Interval, brent_root, ck, sk, ybar
from .odekernel import StepReader, dop853, third_order_op, values_at

Vec = np.ndarray

QUAD_KW = dict(epsabs=1e-11, epsrel=1e-11, limit=200)
_quad = None  # scipy.integrate.quad, imported by the first affine_arclength


class OrientationError(ValueError):
    """c' wedge c'' not positive: the arc is not positively-oriented convex."""


class ConvexityError(ValueError):
    """Graph second derivative not positive."""


def wedge(v: Sequence[float], w: Sequence[float]) -> float:
    """v1 w2 - v2 w1, the determinant of the rows v, w."""
    return float(v[0] * w[1] - v[1] * w[0])


def _wedge_rows(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`wedge` of each pair of rows of two (p, 2) arrays."""
    return v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]


def _vec(x: float, y: float) -> Vec:
    return np.array((x, y), dtype=float)


def _each(fn: Callable[[float], float], s: float | np.ndarray) -> float | np.ndarray:
    """fn(s) at a float; at a 1-D array, the float array of fn at each entry."""
    if isinstance(s, np.ndarray):
        return np.array([fn(u) for u in s.tolist()], dtype=float)
    return fn(s)


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e entry by entry with the scalar libm pow: NumPy's vectorised
    power can differ from it in the last bit (AVX-512 builds), and array
    reads must equal scalar reads bit for bit."""
    try:
        return _each(lambda v: v ** e, x)
    except OverflowError:
        raise DomainError("the curve's derivatives leave the float range") from None


@dataclass(frozen=True)
class AdaptedFrame:
    """Affine frame (origin, tangent, normal) with tangent wedge normal = 1.

    `to_adapted` sends origin -> (0,0), tangent -> (1,0), normal -> (0,1).
    """

    origin: Vec
    tangent: Vec
    normal: Vec

    def __post_init__(self) -> None:
        # in Python floats, which overflow to inf and NaN without a warning
        d = wedge(self.tangent.tolist(), self.normal.tolist())
        if not abs(d - 1.0) <= 1e-6:  # NaN fails too
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

    def to_adapted_rows(self, p: np.ndarray) -> np.ndarray:
        """`to_adapted` of each row of a (p, 2) array, as a (p, 2) array."""
        return self.to_adapted_vector_rows(p - self.origin)

    def to_adapted_vector_rows(self, v: np.ndarray) -> np.ndarray:
        """`to_adapted_vector` of each row of a (p, 2) array."""
        d = self.det
        return np.column_stack(((self.normal[1] * v[:, 0] - self.normal[0] * v[:, 1]) / d,
                                (-self.tangent[1] * v[:, 0] + self.tangent[0] * v[:, 1]) / d))

    def from_adapted(self, xy: Sequence[float]) -> Vec:
        return self.origin + xy[0] * self.tangent + xy[1] * self.normal

    def from_adapted_rows(self, xy: np.ndarray) -> np.ndarray:
        """`from_adapted` of each row of a (p, 2) array, as a (p, 2) array."""
        return self.origin + xy[:, :1] * self.tangent + xy[:, 1:] * self.normal


@dataclass(frozen=True)
class AffineCurve:
    """Unit-affine-speed plane curve with three derivatives and curvature.

    At a float s, `position` gives c(s) as a 2-vector, `derivatives` the
    2-vectors (c', c'', c''') and `curvature` a float.  Each also takes a
    1-D array of p parameters and returns, in one call, what the scalar
    reads would stack to, bit for bit: a (p, 2) array, three (p, 2)
    arrays, and a (p,) array.

    `inverse`, where the curve has one in closed form, maps a (p, 2)
    array of points on the curve's conic to their parameters: NaN off the
    curve's branch, and otherwise a parameter that may lie outside the
    domain when the point lies beyond an end of the arc."""

    domain: Interval
    position: Callable[[float | np.ndarray], Vec]
    derivatives: Callable[[float | np.ndarray], tuple[Vec, Vec, Vec]]
    curvature: Callable[[float | np.ndarray], float | np.ndarray]
    label: str = ""
    inverse: Callable[[np.ndarray], np.ndarray] | None = None

    def point(self, s: float | np.ndarray) -> Vec:
        return np.asarray(self.position(s), dtype=float)

    def velocity(self, s: float) -> Vec:
        return self.derivatives(s)[0]

    def unit_speed_defect(self, n: int = 1000) -> float:
        d1, d2, _ = self.derivatives(np.linspace(self.domain.lo, self.domain.hi, n))
        return float(np.max(np.abs(_wedge_rows(d1, d2) - 1.0)))

    def structure_defect(self, n: int = 200) -> float:
        """Sup of |c''' + kappa c'| over a sample grid."""
        ss = np.linspace(self.domain.lo, self.domain.hi, n)
        d1, _, d3 = self.derivatives(ss)
        return float(np.max(np.abs(d3 + self.curvature(ss)[:, None] * d1)))


@dataclass(frozen=True)
class ParametricCurve:
    """Raw analytic curve: position and derivative closures in a free parameter.

    A closure may also take a 1-D array of parameters and return its two
    components as arrays (or floats, broadcast); it must then give each
    entry the float of the scalar call, as the polynomial graphs of
    `specfiles` do (NumPy's `**` does not: it can differ from Python's in
    the last bit).  Such a closure is read in one call; one that raises
    TypeError or ValueError on an array, such as a `math` lambda, is read
    entry by entry."""

    position: Callable[[float], Sequence[float]]
    d1: Callable[[float], Sequence[float]]
    d2: Callable[[float], Sequence[float]]
    d3: Callable[[float], Sequence[float]] | None = None
    d4: Callable[[float], Sequence[float]] | None = None

    def rows(self, fn: Callable[[float], Sequence[float]], t: np.ndarray) -> np.ndarray:
        """fn, one of the closures, at each entry of t, as a (p, 2) array."""
        try:
            x, y, _ = np.broadcast_arrays(*fn(t), t)
        except (TypeError, ValueError):  # a scalar-only closure
            pass
        else:
            return np.column_stack((x, y)).astype(float, copy=False)
        return np.array([fn(u) for u in t.tolist()], dtype=float).reshape(-1, 2)


def affine_curvature_at(curve: AffineCurve, s: float) -> float:
    """kappa = c'' wedge c''', valid under unit affine speed."""
    _, d2, d3 = curve.derivatives(s)
    return wedge(d2, d3)


def constant_curvature_curve(k: float, interval: Interval,
                             frame: AdaptedFrame | None = None,
                             label: str = "") -> AffineCurve:
    """Closed-form curve with curvature k through frame.origin at s = 0.

    An array of parameters is read with one array call of each profile
    (`sk` and `ybar` for the position, `ck` and `sk` for the derivatives),
    whose entries equal the scalar reads bit for bit: the profiles call
    libm's sin, cos, sinh and cosh entry by entry rather than NumPy's.

    The inverse takes the adapted coordinates (x, y) = frame^-1 (p - origin)
    of a point of the conic x^2 + k y^2 = 2 y: s = x for k = 0,
    asinh(sqrt(-k) x) / sqrt(-k) on the branch 1 - k y > 0 for k < 0 (NaN
    on the other), and atan2(sqrt(k) x, 1 - k y) / sqrt(k) for k > 0,
    shifted by whole turns into [lo, lo + 2 pi / sqrt(k)).
    """
    fr = frame or AdaptedFrame.identity()

    def position(s: float | np.ndarray) -> Vec:
        if isinstance(s, np.ndarray):
            return fr.from_adapted_rows(np.column_stack((sk(k, s), ybar(k, s))))
        return fr.from_adapted((sk(k, s), ybar(k, s)))

    def inverse(p: np.ndarray) -> np.ndarray:
        x, y = fr.to_adapted_rows(p).T
        if k == 0.0:
            return x
        r = np.sqrt(abs(k))
        if k < 0.0:
            return np.where(1.0 - k * y > 0.0, np.arcsinh(r * x) / r, np.nan)
        turn = 2.0 * np.pi / r
        return interval.lo + np.mod(np.arctan2(r * x, 1.0 - k * y) / r - interval.lo, turn)

    def derivatives(s: float | np.ndarray):
        if isinstance(s, np.ndarray):
            c, sn = ck(k, s)[:, None], sk(k, s)[:, None]
        else:
            c, sn = ck(k, s), sk(k, s)
        d1 = c * fr.tangent + sn * fr.normal
        d2 = -k * sn * fr.tangent + c * fr.normal
        return d1, d2, -k * d1

    def curvature(s: float | np.ndarray) -> float | np.ndarray:
        return np.full(s.shape, k, dtype=float) if isinstance(s, np.ndarray) else k

    return AffineCurve(interval, position, derivatives, curvature,
                       label=label or f"constant-curvature k={k}", inverse=inverse)


def parabola_curve(interval: Interval) -> AffineCurve:
    """The canonical unit-speed parabola (s, s^2/2)."""
    return constant_curvature_curve(0.0, interval, label="parabola")


def _min_speed_check(raw: ParametricCurve, t0: float, t1: float) -> None:
    ts = np.linspace(t0, t1, 257)
    g = _wedge_rows(raw.rows(raw.d1, ts), raw.rows(raw.d2, ts))
    bad = np.flatnonzero(g <= 0.0)
    if bad.size:
        raise OrientationError(
            f"c' wedge c'' = {g[bad[0]]} <= 0 at t = {ts[bad[0]]}; need a positively "
            "oriented locally convex arc")


def affine_arclength(raw: ParametricCurve, t0: float, t1: float) -> float:
    """Integral of (c' wedge c'')^(1/3) dt over [t0, t1]."""
    global _quad
    if _quad is None:
        from scipy.integrate import quad as _quad
    _min_speed_check(raw, t0, t1)

    def speed(t: float) -> float:
        g = wedge(raw.d1(t), raw.d2(t))
        if g < 0.0:  # between the checked samples
            raise OrientationError(f"c' wedge c'' = {g} < 0 at t = {t}; need a positively "
                                   "oriented locally convex arc")
        return g ** (1.0 / 3.0)

    val, _ = _quad(speed, t0, t1, **QUAD_KW)
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

    def rate(s: float, t: np.ndarray) -> float:
        """dt/ds; a solver stage can stray past the arc, where the curve
        need not be convex."""
        g = wedge(raw.d1(t[0]), raw.d2(t[0]))
        if not g > 0.0:
            raise OrientationError(f"c' wedge c'' = {g} <= 0 at t = {t[0]}, which the "
                                   "arc-length solve reached")
        return g ** (-1.0 / 3.0)

    t_of_s = dop853(rate, 0.0, lam, [t0], 1e-11, 1e-13)
    domain = Interval(0.0, lam)

    def t_at(s: float | np.ndarray) -> float | np.ndarray:
        if isinstance(s, np.ndarray):
            return np.clip(t_of_s.read(np.clip(s, 0.0, lam))[0], min(t0, t1), max(t0, t1))
        return float(np.clip(t_of_s.entry(np.clip(s, 0.0, lam), 0), min(t0, t1), max(t0, t1)))

    def position(s: float | np.ndarray) -> Vec:
        if isinstance(s, np.ndarray):  # one dense-output read for all the points
            return raw.rows(raw.position, t_at(s))
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

    def derivatives(s: float | np.ndarray):
        if isinstance(s, np.ndarray):
            return derivative_rows(s)
        t, c1, c2, c3, gv, gp, tp, tpp, d1, d2 = base_derivs(s)
        if raw.d4 is not None:
            c4 = np.asarray(raw.d4(t), dtype=float)
            gpp = wedge(c2, c3) + wedge(c1, c4)
            tppp = (5.0 / 9.0) * gp * gp * gv ** (-3.0) - (1.0 / 3.0) * gpp * gv ** (-2.0)
            d3 = c3 * tp ** 3 + 3.0 * c2 * tp * tpp + c1 * tppp
        else:
            d3 = _fd_vector(gamma2, s, domain)
        return d1, d2, d3

    def derivative_rows(s: np.ndarray):
        """`derivatives` at each entry of s: the scalar arithmetic above,
        done column-wise after one dense-output read of t(s).  Scalar reads
        keep their own path, which is the faster one for the root-finders
        that call it point by point."""
        t = t_at(s)
        c1, c2, c3 = (raw.rows(fn, t) for fn in (raw.d1, raw.d2, raw.d3))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            gv, gp = _wedge_rows(c1, c2), _wedge_rows(c1, c3)
            tp = _pow(gv, -1.0 / 3.0)
            tpp = -(1.0 / 3.0) * gp * _pow(gv, -5.0 / 3.0)
            d1 = c1 * tp[:, None]
            d2 = c2 * tp[:, None] * tp[:, None] + c1 * tpp[:, None]
            if raw.d4 is not None:
                c4 = raw.rows(raw.d4, t)
                gpp = _wedge_rows(c2, c3) + _wedge_rows(c1, c4)
                tppp = ((5.0 / 9.0) * gp * gp * _pow(gv, -3.0)
                        - (1.0 / 3.0) * gpp * _pow(gv, -2.0))
                d3 = (c3 * _pow(tp, 3)[:, None] + 3.0 * c2 * tp[:, None] * tpp[:, None]
                      + c1 * tppp[:, None])
            else:
                d3 = np.array([_fd_vector(gamma2, u, domain) for u in s.tolist()],
                              dtype=float).reshape(-1, 2)
        if not all(np.isfinite(d).all() for d in (d1, d2, d3)):
            raise DomainError("the curve's derivatives leave the float range")
        return d1, d2, d3

    def curvature(s: float | np.ndarray) -> float | np.ndarray:
        _, d2, d3 = derivatives(s)
        return _wedge_rows(d2, d3) if isinstance(s, np.ndarray) else wedge(d2, d3)

    return AffineCurve(domain, position, derivatives, curvature,
                       label=label or "reparameterized")


def _fd_vector(fn: Callable[[float], Vec], s: float, domain: Interval) -> Vec:
    """First derivative of a vector (or scalar) function by second-order
    differences, one-sided at the domain edges."""
    step = 1e-5 * max(1.0, domain.length)
    lo, hi = domain.lo, domain.hi
    if s - step >= lo and s + step <= hi:
        return (np.asarray(fn(s + step)) - np.asarray(fn(s - step))) / (2 * step)
    if s + 2 * step <= hi:
        return (-3 * np.asarray(fn(s)) + 4 * np.asarray(fn(s + step))
                - np.asarray(fn(s + 2 * step))) / (2 * step)
    return (3 * np.asarray(fn(s)) - 4 * np.asarray(fn(s - step))
            + np.asarray(fn(s - 2 * step))) / (2 * step)


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
    """A graph function with derivative closures (orders 0..4), each read
    as `ParametricCurve` reads its closures."""

    f: Callable[[float], float]
    f1: Callable[[float], float]
    f2: Callable[[float], float]
    f3: Callable[[float], float]
    f4: Callable[[float], float]


def graph_curve(jet: GraphJet, x0: float, x1: float, label: str = "") -> AffineCurve:
    """Unit-speed curve for the convex graph y = f(x) on [x0, x1]."""
    raw = ParametricCurve(
        position=lambda t: (t, jet.f(t)),
        d1=lambda t: (1.0, jet.f1(t)),
        d2=lambda t: (0.0, jet.f2(t)),
        d3=lambda t: (0.0, jet.f3(t)),
        d4=lambda t: (0.0, jet.f4(t)),
    )
    ts = np.linspace(x0, x1, 101)
    f2 = raw.rows(raw.d2, ts)[:, 1]
    bad = np.flatnonzero(f2 <= 0.0)
    if bad.size:
        raise ConvexityError(f"f''({ts[bad[0]]}) = {f2[bad[0]]} <= 0")
    return reparam_unit_speed(raw, x0, x1, label=label or "graph")


def reconstruct_from_curvature(kappa: Callable[[float], float] | float,
                               interval: Interval,
                               frame: AdaptedFrame | None = None) -> AffineCurve:
    """Curve with prescribed curvature, anchored by the frame at s = 0.

    The adapted coordinates x and y both solve u''' + kappa u' = 0, with
    jets (0, 1, 0) and (0, 0, 1) at s = 0, so they are the two columns of
    one matrix solve; the result is unique given the frame.  The solve is
    an `odekernel.StepReader` at rtol 1e-11: Magnus step propagators
    outward from s = 0 to each end, and per read one Runge-Kutta step from
    the last node between 0 and s, which also gives c''' = -kappa c'.  A read of
    an array of parameters calls kappa once where it takes arrays, and
    once per entry where it does not (see `odekernel.values_at`).
    """
    if not interval.lo <= 0.0 <= interval.hi:
        raise ValueError("reconstruction interval must contain the anchor s = 0")
    fr = frame or AdaptedFrame.identity()
    kap = kappa if callable(kappa) else (lambda s, k=float(kappa): k)
    sol = StepReader(third_order_op(kap, interval), 0.0,
                     np.array(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))), 1e-11)

    def position(s: float | np.ndarray) -> Vec:
        if isinstance(s, np.ndarray):
            return fr.from_adapted_rows(sol.read(np.clip(s, interval.lo, interval.hi))[:, 0])
        return fr.from_adapted(sol.state(interval.clamp(s))[0])

    def derivatives(s: float | np.ndarray):
        if isinstance(s, np.ndarray):  # one read for all the points
            u = sol.read(np.clip(s, interval.lo, interval.hi))
            return tuple(u[:, k, :1] * fr.tangent + u[:, k, 1:] * fr.normal for k in (1, 2, 3))
        u = sol.state(interval.clamp(s))
        return tuple(u[k][0] * fr.tangent + u[k][1] * fr.normal for k in (1, 2, 3))

    def curvature(s: float | np.ndarray) -> float | np.ndarray:
        return values_at(kap, s).copy() if isinstance(s, np.ndarray) else float(kap(s))

    return AffineCurve(interval, position, derivatives, curvature, label="reconstructed")


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (qk21): the Kronrod
# abscissae from the end inwards, then the centre, with their weights; the
# embedded 10-point Gauss rule uses every second abscissa, from the second
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208626368857, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_GK_NODES = np.array([-x for x in _XGK] + list(_XGK[-2::-1]))
_GK_WEIGHTS = np.array(_WGK + _WGK[-2::-1])
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _G_WEIGHTS[19:10:-2] = _WG

AREA_TOL = 1e-11            # absolute, and relative to the largest |A| sampled
AREA_MAX_DEPTH = 7          # bisections of a knot interval before its panels count as they are


@dataclass(frozen=True)
class AreaFunction:
    """Signed area swept between the curve and segments from the apex p0.

    A(s) = 1/2 integral_a^s (c - p0) wedge c'; positive where the sweep
    is right-handed.  A call at a 1-D array of samples computes all of
    them in one adaptive Gauss-Kronrod pass: the knots are the sorted
    samples and the base a, every panel between knots is read at its 21
    nodes in one array call of the curve, and the rejected panels of all
    intervals are bisected together.  A panel is accepted when QUADPACK's
    error estimate is within its length's share of
    AREA_TOL * max(1, |A|).  Panels still rejected after AREA_MAX_DEPTH
    bisections count with their estimates and errors, so a pass always
    ends, after at most 2**(AREA_MAX_DEPTH + 1) - 1 panels per interval.
    An integrand that leaves the float range is a DomainError.
    The values are partial sums outward from the base, so A(a) = 0.
    """

    curve: AffineCurve
    a: float
    p0: Vec

    def __call__(self, s: float | np.ndarray) -> float | np.ndarray:
        return self.with_error(s)[0]

    def with_error(self, s: float | np.ndarray) -> tuple:
        """A(s) and an estimate of its absolute error, at a float or at
        each entry of a 1-D array."""
        ss = np.atleast_1d(np.asarray(s, dtype=float))
        knots = np.unique(np.append(ss, self.a))
        base = int(np.searchsorted(knots, self.a))
        values, errors = self._sweep(knots, base)
        at = np.searchsorted(knots, ss)
        if isinstance(s, np.ndarray):
            return values[at], errors[at]
        return float(values[at[0]]), float(errors[at[0]])

    def _sweep(self, knots: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
        """A and its error estimate at the knots, zero at knots[base]."""
        n = len(knots) - 1
        lo, hi, owner = knots[:-1], knots[1:], np.arange(n)
        totals, errors = np.zeros(n), np.zeros(n)
        span = knots[-1] - knots[0]
        for depth in range(AREA_MAX_DEPTH + 1):
            if not len(lo):
                break
            with np.errstate(over="ignore", invalid="ignore"):
                res, err = self._panels(lo, hi)
            if not (np.isfinite(res).all() and np.isfinite(err).all()):
                raise DomainError("the swept area leaves the float range")
            sums = totals + np.bincount(owner, res, minlength=n)
            tol = AREA_TOL * max(1.0, float(np.max(np.abs(_from_base(sums, base)))))
            with np.errstate(over="ignore"):
                cap = tol * (hi - lo)
            if not np.isfinite(cap).all():
                raise DomainError("the swept area leaves the float range")
            ok = (err <= cap / span) | (depth == AREA_MAX_DEPTH)
            totals += np.bincount(owner[ok], res[ok], minlength=n)
            errors += np.bincount(owner[ok], err[ok], minlength=n)
            lo, hi, owner = lo[~ok], hi[~ok], owner[~ok]
            mid = 0.5 * (lo + hi)
            lo, hi, owner = np.append(lo, mid), np.append(mid, hi), np.append(owner, owner)
        return _from_base(totals, base), np.abs(_from_base(errors, base))

    def _panels(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """QUADPACK qk21 on each panel [lo, hi]: the Kronrod value and the
        error estimate, with the integrand read at all nodes at once."""
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes = centre[:, None] + half[:, None] * _GK_NODES
        f = self.prime(nodes.ravel()).reshape(nodes.shape)
        resk = (f * _GK_WEIGHTS).sum(axis=1)
        resg = (f * _G_WEIGHTS).sum(axis=1)
        width = np.abs(half)
        resabs = (np.abs(f) * _GK_WEIGHTS).sum(axis=1) * width
        resasc = (np.abs(f - 0.5 * resk[:, None]) * _GK_WEIGHTS).sum(axis=1) * width
        err = np.abs((resk - resg) * half)
        ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc != 0.0)
        err = np.where(resasc != 0.0, resasc * np.minimum(1.0, ratio ** 1.5), err)
        return resk * half, np.maximum(50.0 * np.finfo(float).eps * resabs, err)

    def prime(self, s: float | np.ndarray) -> float | np.ndarray:
        """A'(s), at a float or at each entry of a 1-D array."""
        if isinstance(s, np.ndarray):
            return 0.5 * _wedge_rows(self.curve.point(s) - self.p0, self.curve.derivatives(s)[0])
        return 0.5 * wedge(self.curve.point(s) - self.p0, self.curve.derivatives(s)[0])

    def second(self, s: float) -> float:
        return 0.5 * wedge(self.curve.point(s) - self.p0, self.curve.derivatives(s)[1])


def _from_base(per_interval: np.ndarray, base: int) -> np.ndarray:
    """Partial sums of the per-interval values outward from knot `base`:
    the integral from knots[base] to each knot, exactly 0 at the base."""
    out = np.zeros(len(per_interval) + 1)
    out[base + 1:] = np.cumsum(per_interval[base:])
    out[:base] = -np.cumsum(per_interval[:base][::-1])[::-1]
    return out


def area_function(curve: AffineCurve, a: float, p0: Sequence[float] | None = None) -> AreaFunction:
    if not (a in curve.domain):
        raise ValueError(f"base parameter {a} outside curve domain")
    apex = curve.point(a) if p0 is None else np.asarray(p0, dtype=float)
    return AreaFunction(curve, a, apex)


def area_ode_residual(curve: AffineCurve, area: AreaFunction) -> float:
    """Sup over 41 points of the domain of |A''' + kappa A' - 1/2|, with
    A''' taken by differencing A'' (the two lower derivatives are
    evaluated in closed form from the wedge expressions)."""
    worst = 0.0
    for s in np.linspace(curve.domain.lo, curve.domain.hi, 41):
        a3 = float(_fd_vector(area.second, s, curve.domain))
        worst = max(worst, abs(a3 + curve.curvature(s) * area.prime(s) - 0.5))
    return worst


def adapted_frame(curve: AffineCurve, s0: float) -> AdaptedFrame:
    """Frame with axes along the affine tangent and normal at c(s0)."""
    d1, d2, _ = curve.derivatives(s0)
    return AdaptedFrame(curve.point(s0), np.asarray(d1, float), np.asarray(d2, float))


def graphing_parameter_set(curve: AffineCurve, s0: float) -> Interval:
    """Connected component of s0 where the adapted x-coordinate increases.

    Endpoints are domain endpoints or zeros of x', bracketed to 1e-10;
    on the result the curve is the graph of a convex function in the
    adapted coordinates at s0.  Each direction steps from s0 by a
    thousandth of the domain up to its end, and reads x' at all the steps
    in one array call; the first step with x' <= 0 and the one before it
    bracket the zero.
    """
    fr = adapted_frame(curve, s0)

    def xprime(s: float) -> float:
        return float(fr.to_adapted_vector(curve.derivatives(s)[0])[0])

    lo, hi = curve.domain.lo, curve.domain.hi
    step = max(1e-3 * curve.domain.length, 1e-12)

    def hunt(direction: int) -> float:
        end = hi if direction > 0 else lo
        prev = s0
        while True:
            # prev + step, (prev + step) + step, ... as a loop would sum them,
            # to the first point at or past end, which becomes end
            n = int(min(abs(end - prev) / step, 4096.0)) + 2
            pts = np.add.accumulate(np.append(prev, np.full(n, direction * step)))[1:]
            past = pts >= end if direction > 0 else pts <= end
            if past.any():
                pts = pts[:int(np.argmax(past)) + 1]
                pts[-1] = end
            xp = fr.to_adapted_vector_rows(curve.derivatives(pts)[0])[:, 0]
            turn = np.flatnonzero(xp <= 0.0)
            if turn.size:
                i = int(turn[0])
                a, b = sorted((prev if i == 0 else float(pts[i - 1]), float(pts[i])))
                return brent_root(xprime, a, b, 1e-10, BRENT_RTOL, BRENT_MAXITER)
            if past.any():
                return end
            prev = float(pts[-1])  # rounding kept the sums short of end

    return Interval(hunt(-1), hunt(+1))
