"""Affine-geometric primitives on convex plane curves.

Curves are immutable value objects carrying a dense-output position, the
first three derivatives, and the curvature, all in the affine arc-length
parameter (c' wedge c'' identically 1).  Constructors take a constant
curvature with a frame (closed form), a curvature function with an
initial frame (reconstruction), or a convex graph y = f(x) with the
closures of f and its first four derivatives.  The area swept from a
point of the curve is the solution of the paper's area ODE
A''' + kappa A' = 1/2 (`AreaFunction`), which reads the curvature alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kfuncs import BRENT_MAXITER, BRENT_RTOL, DomainError, Interval, brent_root, ck, sk, ybar
from . import odekernel
from .odekernel import SolverError, StepReader, grid_jets, power_op, values_at

Vec = np.ndarray


class OrientationError(ValueError):
    """c' wedge c'' not positive: the arc is not positively-oriented convex."""


class ConvexityError(ValueError):
    """Graph second derivative not positive."""


def wedge(v: Sequence[float], w: Sequence[float]) -> float:
    """v1 w2 - v2 w1, the determinant of the rows v, w."""
    return float(v[0] * w[1] - v[1] * w[0])


def _wedge_rows(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`wedge` of each pair of rows of two (p, 2) arrays (of two 2-vectors,
    a NumPy float)."""
    return v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]


def _vec(x: float, y: float) -> Vec:
    return np.array((x, y), dtype=float)


def _power(v: float, e: float) -> float:
    """v ** e with the scalar libm pow, for v = c' wedge c'' or a power of
    it: v <= 0 is an OrientationError, a result past the float range a
    DomainError."""
    if not v > 0.0:
        raise OrientationError(f"c' wedge c'' = {v} <= 0; need a positively oriented "
                               "locally convex arc")
    try:
        return v ** e
    except OverflowError:
        raise DomainError("the curve's derivatives leave the float range") from None


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """`_power` at each entry of a 1-D array: NumPy's vectorised power can
    differ from libm's in the last bit (AVX-512 builds), so an entry would
    depend on the array it is read in."""
    return np.array([_power(v, e) for v in x.tolist()], dtype=float)


@dataclass(frozen=True)
class AdaptedFrame:
    """Affine frame (origin, tangent, normal) with tangent wedge normal = 1.

    `to_adapted_rows` sends origin -> (0,0), tangent -> (1,0), normal -> (0,1),
    and `from_adapted_rows` back.
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

    def to_adapted_vector(self, v: Sequence[float]) -> Vec:
        """Linear part only (for derivatives)."""
        return self.to_adapted_vector_rows(np.reshape(np.asarray(v, dtype=float), (1, 2)))[0]

    def to_adapted_rows(self, p: np.ndarray) -> np.ndarray:
        """The adapted coordinates of each point, a row of a (p, 2) array."""
        return self.to_adapted_vector_rows(p - self.origin)

    def to_adapted_vector_rows(self, v: np.ndarray) -> np.ndarray:
        """`to_adapted_vector` of each row of a (p, 2) array."""
        d = self.det
        return np.column_stack(((self.normal[1] * v[:, 0] - self.normal[0] * v[:, 1]) / d,
                                (-self.tangent[1] * v[:, 0] + self.tangent[0] * v[:, 1]) / d))

    def from_adapted_rows(self, xy: np.ndarray) -> np.ndarray:
        """The plane points of each row of adapted coordinates of a (p, 2) array."""
        return self.origin + xy[:, :1] * self.tangent + xy[:, 1:] * self.normal


def _read_one(read: Callable[[np.ndarray], object]) -> Callable:
    """`read`, which takes a 1-D array of parameters, also at a float (a
    NumPy scalar, a 0-d array): that is read as an array of one entry, and
    its entry is returned (of each array, where `read` returns a tuple)."""
    read = getattr(read, "array_read", read)  # already wrapped: `dataclasses.replace`

    def at(s: float | np.ndarray):
        if np.ndim(s):
            return read(s)
        out = read(np.array([s], dtype=float))
        return tuple(v[0] for v in out) if isinstance(out, tuple) else out[0]

    at.array_read = read
    return at


@dataclass(frozen=True)
class AffineCurve:
    """Unit-affine-speed plane curve with three derivatives and curvature.

    The closures `position`, `derivatives` and `curvature` are given as
    reads of a 1-D array of p parameters, which return a (p, 2) array of
    points, three (p, 2) arrays (c', c'', c''') and a (p,) array.  The
    curve also reads them at a float, as an array of one entry, and
    returns that entry: a 2-vector, three 2-vectors and a NumPy float.
    So a scalar read equals the matching entry of an array read bit for
    bit, and a closure has one read path.

    `inverse`, where the curve has one, maps a (p, 2) array of points on
    the curve's conic or graph to their parameters.  A constant-curvature
    curve's inverse is in closed form: NaN off the curve's branch, and
    otherwise a parameter that may lie outside the domain when the point
    lies beyond an end of the arc.  A graph curve's inverse
    (`reparam_unit_speed`) reads a point's x alone and is clipped to the
    domain."""

    domain: Interval
    position: Callable[[np.ndarray], np.ndarray]
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    curvature: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        for name in ("position", "derivatives", "curvature"):
            object.__setattr__(self, name, _read_one(getattr(self, name)))

    def point(self, s: float | np.ndarray) -> Vec:
        return np.asarray(self.position(s), dtype=float)


def constant_curvature_curve(k: float, interval: Interval,
                             frame: AdaptedFrame | None = None) -> AffineCurve:
    """Closed-form curve with curvature k through frame.origin at s = 0.

    A read is one array call of each profile (`sk` and `ybar` for the
    position, `ck` and `sk` for the derivatives).

    The inverse takes the adapted coordinates (x, y) = frame^-1 (p - origin)
    of a point of the conic x^2 + k y^2 = 2 y: s = x for k = 0,
    asinh(sqrt(-k) x) / sqrt(-k) on the branch 1 - k y > 0 for k < 0 (NaN
    on the other), and atan2(sqrt(k) x, 1 - k y) / sqrt(k) for k > 0,
    shifted by whole turns into [lo, lo + 2 pi / sqrt(k)).
    """
    fr = frame or AdaptedFrame.identity()

    def position(s: np.ndarray) -> np.ndarray:
        return fr.from_adapted_rows(np.column_stack((sk(k, s), ybar(k, s))))

    def inverse(p: np.ndarray) -> np.ndarray:
        x, y = fr.to_adapted_rows(p).T
        if k == 0.0:
            return x
        r = np.sqrt(abs(k))
        if k < 0.0:
            return np.where(1.0 - k * y > 0.0, np.arcsinh(r * x) / r, np.nan)
        turn = 2.0 * np.pi / r
        return interval.lo + np.mod(np.arctan2(r * x, 1.0 - k * y) / r - interval.lo, turn)

    def derivatives(s: np.ndarray):
        c, sn = ck(k, s)[:, None], sk(k, s)[:, None]
        d1 = c * fr.tangent + sn * fr.normal
        d2 = -k * sn * fr.tangent + c * fr.normal
        return d1, d2, -k * d1

    def curvature(s: np.ndarray) -> np.ndarray:
        return np.full(s.shape, k, dtype=float)

    return AffineCurve(interval, position, derivatives, curvature, inverse=inverse)


def parabola_curve(interval: Interval) -> AffineCurve:
    """The canonical unit-speed parabola (s, s^2/2)."""
    return constant_curvature_curve(0.0, interval)


def _monomials_of_chebyshev(n: int) -> np.ndarray:
    """Column k: the monomial coefficients of T_k, k <= n, by the recurrence
    T_k = 2 x T_k-1 - T_k-2 (integers, so exact)."""
    m = np.eye(n + 1)
    for k in range(2, n + 1):
        m[:, k] = np.append(0.0, 2.0 * m[:-1, k - 1]) - m[:, k - 2]
    return m


# Panels of the arc-length integral: the ARC_DEGREE + 1 Chebyshev points
# of the second kind on [-1, 1], ascending; the matrices that take values
# there to Chebyshev coefficients (the discrete cosine transform of the
# points) and Chebyshev to monomial coefficients; and the Clenshaw-Curtis
# weights
ARC_DEGREE = 16
ARC_PANELS = 8    # equal panels of [t0, t1] before refinement
ARC_RTOL = 1e-14  # the resolution each panel must reach (see _arclength_table)
_CX = np.sin(np.pi * np.arange(-ARC_DEGREE, ARC_DEGREE + 1, 2) / (2 * ARC_DEGREE))
_TO_CHEB = (2.0 / ARC_DEGREE) * np.cos(np.outer(np.arange(ARC_DEGREE + 1),
                                                np.pi * np.arange(ARC_DEGREE, -1, -1) / ARC_DEGREE))
_TO_CHEB[:, [0, -1]] *= 0.5
_TO_CHEB[[0, -1]] *= 0.5
_TO_MONO = _monomials_of_chebyshev(ARC_DEGREE)
_POWERS = np.arange(1, ARC_DEGREE + 2)
_CC_WEIGHTS = np.zeros(ARC_DEGREE + 1)  # the integrals of T_k, then of the interpolant's basis
_CC_WEIGHTS[::2] = 2.0 / (1.0 - np.arange(0.0, ARC_DEGREE + 1, 2) ** 2)
_CC_WEIGHTS = _CC_WEIGHTS @ _TO_CHEB


def _arclength_table(g: Callable, t0: float, t1: float) -> tuple[np.ndarray, ...]:
    """The affine arc length s(t) = integral_t0^t g^(1/3) dt on t0 < t1, g
    the closure of c' wedge c'' (of a graph (t, f(t)), f''), as panels in
    t: the panels' ends in s, from 0 to the arc length, then per panel its
    left end, centre and half-width in t, the coefficients `lift` of
    u^1 .. u^(ARC_DEGREE + 1), u = (t - centre) / half-width, and an
    offset, so that s(t) = offset + half-width (lift . u^k), and the
    monomial coefficients `a` of the integrand g^(1/3) in u, shaped
    (panels, ARC_DEGREE + 1), so that ds/du = half-width (a . u^k).

    [t0, t1] starts as ARC_PANELS equal panels.  On each panel the
    integrand is read at the Chebyshev points by one `values_at` of g per
    level, and its interpolant is integrated in closed form.  A panel is
    accepted when the last two Chebyshev coefficients of the integrand
    sum to at most ARC_RTOL times its largest value; otherwise it is
    halved, unless it is already too short to halve.  c' wedge c'' <= 0 at
    a node is an OrientationError, a value that is not finite a
    DomainError, and more node reads than odekernel.MAX_RHS_EVALS a
    SolverError."""
    ends = np.linspace(t0, t1, ARC_PANELS + 1)
    lo, hi = ends[:-1], ends[1:]
    done, reads = [], 0
    while len(lo):
        reads += lo.size * _CX.size
        if reads > odekernel.MAX_RHS_EVALS:
            raise SolverError(f"the arc-length panels from t = {t0} passed "
                              f"{odekernel.MAX_RHS_EVALS} right-hand side evaluations near "
                              f"t = {lo[0]}; the arc is too rough to resolve")
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid[:, None] + half[:, None] * _CX
        with np.errstate(over="ignore", invalid="ignore"):
            gv = values_at(g, t.ravel())
        if not np.isfinite(gv).all():
            raise DomainError("c' wedge c'' leaves the float range at t = "
                              f"{t.ravel()[np.argmin(np.isfinite(gv))]}")
        bad = np.flatnonzero(gv <= 0.0)
        if bad.size:
            raise OrientationError(f"c' wedge c'' = {gv[bad[0]]} <= 0 at t = {t.ravel()[bad[0]]}; "
                                   "need a positively oriented locally convex arc")
        w = np.cbrt(gv).reshape(t.shape)
        c = w @ _TO_CHEB.T
        total = w @ _CC_WEIGHTS  # the integral over the local variable's [-1, 1]
        a = c @ _TO_MONO.T
        lift = a / _POWERS  # the integral from -1 is lift . (u^k - (-1)^k), k = 1..17
        base = lift @ (-1.0) ** _POWERS
        ok = np.abs(c[:, -2:]).sum(axis=1) <= ARC_RTOL * w.max(axis=1)
        split = ~ok & (lo < mid) & (mid < hi)
        keep = ~split
        done.append((lo[keep], half[keep] * total[keep], mid[keep], half[keep],
                     lift[keep], base[keep], a[keep]))
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
    lo, length, mid, half, lift, base, a = (np.concatenate(v) for v in zip(*done))
    order = np.argsort(lo)
    edges = np.concatenate(([0.0], np.cumsum(length[order])))
    if not (np.isfinite(edges[-1]) and edges[-1] > 0.0):
        raise DomainError(f"the affine arc length {edges[-1]} is not a positive float")
    half = half[order]
    return (edges, lo[order], mid[order], half, lift[order], edges[:-1] - half * base[order],
            a[order])


def reparam_unit_speed(f: Sequence[Callable], t0: float, t1: float) -> AffineCurve:
    """Reparameterize the convex graph (t, f(t)) on [t0, t1] by affine arc
    length; f holds the closures of f and its first four derivatives, each
    read by `odekernel.values_at`.

    c' wedge c'' is f'', so t(s) is the inverse of s(t), the integral of
    f''^(1/3), which is stored when the curve is built as the panels of
    `_arclength_table`.  A read of t(s), s clipped to the domain
    [0, lambda], finds the panel whose s-range holds s and solves
    s(t) = s there: a linear guess in the panel variable u, then Newton
    steps on the panel's polynomial (its slope, the integrand, by Horner's
    rule on `a`), clipped to [-1, 1].  Each entry stops after its own
    first step of at most 1e-9 in u, which leaves an error of about that
    step's square, or after 8 steps, so an entry reads the same bits in
    an array as alone; arrays are solved AREA_BLOCK entries at a time.
    s = 0 reads t0 and s = lambda t1, unsolved; t is clipped to [t0, t1].
    The derivatives follow from (1, f'), (0, f''), (0, f'''), (0, f'''')
    and t' = f''^(-1/3) by the chain rule, a zero x-component kept as its
    term 0.0 (0.0 + t'', so a zero t'' reads +0.0).  The inverse takes a
    point's x as t, clipped to [t0, t1], and reads s there from the same
    panels.
    """
    f0, f1, f2, f3, f4 = f
    edges, t_lo, t_mid, t_half, lift, offset, a = _arclength_table(f2, t0, t1)
    lam = float(edges[-1])
    # the first panel of positive width in s: a panel's length can fall
    # below the float spacing of s, or underflow
    first = np.searchsorted(edges, 0.0, side="right") - 1

    def t_at(s: np.ndarray) -> np.ndarray:
        s = np.clip(s, 0.0, lam)
        t = np.empty(s.shape)
        for b in range(0, s.size, AREA_BLOCK):
            sb = s[b:b + AREA_BLOCK]
            # the panel with edges[j] < s <= edges[j + 1], so of positive width
            j = np.maximum(np.searchsorted(edges, sb) - 1, first)
            lj, aj, hj, oj = lift[j], a[j], t_half[j], offset[j]
            u = np.clip(2.0 * (sb - edges[j]) / (edges[j + 1] - edges[j]) - 1.0, -1.0, 1.0)
            live = (sb > 0.0) & (sb < lam)  # the ends are set below
            for _ in range(8):
                if not live.any():
                    break
                acc, slope = lj[:, -1], aj[:, -1]
                for k in range(ARC_DEGREE - 1, -1, -1):
                    acc = acc * u + lj[:, k]
                    slope = slope * u + aj[:, k]
                step = (oj + hj * (acc * u) - sb) / hj / slope  # hj * slope can underflow
                u = np.where(live, np.clip(u - step, -1.0, 1.0), u)
                live &= np.abs(step) > 1e-9
            t[b:b + AREA_BLOCK] = t_mid[j] + hj * u
        t[s <= 0.0] = t0
        t[s >= lam] = t1
        return np.clip(t, t0, t1)

    def s_at(p: np.ndarray) -> np.ndarray:
        t = np.clip(p[:, 0], t0, t1)
        j = np.clip(np.searchsorted(t_lo, t, side="right") - 1, 0, len(t_lo) - 1)
        u, lj = (t - t_mid[j]) / t_half[j], lift[j]
        acc = lj[:, -1]
        for k in range(ARC_DEGREE - 1, -1, -1):
            acc = acc * u + lj[:, k]
        return np.clip(offset[j] + t_half[j] * (acc * u), 0.0, lam)

    def position(s: np.ndarray) -> np.ndarray:
        t = t_at(s)
        return np.column_stack((t, values_at(f0, t)))

    def derivatives(s: np.ndarray):
        t = t_at(s)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            v1, v2, v3, v4 = (values_at(fn, t) for fn in (f1, f2, f3, f4))
            tp = _pow(v2, -1.0 / 3.0)
            tpp = -(1.0 / 3.0) * v3 * _pow(v2, -5.0 / 3.0)
            tppp = (5.0 / 9.0) * v3 * v3 * _pow(v2, -3.0) - (1.0 / 3.0) * v4 * _pow(v2, -2.0)
            d1 = np.column_stack((tp, v1 * tp))
            d2 = np.column_stack((0.0 + tpp, v2 * tp * tp + v1 * tpp))
            d3 = np.column_stack((0.0 + tppp, v3 * _pow(tp, 3) + 3.0 * v2 * tp * tpp + v1 * tppp))
        if not all(np.isfinite(d).all() for d in (d1, d2, d3)):
            raise DomainError("the curve's derivatives leave the float range")
        return d1, d2, d3

    def curvature(s: np.ndarray) -> np.ndarray:
        _, d2, d3 = derivatives(s)
        return _wedge_rows(d2, d3)

    return AffineCurve(Interval(0.0, lam), position, derivatives, curvature, inverse=s_at)


def graph_curve(f: Sequence[Callable], x0: float, x1: float) -> AffineCurve:
    """Unit-speed curve for the convex graph y = f(x) on [x0, x1], from the
    closures of f and its first four derivatives: f'' > 0 at 101 equally
    spaced x (else a ConvexityError), then `reparam_unit_speed`."""
    ts = np.linspace(x0, x1, 101)
    f2 = values_at(f[2], ts)
    bad = np.flatnonzero(f2 <= 0.0)
    if bad.size:
        raise ConvexityError(f"f''({ts[bad[0]]}) = {f2[bad[0]]} <= 0")
    return reparam_unit_speed(f, x0, x1)


def reconstruct_from_curvature(kappa: Callable[[float], float] | float,
                               interval: Interval,
                               frame: AdaptedFrame | None = None) -> AffineCurve:
    """Curve with prescribed curvature, anchored by the frame at s = 0.

    The adapted coordinates x and y both solve u''' + kappa u' = 0, with
    jets (0, 1, 0) and (0, 0, 1) at s = 0, so they are the two columns of
    one matrix solve; the result is unique given the frame.  The solve is
    an `odekernel.StepReader` at rtol 1e-11, built on the first read of a
    position or a derivative (a read of the curvature alone integrates
    nothing; a failed build is a SolverError on that read, and again on
    the next): Magnus step propagators outward from s = 0 to each end, and
    per read one Magnus step from the last node between 0 and s, which
    also gives c''' = -kappa c'.  A read calls kappa once where it takes
    arrays, and once per entry where it does not (see
    `odekernel.values_at`).
    """
    if not interval.lo <= 0.0 <= interval.hi:
        raise ValueError("reconstruction interval must contain the anchor s = 0")
    fr = frame or AdaptedFrame.identity()
    kap = kappa if callable(kappa) else (lambda s, k=float(kappa): k)

    @functools.cache
    def solution() -> StepReader:
        return StepReader(power_op(3, 1, kap, interval), 0.0,
                          np.array(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))), 1e-11)

    def position(s: np.ndarray) -> np.ndarray:
        return fr.from_adapted_rows(solution().read(np.clip(s, interval.lo, interval.hi))[:, 0])

    def derivatives(s: np.ndarray):
        u = solution().read(np.clip(s, interval.lo, interval.hi))
        return tuple(u[:, k, :1] * fr.tangent + u[:, k, 1:] * fr.normal for k in (1, 2, 3))

    def curvature(s: np.ndarray) -> np.ndarray:
        return values_at(kap, s).copy()

    return AffineCurve(interval, position, derivatives, curvature)


AREA_TOL = 1e-11   # the rtol of the area ODE's step doubling
AREA_BLOCK = 4096  # grid points of one ODE solve; curve points of one read or t(s) solve


@dataclass(frozen=True)
class AreaFunction:
    """Signed area swept between the curve and segments from the apex p0,
    c(a) where p0 is None: A(s) = 1/2 integral_a^s (c - p0) wedge c',
    positive where the sweep is right-handed, at a float or at each entry
    of a 1-D array, from the paper's area ODE.

    The area from the apex c(a) solves A''' + kappa A' = 1/2 with a zero
    jet at a, which reads kappa alone.  On each side of a it is solved
    outward, in the distance u from a: B(u) = A(a + u) or A(a - u) solves
    B''' + kappa(a +- u) B' = +-1/2, by `odekernel.grid_jets` at rtol
    AREA_TOL on the distances of that side's entries, with 0 in front.
    Another apex p0 adds the triangle 1/2 (c(a) - p0) wedge (c(s) - c(a)),
    read from the curve AREA_BLOCK points at a time: the same apex taken
    into the ODE's jet at a instead carries the error of c(a) and its
    derivatives along the whole solve (8e-10 against 1e-10 relative on a
    reconstructed curve).  With p0 None no point of the curve is read.
    A(a) is exactly 0.0.  A solve that leaves the float range is a
    SolverError, a triangle a DomainError."""

    curve: AffineCurve
    a: float
    p0: Vec | None

    def __call__(self, s: float | np.ndarray) -> float | np.ndarray:
        curve, a, ss = self.curve, self.a, np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty(len(ss))
        for sign, side in ((1.0, ss >= a), (-1.0, ss < a)):
            if side.any():
                u = sign * (ss[side] - a)
                grid = np.unique(np.append(0.0, u))
                op = power_op(3, 1, lambda v, sign=sign: curve.curvature(a + sign * v),
                              Interval(0.0, grid[-1]))
                out[side] = _area_on_grid(op, 0.5 * sign, grid)[np.searchsorted(grid, u)]
        if self.p0 is not None:
            ca = curve.point(a)
            with np.errstate(over="ignore", invalid="ignore"):
                r = ca - self.p0
                for i in range(0, len(ss), AREA_BLOCK):
                    block = curve.point(ss[i:i + AREA_BLOCK])
                    out[i:i + AREA_BLOCK] += 0.5 * _wedge_rows(r, block - ca)
            if not np.isfinite(out).all():
                raise DomainError("the swept area leaves the float range")
        return out if np.ndim(s) else float(out[0])


def area_function(curve: AffineCurve, a: float, p0: Sequence[float] | None = None) -> AreaFunction:
    """The `AreaFunction` of the curve from c(a) seen from p0; a base
    outside the domain is a ValueError."""
    if not (a in curve.domain):
        raise ValueError(f"base parameter {a} outside curve domain")
    return AreaFunction(curve, a, None if p0 is None else np.asarray(p0, dtype=float))


def _area_on_grid(op: odekernel.LinearOperator, forcing: float, grid: np.ndarray) -> np.ndarray:
    """y at each point of an ascending grid of y''' + kappa y' = forcing
    with a zero jet at grid[0]: `grid_jets` at rtol AREA_TOL on consecutive
    blocks of at most AREA_BLOCK grid points, each from the last jet of the
    block before.  A block's propagator tables stay a few MB, and it is
    never longer than odekernel.MAX_RHS_EVALS // 4 points: one solve
    charges about two coefficient reads per grid point against that budget."""
    size = min(AREA_BLOCK, odekernel.MAX_RHS_EVALS // 4)
    values, jet = [np.zeros(1)], np.zeros(3)
    for i in range(0, len(grid) - 1, size - 1):
        jets = grid_jets(op, forcing, jet, grid[i:i + size], AREA_TOL)
        values.append(jets[1:, 0])
        jet = jets[-1]
    return np.concatenate(values)


def adapted_frame(curve: AffineCurve, s0: float) -> AdaptedFrame:
    """Frame with axes along the affine tangent and normal at c(s0)."""
    d1, d2, _ = curve.derivatives(s0)
    return AdaptedFrame(curve.point(s0), np.asarray(d1, float), np.asarray(d2, float))


def graphing_parameter_set(curve: AffineCurve, s0: float) -> Interval:
    """Connected component of s0 where the x-coordinate in the adapted
    frame at s0 (`adapted_frame`) increases.

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
