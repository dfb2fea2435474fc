"""Test-only oracles and checks: definitions that no command of the CLI
reaches, kept beside the tests that read them.

Each is the same code it was in the package, written as a function of
the object it inspects where it was a method (`unit_speed_defect(curve)`
for `curve.unit_speed_defect()`).  The package's own routes stay the
routes under test; these are the independent checks against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from affinecurves.conics import Conic
from affinecurves.curve import (
    AffineCurve,
    AreaFunction,
    ConvexityError,
    _arclength_table,
    _wedge_rows,
    wedge,
)
from affinecurves.kfuncs import DomainError, Interval, abar, hk
from affinecurves.lattice import AffineMap, Lattice, LinearConstraint, _on_generators
from affinecurves.odekernel import (
    CoeffLike,
    IVPSolution,
    LagrangeKernel,
    LinearOperator,
    SolverError,
    _as_fn,
    make_operator,
)
from affinecurves.sharp_instances import CircleConfig, SharpInstance, _orbit_coords

KERNEL_QUAD_TOL = 1e-11  # absolute tolerance of the kernel-integral quadrature


# ---------------------------------------------------------------- compare

def triangle_ratio_exact(k0: float, lam: float) -> float:
    """Exact sharpness deficit of the arc bound for the constant-curvature
    arc of length lam with vertices at its endpoints and midpoint:
    hk(k0, L)/abar(k0, 2L) - 1 with L = lam/2 (negative for k0 < 0)."""
    half = lam / 2.0
    return hk(k0, half) / abar(k0, lam) - 1.0


def triangle_ratio_asymptotic(k0: float, lam: float) -> float:
    """Large-|k0| model of triangle_ratio_exact for k0 < 0: -2 e^(-sqrt|k0| lam/2).

    The leading constant follows from sinh x ~ e^x/2 and
    sinh x cosh x ~ e^(2x)/4 in the exact deficit
    -(sinh x - x)/(sinh x cosh x - x), x = sqrt(|k0|) lam/2.
    """
    if k0 >= 0.0:
        raise ValueError("asymptotic regime needs k0 < 0")
    return -2.0 * math.exp(-math.sqrt(-k0) * lam / 2.0)


# ------------------------------------------------------------------ curve

def affine_curvature_at(curve: AffineCurve, s: float) -> float:
    """kappa = c'' wedge c''', valid under unit affine speed."""
    _, d2, d3 = curve.derivatives(s)
    return wedge(d2, d3)


def affine_arclength(g, t0: float, t1: float) -> float:
    """Integral of g^(1/3) dt over [t0, t1], g the closure of c' wedge c''
    (of a graph, f''): the sum of the panels of `curve._arclength_table`."""
    return float(_arclength_table(g, t0, t1)[0][-1])


def curvature_from_graph(f2, x: float, f3, f4) -> float:
    """Affine curvature of the convex graph y = f(x) at x, from the
    closures of its second, third and fourth derivatives: with
    v_k = f^(k)(x), -1/2 ((f'')^(-2/3))'' expands as
    v4 / (3 v2^(5/3)) - 5 v3^2 / (9 v2^(8/3))."""
    v2 = f2(x)
    if v2 <= 0.0:
        raise ConvexityError(f"f''({x}) = {v2} <= 0")
    v3 = f3(x)
    return f4(x) / (3.0 * v2 ** (5.0 / 3.0)) - 5.0 * v3 * v3 / (9.0 * v2 ** (8.0 / 3.0))


def unit_speed_defect(curve: AffineCurve, n: int = 1000) -> float:
    """Sup of |c' wedge c'' - 1| over n equally spaced parameters."""
    d1, d2, _ = curve.derivatives(np.linspace(curve.domain.lo, curve.domain.hi, n))
    return float(np.max(np.abs(_wedge_rows(d1, d2) - 1.0)))


def structure_defect(curve: AffineCurve, n: int = 200) -> float:
    """Sup of |c''' + kappa c'| over n equally spaced parameters."""
    ss = np.linspace(curve.domain.lo, curve.domain.hi, n)
    d1, _, d3 = curve.derivatives(ss)
    return float(np.max(np.abs(d3 + curve.curvature(ss)[:, None] * d1)))


def _apex(area: AreaFunction) -> np.ndarray:
    return area.curve.point(area.a) if area.p0 is None else area.p0


def area_prime(area: AreaFunction, s: float | np.ndarray) -> float | np.ndarray:
    """A'(s) of an `AreaFunction`, at a float or at each entry of a 1-D array."""
    return 0.5 * _wedge_rows(area.curve.point(s) - _apex(area), area.curve.derivatives(s)[0])


def area_second(area: AreaFunction, s: float | np.ndarray) -> float | np.ndarray:
    """A''(s) of an `AreaFunction`, at a float or at each entry of a 1-D array."""
    return 0.5 * _wedge_rows(area.curve.point(s) - _apex(area), area.curve.derivatives(s)[1])


def _fd_rows(fn, s: np.ndarray, domain: Interval) -> np.ndarray:
    """First derivative of fn, which reads a 1-D array (of scalars or of
    vectors), at each entry of s by second-order differences, with fn read
    once: central where s -/+ step lie in the domain, otherwise one-sided,
    forward where s + 2 step does and backward where it does not."""
    step = 1e-5 * max(1.0, domain.length)
    central = (s - step >= domain.lo) & (s + step <= domain.hi)
    forward = central | (s + 2 * step <= domain.hi)
    sign = np.where(forward, 1.0, -1.0)
    reads = fn(np.concatenate((s, s + sign * step, s + sign * (2 * step), s - step)))
    f0, f1, f2, fm = (v.T for v in np.split(reads, 4))  # entries on the last axis
    one_sided = np.where(forward, -3 * f0 + 4 * f1 - f2, 3 * f0 - 4 * f1 + f2)
    return np.where(central, f1 - fm, one_sided).T / (2 * step)


def differenced_ode_residual(area: AreaFunction) -> float:
    """Sup over 41 points of the domain of |A''' + kappa A' - 1/2|, with
    A''' taken by differencing A'' (`_fd_rows`), so a seam between the
    nodes of a reconstructed curve shows."""
    curve = area.curve
    ss = np.linspace(curve.domain.lo, curve.domain.hi, 41)
    a3 = _fd_rows(lambda s: area_second(area, s), ss, curve.domain)
    return float(np.max(np.abs(a3 + curve.curvature(ss) * area_prime(area, ss) - 0.5)))


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

AREA_TOL = 1e-11     # absolute, and relative to the largest |A| sampled
AREA_MAX_DEPTH = 7   # bisections of a knot interval before its panels count as they are
AREA_BLOCK = 4096    # panels whose nodes one curve read takes


@dataclass(frozen=True)
class SweptArea:
    """Signed area swept between the curve and segments from the apex p0,
    by quadrature: the independent oracle of the package's area ODE
    (`curve.AreaFunction`).

    A(s) = 1/2 integral_a^s (c - p0) wedge c'; positive where the sweep
    is right-handed.  It reads the curve itself.  A call at a 1-D array of
    samples computes all of them in one adaptive Gauss-Kronrod pass: the
    knots are the sorted samples and the base a, every panel between
    knots is read at its 21 nodes, in one array call of the curve per
    AREA_BLOCK panels, and the rejected panels of all intervals are
    bisected together.  A panel is accepted when QUADPACK's error estimate
    is within its length's share of AREA_TOL * max(1, |A|).  Panels still
    rejected after AREA_MAX_DEPTH bisections count with their estimates
    and errors, so a pass always ends, after at most
    2**(AREA_MAX_DEPTH + 1) - 1 panels per interval; on a flat-bottomed
    quartic (x^4 + 1e-9 x^2 on [-3, 3]) that leaves A(hi) 0.13 off with
    an estimate of 7.2.  The estimate covers the panel rule only, not the
    error of the curve's reads: on a reconstructed curve at
    q = sqrt(-k) L = 20, where (c - p0) wedge c' cancels on coordinates
    that grow like e^q, the area is 6.6e-9 relative off while the
    estimate says 3.4e-9.  An integrand that leaves the float range is a
    DomainError.  The values are partial sums outward from the base, so
    A(a) = 0.
    """

    curve: AffineCurve
    a: float
    p0: np.ndarray

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
        if np.ndim(s):
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
                parts = [self._panels(lo[b:b + AREA_BLOCK], hi[b:b + AREA_BLOCK])
                         for b in range(0, len(lo), AREA_BLOCK)]
                res, err = (np.concatenate(v) for v in zip(*parts))
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
        return 0.5 * _wedge_rows(self.curve.point(s) - self.p0, self.curve.derivatives(s)[0])


def _from_base(per_interval: np.ndarray, base: int) -> np.ndarray:
    """Partial sums of the per-interval values outward from knot `base`:
    the integral from knots[base] to each knot, exactly 0 at the base."""
    out = np.zeros(len(per_interval) + 1)
    out[base + 1:] = np.cumsum(per_interval[base:])
    out[:base] = -np.cumsum(per_interval[:base][::-1])[::-1]
    return out


def swept_area(curve: AffineCurve, a: float, p0=None) -> SweptArea:
    """The `SweptArea` of the curve from c(a), seen from p0 (c(a) when None)."""
    if not (a in curve.domain):
        raise ValueError(f"base parameter {a} outside curve domain")
    apex = curve.point(a) if p0 is None else np.asarray(p0, dtype=float)
    return SweptArea(curve, a, apex)


# ---------------------------------------------------------------- lattice

def parity_multiplier_bound(a: int, b: int, c: int, r: int) -> int:
    """Analytic lower bound for the multiplier on a x^2 + b xy + c y^2 = r:
    2 when a, c, r are odd and b is even (mod-2 argument), else 1."""
    if a % 2 == 1 and c % 2 == 1 and r % 2 == 1 and b % 2 == 0:
        return 2
    return 1


def lattice_substitution(lat: Lattice) -> list[list[Fraction]]:
    """Homogeneous matrix of (m, n) -> v0 + m v1 + n v2."""
    return [
        [lat.v1[0], lat.v2[0], lat.v0[0]],
        [lat.v1[1], lat.v2[1], lat.v0[1]],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def conic_in_lattice_coords(conic: Conic, lat: Lattice) -> Conic:
    """Exact conic satisfied by the lattice coordinates of points of the
    plane conic."""
    return conic.substituted(lattice_substitution(lat))


def constraint_substituted(g: LinearConstraint, t: list[list[Fraction]]) -> LinearConstraint:
    """The constraint g after the homogeneous substitution t of (x, y, 1)."""
    coeffs = (g.g1, g.g2, g.g0)
    new = tuple(sum(coeffs[i] * t[i][j] for i in range(3)) for j in range(3))
    return LinearConstraint(new[0], new[1], new[2])


def lattice_equal(lat_a: Lattice, lat_b: Lattice) -> bool:
    """Exact set equality: each origin lies in the other lattice and each
    generator pair is an integral combination of the other."""

    def absorbed(target: Lattice, other: Lattice) -> bool:
        return other.v0 in target and all(_on_generators(target, v)
                                          for v in (other.v1, other.v2))

    return absorbed(lat_a, lat_b) and absorbed(lat_b, lat_a)


# -------------------------------------------------------------- odekernel

def oscillator_op(kappa: CoeffLike, interval: Interval) -> LinearOperator:
    """y'' + kappa(s) y."""
    return make_operator((kappa, 0.0), interval, label="y''+ky")


def third_order_op(kappa: CoeffLike, interval: Interval) -> LinearOperator:
    """y''' + kappa(s) y'."""
    return make_operator((0.0, kappa, 0.0), interval, label="y'''+ky'")


def lagrange_kernel(op: LinearOperator) -> LagrangeKernel:
    return LagrangeKernel(op)


class KernelSolution:
    """y(s) = integral_r^s K(s; t) f(t) dt, s >= r, evaluated by adaptive
    quadrature.

    Solves D y = f with zero initial data at r; derivatives up to order
    n-1 come from differentiating under the integral sign.
    """

    def __init__(self, kernel: LagrangeKernel, forcing: CoeffLike, r: float):
        self.kernel = kernel
        self.r = r
        self.forcing = _as_fn(forcing)

    @property
    def domain(self) -> Interval:
        return self.kernel.op.interval

    def __call__(self, s: float, deriv: int = 0) -> float:
        if deriv >= self.kernel.op.order:
            raise ValueError("derivative order exceeds kernel differentiability")
        if s == self.r:
            return 0.0
        val, err = quad(
            lambda t: self.kernel(s, t, deriv) * self.forcing(t),
            self.r, s, epsabs=KERNEL_QUAD_TOL, epsrel=1e-10, limit=200,
        )
        if abs(err) > 1e3 * KERNEL_QUAD_TOL * max(1.0, abs(val)):
            raise SolverError(f"kernel quadrature error {err} too large at s = {s}")
        return val


def solve_via_kernel(op: LinearOperator, forcing: CoeffLike,
                     r: float | None = None) -> KernelSolution:
    return KernelSolution(LagrangeKernel(op), forcing, op.interval.lo if r is None else r)


def residual(sol: IVPSolution) -> float:
    """Sup of |y^(n) + sum a_j y^(j) - f| with y^(n) taken by central
    differences of the top stored derivative (an honest re-check, not
    the solver's own right-hand side)."""
    lo, hi = sol.domain.lo, sol.domain.hi
    step = 1e-6 * max(1.0, hi - lo)
    worst = 0.0
    for s in np.linspace(lo, hi, 50):
        sm, sp = max(lo, s - step), min(hi, s + step)
        if sp - sm < step:
            continue
        u = sol.eval(s)
        dtop = (sol.eval(sp)[-1] - sol.eval(sm)[-1]) / (sp - sm)
        acc = dtop - sol.forcing(s)
        for j, a in enumerate(sol.op.coeffs):
            acc += a(s) * u[j]
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst


# -------------------------------------------------------- sharp_instances

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


def rotation_trace(theta: float) -> float:
    return 2.0 * math.cos(theta)


def is_classified_angle(theta: float) -> bool:
    """Whether 2 cos(theta) is within 1e-9 of an integer, which happens
    exactly at multiples of pi/3 and pi/2."""
    t = rotation_trace(theta)
    return abs(t - round(t)) <= 1e-9


def orbit_coords(config: CircleConfig, count: int) -> list[tuple[int, int]]:
    """The configuration's first count points, the rotation orbit of its first."""
    return _orbit_coords(AffineMap.make(config.basis_matrix, config.offset),
                         config.point_coords[0], count)


def orbit_on_conic(config: CircleConfig, count: int) -> bool:
    return all(config.lattice_frame_conic(m, n) == 0 for m, n in orbit_coords(config, count))


def seed_params(inst: SharpInstance) -> tuple[float, ...]:
    """The parameters of the instance's first four lattice points."""
    return tuple(inst.curve.domain.lo + i * inst.spacing for i in range(4))


def seed_points(inst: SharpInstance) -> list:
    """The instance's first four lattice points, exact."""
    return [inst.lattice.point(m, n) for m, n in inst.expected_coords[:4]]
