"""Executable forms of the geometric comparison theorems.

Each check returns a BoundReport whose hypotheses were verified
numerically, never assumed: kernel forward-positivity by grid
certification, curvature orderings by sampling.  Inequality checks use an
absolute slack of 1e-7 scaled by max(1, |bound|), since the compared
quantities chain several 1e-8-accurate evaluations.
"""

from __future__ import annotations

import math

import numpy as np

from .curve import AffineCurve, adapted_frame, area_function, graphing_parameter_set, wedge
from .kfuncs import DomainError, Interval, abar, hk, sk, ybar
# solve_ivp is not called here: it stays a name of this module because the
# benchmark's tracer wraps it wherever the package imports it, and
# bench/test_bench.py reads it as compare.solve_ivp
from .odekernel import check_forward_positive, grid_jets, solve_ivp, third_order_op
from .reports import BoundReport, Hypothesis, sturm_range, swept_area_quadrature

DEFAULT_SLACK = 1e-7
EQUALITY_RTOL = 1e-6


def _slack(bound: float, tol: float = DEFAULT_SLACK) -> float:
    return tol * max(1.0, abs(bound))


def _sample_constant(values: np.ndarray, target: float) -> bool:
    return bool(np.all(np.abs(values - target) <= 1e-6 * max(1.0, abs(target))))


def area_compare(curve: AffineCurve, kappa_bar, length: float,
                 tol: float = DEFAULT_SLACK, positivity_grid_n: int = 81) -> BoundReport:
    """Area comparison against a reference curvature profile.

    Solves the reference area from its third-order initial value problem,
    by the step propagators of the curvature grid, while the curve's own
    area comes from the sweep integral, so the two sides of the
    inequality travel independent computational routes.  A
    sweep whose quadrature error estimate exceeds the report's slack fails
    the hypothesis `swept-area-quadrature`, never the inequality.
    """
    if not (Interval(0.0, length).lo >= curve.domain.lo
            and length <= curve.domain.hi + 1e-12):
        raise ValueError(f"curve not defined on [0, {length}]")
    kbar = kappa_bar if callable(kappa_bar) else (lambda s, k=float(kappa_bar): k)
    interval = Interval(0.0, length)

    hyps: list[Hypothesis] = []
    pos = check_forward_positive(third_order_op(kbar, interval),
                                 grid_n=positivity_grid_n)
    hyps.append(Hypothesis("forward-positive-kernel", pos.certified, pos.verdict))

    grid = np.linspace(0.0, length, 161)
    kv = curve.curvature(grid)
    kbv = np.array([kbar(s) for s in grid])
    ktol = 1e-9 * max(1.0, float(np.max(np.abs(kbv))))
    if np.all(kv <= kbv + ktol):
        direction = "le"
        hyps.append(Hypothesis("curvature-ordering", True, "kappa <= kappa_bar"))
    elif np.all(kv >= kbv - ktol):
        direction = "ge"
        hyps.append(Hypothesis("curvature-ordering", True, "kappa >= kappa_bar"))
    else:
        direction = "none"
        hyps.append(Hypothesis("curvature-ordering", False, "curvatures not ordered"))

    a_ref = float(grid_jets(third_order_op(kbar, interval), 0.5, (0.0, 0.0, 0.0), grid)[-1, 0])
    a_val, a_err = area_function(curve, 0.0).with_error(length)

    # kappa <= kappa_bar forces the swept area to dominate the reference
    if direction == "ge":
        lhs, rhs = a_val, a_ref
    else:
        lhs, rhs = a_ref, a_val
    slack = _slack(rhs, tol)
    hyps.append(swept_area_quadrature(a_err, slack))

    eq = abs(a_val - a_ref) <= EQUALITY_RTOL * max(1.0, abs(a_ref))
    notes = ""
    if eq:
        same = _sample_constant(kv - kbv, 0.0)
        notes = ("area equality; kappa == kappa_bar on samples" if same
                 else "area equality but curvatures differ beyond sampling tolerance")

    return BoundReport(theorem="area-comparison", hypotheses=hyps,
                       lhs=lhs, rhs=rhs, slack=slack,
                       equality=eq, witness=length, notes=notes)


def area_bounds(k0: float, k1: float, length: float) -> tuple[float, float]:
    """Two-sided sandwich for the swept area of a k0 <= kappa <= k1 arc."""
    if k0 > k1:
        raise ValueError(f"need k0 <= k1, got {k0} > {k1}")
    lower, upper = abar(k1, length), abar(k0, length)
    return lower, upper


def coord_bounds_check(curve: AffineCurve, s0: float, k0: float, k1: float,
                       length: float, tol: float = DEFAULT_SLACK) -> BoundReport:
    """Adapted-coordinate rectangle bounds around c(s0).

    Checks both two-sided profile bounds on a grid in (-L, L), and that
    the graphing interval covers (-R, R) with R the oscillatory profile at
    L.  The report's lhs is the worst signed violation (<= 0 when every
    bound holds).
    """
    if s0 - length < curve.domain.lo - 1e-12 or s0 + length > curve.domain.hi + 1e-12:
        raise ValueError(f"(-L, L) around s0 = {s0} exceeds the curve domain")

    hyps = [sturm_range(k1, (math.pi / (2.0 * length)) ** 2)]

    us = np.linspace(-length, length, 101)[1:-1]
    kv = curve.curvature(s0 + us)
    in_band = bool(np.all(kv >= k0 - 1e-9) and np.all(kv <= k1 + 1e-9))
    hyps.append(Hypothesis("curvature-in-band", in_band,
                           f"sampled range [{kv.min():.6g}, {kv.max():.6g}]"))

    fr = adapted_frame(curve, s0)
    worst = -math.inf
    witness = None
    eq = False
    eq_side = None
    scale = 1.0
    # the curve and the four profiles over the grid, one array read each
    rows = zip(us.tolist(), fr.to_adapted_rows(curve.point(s0 + us)).tolist(),
               sk(k1, np.abs(us)).tolist(), sk(k0, np.abs(us)).tolist(),
               ybar(k1, us).tolist(), ybar(k0, us).tolist())
    for u, (x, y), xlo, xhi, ylo, yhi in rows:
        scale = max(scale, abs(xhi), abs(yhi))
        gaps = (xlo - abs(x), abs(x) - xhi, ylo - y, y - yhi)
        g = max(gaps)
        if g > worst:
            worst, witness = g, u
        if u != 0.0 and not eq:
            for side, gap in zip(("x-lower", "x-upper", "y-lower", "y-upper"), gaps):
                if abs(gap) <= EQUALITY_RTOL * max(1.0, scale):
                    eq, eq_side = True, (side, u)

    # graphing interval must cover (-R, R)
    r_reach = sk(k1, length)
    gset = graphing_parameter_set(curve, s0)
    xi_lo = float(fr.to_adapted(curve.point(gset.lo))[0])
    xi_hi = float(fr.to_adapted(curve.point(gset.hi))[0])
    cover_defect = max(xi_lo - (-r_reach), r_reach - xi_hi)
    worst = max(worst, cover_defect)

    notes = f"graphing interval [{xi_lo:.6g}, {xi_hi:.6g}] vs target radius {r_reach:.6g}"
    if eq:
        side, at = eq_side
        const = k1 if "lower" in side else k0
        if _sample_constant(curve.curvature(s0 + np.linspace(0.0, at, 33)), const):
            notes += f"; equality on {side} at u = {at:.6g}: curvature constant {const}"
        else:
            notes += f"; near-equality on {side} at u = {at:.6g} without constant curvature"

    return BoundReport(theorem="coordinate-bounds", hypotheses=hyps,
                       lhs=worst, rhs=0.0, slack=tol * scale,
                       equality=eq, witness=witness, notes=notes)


def triangle_bound_arc(k0: float, lam: float) -> float:
    """Strict area bound for triangles inscribed in a kappa >= k0 arc of
    affine length lam."""
    if lam <= 0.0:
        raise ValueError("arc length must be positive")
    return abar(k0, lam)


def triangle_bound_rect(k0: float, lam: float) -> float:
    """Half-rectangle area bound hk(k0, lam/2); the caller asserts the
    upper-curvature hypothesis k1 <= (pi/lam)^2 separately."""
    if lam <= 0.0:
        raise ValueError("arc length must be positive")
    return hk(k0, lam / 2.0)


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


def verify_triangle_bound(curve: AffineCurve, vertices: tuple[float, float, float],
                          bound_kind: str = "arc",
                          tol: float = DEFAULT_SLACK) -> BoundReport:
    """Check one inscribed triangle against the selected area bound, with
    k0 and k1 the least and greatest curvature on a 201-point grid."""
    s1, s2, s3 = vertices
    if not (s1 < s2 < s3):
        raise ValueError("vertex parameters must be strictly increasing")
    for s in vertices:
        if s not in curve.domain:
            raise ValueError(f"vertex parameter {s} outside domain")

    grid = np.linspace(curve.domain.lo, curve.domain.hi, 201)
    kv = curve.curvature(grid)
    k0, k1 = float(kv.min()), float(kv.max())
    lam = curve.domain.length

    p1, p2, p3 = (curve.point(s) for s in vertices)
    area = 0.5 * abs(wedge(p2 - p1, p3 - p1))

    hyps = [Hypothesis("curvature-lower-bound", bool(np.all(kv >= k0 - 1e-9)),
                       f"k0 = {k0}")]
    notes = ""
    if area <= 1e-12:
        notes = "degenerate (collinear) vertices; zero area"

    if bound_kind == "arc":
        bound = triangle_bound_arc(k0, lam)
        notes = (notes + "; " if notes else "") + \
            "strict bound: exact equality is analytically impossible"
    elif bound_kind == "rect":
        hyps.append(sturm_range(k1, (math.pi / lam) ** 2))
        try:
            bound = triangle_bound_rect(k0, lam)
        except DomainError as exc:
            hyps.append(Hypothesis("rect-profile-domain", False, str(exc)))
            return BoundReport(theorem="triangle-rect-bound", hypotheses=hyps,
                               lhs=area, rhs=math.nan, notes=notes)
    else:
        raise ValueError(f"unknown bound kind {bound_kind!r}")

    # the wedge of plane points of size |p| carries a rounding error of
    # about eps |p|^2, which must stay under the slack for a verdict
    slack = _slack(bound, tol)
    size = float(np.max(np.abs((p1, p2, p3))))
    rounding = math.ulp(1.0) * size * size
    hyps.append(Hypothesis("wedge-conditioning", rounding <= slack,
                           f"wedge rounding bound {rounding:.3g} vs slack {slack:.3g}"))

    eq = abs(area - bound) <= EQUALITY_RTOL * max(1.0, abs(bound))
    if eq:
        const = _sample_constant(kv, k0)
        notes = (notes + "; " if notes else "") + (
            "bound attained; curvature constant k0" if const
            else "bound attained without constant curvature (within sampling)")

    return BoundReport(
        theorem=f"triangle-{bound_kind}-bound", hypotheses=hyps,
        lhs=area, rhs=bound, slack=slack,
        equality=eq, witness=tuple(float(s) for s in vertices), notes=notes)
