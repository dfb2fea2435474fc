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

from .curve import AffineCurve, adapted_frame, graphing_interval, wedge
from .kfuncs import DomainError, Interval, abar, hk, sk, ybar
# solve_ivp is not called here: it stays a name of this module because the
# benchmark's tracer wraps it wherever the package imports it, and
# bench/test_bench.py reads it as compare.solve_ivp
from .odekernel import POSITIVITY_TOL, _compare, solve_ivp
from .reports import BoundReport, Hypothesis, sturm_range

DEFAULT_SLACK = 1e-7
EQUALITY_RTOL = 1e-6


def _slack(bound: float, tol: float) -> float:
    return tol * max(1.0, abs(bound))


def _sample_constant(values: np.ndarray, target: float) -> bool:
    return bool(np.all(np.abs(values - target) <= 1e-6 * max(1.0, abs(target))))


def area_compare(curve: AffineCurve, kappa_bar, length: float,
                 tol: float = DEFAULT_SLACK, positivity_grid_n: int = 81) -> BoundReport:
    """Area comparison against a reference curvature profile: the order-3
    comparison theorem for A''' + kappa A' = 1/2 with a zero jet at 0,
    which the area swept from c(0) solves (`odekernel._compare`).

    Both areas come from that comparison on a grid of
    4 (positivity_grid_n - 1) + 1 points, the curve's with kappa read as
    `curve.curvature`, so the curve itself is never integrated; the
    reference kernel's certificate is read at every fourth point, at
    POSITIVITY_TOL.  The report compares A(L) with the reference area
    Ā(L): lhs, rhs = Ā(L), A(L) for kappa <= kappa_bar (A dominates),
    swapped for kappa >= kappa_bar, with slack tol max(1, |rhs|) and
    witness L.
    """
    if not (Interval(0.0, length).lo >= curve.domain.lo
            and length <= curve.domain.hi + 1e-12):
        raise ValueError(f"curve not defined on [0, {length}]")
    _, area, area_bar, direction, hyps, eq, notes = _compare(
        curve.curvature, kappa_bar, 3, 1, 0.5, (0.0, 0.0, 0.0), Interval(0.0, length),
        4 * (positivity_grid_n - 1) + 1, positivity_grid_n, tol, POSITIVITY_TOL)
    a_val, a_ref = float(area[-1]), float(area_bar[-1])
    lhs, rhs = (a_val, a_ref) if direction == "ge" else (a_ref, a_val)
    return BoundReport(theorem="area-comparison", hypotheses=hyps,
                       lhs=lhs, rhs=rhs, slack=_slack(rhs, tol),
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
    gset = graphing_interval(curve, s0, fr)
    xi_lo, xi_hi = fr.to_adapted_rows(curve.point(np.array((gset.lo, gset.hi))))[:, 0].tolist()
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

    p1, p2, p3 = curve.point(np.array(vertices, dtype=float))
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
