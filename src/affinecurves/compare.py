"""Executable forms of the geometric comparison theorems.

Each check returns a BoundReport whose hypotheses were verified
numerically, never assumed: kernel forward-positivity by grid
certification, curvature orderings by sampling.  Inequality checks use a
slack of 1e-7 scaled by max(1, |bound|), or take each point's margin
relative to its own scale, since the compared quantities chain several
1e-8-accurate evaluations.
"""

from __future__ import annotations

import math

import numpy as np

from .curve import AREA_TOL, AffineCurve, _wedge_rows, adapted_frame
from .kfuncs import DomainError, Interval, abar, hk, sk, ybar
# solve_ivp is not called here: it stays a name of this module because the
# benchmark's tracer wraps it wherever the package imports it, and
# bench/test_bench.py reads it as compare.solve_ivp
from .odekernel import (POSITIVITY_TOL, _compare, _table_jets, grid_jets, power_op, solve_ivp,
                        step_propagators)
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


def area_ode_residual(curve: AffineCurve, tol: float) -> BoundReport:
    """The area ODE A''' + kappa A' = 1/2 of the area A swept from p, the
    curve's first point (thm2.3), at 41 equally spaced points of the domain.

    A' = 1/2 (c - p) wedge c', A'' = 1/2 (c - p) wedge c'' and A''' from one
    read of the points and one of the derivatives.  At each point the
    residual |A''' + kappa A' - 1/2| is taken relative to |A'''| + |kappa A'|
    + 1/2, and (A', A'') against the jet of the ODE's solution from a zero
    jet at p (`grid_jets`, which reads kappa alone) relative to
    1/2 |c - p| |c'|, |c''| + 1/2: there the points enter, which cancel from
    the first where c''' = -kappa c' by construction.  lhs is the largest,
    with slack tol, and the witness its s.  `jet-conditioning` asks that
    eps (|c'| |c''| + |c - p| |c'''|) on the first's scale is at most tol.
    """
    ss = np.linspace(curve.domain.lo, curve.domain.hi, 41)
    pts = curve.point(ss)
    r = pts - pts[0]
    d1, d2, d3 = curve.derivatives(ss)
    n1, n2, n3, nr = (np.linalg.norm(v, axis=1) for v in (d1, d2, d3, r))
    a1, a2 = 0.5 * _wedge_rows(r, d1), 0.5 * _wedge_rows(r, d2)
    ka1 = curve.curvature(ss) * a1
    a3 = 0.5 * (_wedge_rows(d1, d2) + _wedge_rows(r, d3))
    scale = np.abs(a3) + np.abs(ka1) + 0.5
    jets = grid_jets(power_op(3, 1, curve.curvature, curve.domain), 0.5, (0.0, 0.0, 0.0),
                     ss, AREA_TOL)
    res = np.max((np.abs(a3 + ka1 - 0.5) / scale,
                  np.abs(a1 - jets[:, 1]) / (0.5 * nr * n1 + 0.5),
                  np.abs(a2 - jets[:, 2]) / (0.5 * nr * n2 + 0.5)), axis=0)
    rounding = float(np.max(math.ulp(1.0) * (n1 * n2 + nr * n3) / scale))
    worst = int(np.argmax(res))
    hyps = [Hypothesis("jet-conditioning", rounding <= tol,
                       f"relative rounding bound {rounding:.3g} vs slack {tol:.3g}")]
    return BoundReport(theorem="area-ode", hypotheses=hyps, lhs=float(res[worst]), rhs=0.0,
                       slack=tol, witness=float(ss[worst]))


def coord_bounds_check(curve: AffineCurve, s0: float, k0: float, k1: float,
                       length: float, tol: float = DEFAULT_SLACK) -> BoundReport:
    """Adapted-coordinate rectangle bounds around c(s0).

    In the adapted frame at s0, the points and c' are read at 100 equally
    spaced u in [-L, L] (the ends in, u = 0 out).  Each point is checked
    against sk(k1, |u|) <= |x| <= sk(k0, |u|) and ybar(k1, u) <= y <=
    ybar(k0, u), each margin relative to max(1, |its profile at u|), and
    against x' > 0, its margin -x' relative to max(1, |x'|).  Under the
    hypotheses x' solves w'' + kappa w = 0, w(0) = 1, w'(0) = 0, whose
    zeros lie pi / sqrt(k1) >= 2L apart (none for k1 <= 0), so x' > 0 at
    +-L makes the curve a graph over [x(-L), x(L)]; that covers (-R, R),
    R = sk(k1, L), exactly when the x-lower bound holds at +-L.  lhs is
    the worst margin, with slack tol, and the witness is its u.  Equality
    needs a bound met within EQUALITY_RTOL at some u and the curvature
    sampled from 0 to u constant at that bound's k (k1 for a lower bound,
    k0 for an upper); otherwise the notes say near-equality.
    """
    if s0 - length < curve.domain.lo - 1e-12 or s0 + length > curve.domain.hi + 1e-12:
        raise ValueError(f"(-L, L) around s0 = {s0} exceeds the curve domain")

    hyps = [sturm_range(k1, (math.pi / (2.0 * length)) ** 2)]

    us = np.linspace(-length, length, 100)
    kv = curve.curvature(s0 + us)
    in_band = bool(np.all(kv >= k0 - 1e-9) and np.all(kv <= k1 + 1e-9))
    hyps.append(Hypothesis("curvature-in-band", in_band,
                           f"sampled range [{kv.min():.6g}, {kv.max():.6g}]"))

    fr = adapted_frame(curve, s0)
    x, y = fr.to_adapted_rows(curve.point(s0 + us)).T
    xp = fr.to_adapted_vector_rows(curve.derivatives(s0 + us)[0])[:, 0]
    au = np.abs(us)
    profiles = np.array((sk(k1, au), sk(k0, au), ybar(k1, us), ybar(k0, us)))
    ax = np.abs(x)
    gaps = np.array((profiles[0] - ax, ax - profiles[1], profiles[2] - y, y - profiles[3]))
    margins = np.vstack((gaps / np.maximum(1.0, np.abs(profiles)),
                         -xp / np.maximum(1.0, np.abs(xp))))
    side, at = np.unravel_index(np.argmax(margins), margins.shape)

    notes = f"x(-L), x(L) = {x[0]:.6g}, {x[-1]:.6g} vs target radius {profiles[0, -1]:.6g}"
    eq = False
    met = np.abs(margins[:4]) <= EQUALITY_RTOL
    if met.any():
        j = int(np.flatnonzero(met.any(axis=0))[0])
        name = ("x-lower", "x-upper", "y-lower", "y-upper")[int(np.argmax(met[:, j]))]
        const = k1 if "lower" in name else k0
        eq = _sample_constant(curve.curvature(s0 + np.linspace(0.0, us[j], 33)), const)
        notes += (f"; equality on {name} at u = {us[j]:.6g}: curvature constant {const}" if eq
                  else f"; near-equality on {name} at u = {us[j]:.6g} without constant curvature")

    return BoundReport(theorem="coordinate-bounds", hypotheses=hyps,
                       lhs=float(margins[side, at]), rhs=0.0, slack=tol,
                       equality=eq, witness=float(us[at]), notes=notes)


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
    k0 and k1 the least and greatest curvature on a 201-point grid.

    The triangle's area is A13 - A12 - A23, where Aij is the area between
    the arc from vertex i to vertex j and its chord.  All three come from
    one forced table of the area ODE A''' + kappa A' = 1/2 on the
    vertices, at rtol AREA_TOL, so no point of the curve is read."""
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

    # A_a(b), the area between c|[a, b] and its chord, solves the area ODE
    # from a zero jet at a: entry [0, 3] of the forced propagator from a to b
    props = step_propagators(power_op(3, 1, curve.curvature, Interval(s1, s3)),
                             np.array(vertices, dtype=float), 0.5, AREA_TOL)
    n23 = max(1.0, float(np.abs(props[1]).max()))
    a23 = float(props[1, 0, 3])
    a12, a13 = _table_jets(props, (0.0, 0.0, 0.0), s1)[1:, 0].tolist()
    n12, n13 = np.maximum(1.0, np.abs(props).max(axis=(1, 2))).tolist()  # P12, P23 P12
    area = a13 - a12 - a23

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

    # `_refine` accepts a step to AREA_TOL max(1, its largest entry), so each
    # area errs by about AREA_TOL nij, that of its propagator; their sum
    # must stay under the slack for a verdict
    slack = _slack(bound, tol)
    error = AREA_TOL * (n12 + n23 + n13)
    hyps.append(Hypothesis("area-conditioning", error <= slack,
                           f"area error bound {error:.3g} vs slack {slack:.3g}"))

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
