"""Command-line front end: computation, verification sweeps, lattice
counting, and figure data.

Exit codes: 0 success, 2 parse error, 3 domain/orientation error,
4 hypotheses failed, 5 bound violated.  All randomized sweeps take an
explicit seed (default 0) and log it in their output, so identical
invocations produce byte-identical JSON/CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import compare as cmp
from .curve import (
    ConvexityError,
    OrientationError,
    adapted_frame,
    area_function,
    constant_curvature_curve,
    graphing_parameter_set,
    reconstruct_from_curvature,
)
from .kfuncs import DomainError, Interval, abar, ck, sk
from .lattice import (
    COUNT_BOUNDS,
    ON_CURVE_TOL,
    ConicArc,
    Lattice,
    LatticePointSet,
    LinearConstraint,
    enumerate_near_curve,
    enumerate_on_arc,
    m_of_coords,
    on_curve,
)
from .odekernel import (
    SolverError,
    compare_solutions,
    lagrange_kernel,
    oscillator_op,
    third_order_op,
)
from .reports import sturm_range, swept_area_quadrature
from .sharp_instances import (
    circle_instance,
    hyperbola_general_instance,
    hyperbola_zxz_instance,
    parabola_instance,
)
from .specfiles import SpecError, curve_bbox, exact_number, load_curve_spec, load_lattice_spec

OK, PARSE, DOMAIN, HYPOTHESES, VIOLATED = 0, 2, 3, 4, 5

SCHEMA = 1


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_payload(payload: dict, out: str | None) -> None:
    payload = {"schema": SCHEMA, **payload}
    _emit(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False), out)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _exit_from_reports(reports) -> int:
    verdicts = {r.verdict for r in reports}
    if any(v == "violated" for v in verdicts):
        return VIOLATED
    if any(v == "hypotheses-failed" for v in verdicts):
        return HYPOTHESES
    return OK


# ----------------------------------------------------------------- commands


def cmd_arclength(args) -> int:
    dom = load_curve_spec(args.curve).curve.domain
    print(dom.length)
    if args.out:
        ss = np.linspace(dom.lo, dom.hi, args.samples)
        rows = [[repr(float(s)), repr(float(s - dom.lo))] for s in ss]
        _emit(_csv_text(["s", "arclength_from_start"], rows), args.out)
    return OK


def cmd_curvature(args) -> int:
    spec = load_curve_spec(args.curve)
    c = spec.curve
    where = args.at if args.at is not None else 0.5 * (c.domain.lo + c.domain.hi)
    if where not in c.domain:
        raise DomainError(f"evaluation point {where} outside domain")
    print(c.curvature(where))
    if args.out:
        ss = np.linspace(c.domain.lo, c.domain.hi, args.samples)
        rows = [[repr(float(s)), repr(float(k))] for s, k in zip(ss, c.curvature(ss))]
        _emit(_csv_text(["s", "kappa"], rows), args.out)
    return OK


def cmd_area(args) -> int:
    spec = load_curve_spec(args.curve)
    c = spec.curve
    base = args.base if args.base is not None else c.domain.lo
    apex = tuple(args.apex) if args.apex else None
    area = area_function(c, base, apex)
    ss = np.linspace(c.domain.lo, c.domain.hi, args.samples if args.out else 0)
    values = area(np.append(ss, c.domain.hi))  # one pass; the last entry is A(hi)
    print(float(values[-1]))
    if args.out:
        rows = [[repr(float(s)), repr(float(a))] for s, a in zip(ss, values)]
        _emit(_csv_text(["s", "area"], rows), args.out)
    return OK


def cmd_kernel(args) -> int:
    if args.grid < 2:
        raise ValueError(f"--grid needs at least 2 points, got {args.grid}")
    interval = Interval(args.lo, args.hi)
    k = args.k
    # the closed form at an array of offsets s - r, in one profile read
    if args.family == "second":
        op = oscillator_op(k, interval)
        closed = lambda d: sk(k, d).tolist()
    else:
        op = third_order_op(k, interval)
        closed = ((lambda d: ((1.0 - ck(k, d)) / k).tolist()) if k != 0.0
                  else (lambda d: [u ** 2 / 2.0 for u in d.tolist()]))
    kernel = lagrange_kernel(op)
    grid = np.linspace(args.lo, args.hi, args.grid)
    r_at, s_at = np.triu_indices(len(grid), 1)  # every pair r < s, column by column
    closed_values = iter(closed(grid[s_at] - grid[r_at]))
    rows, worst = [], 0.0
    for i, r in enumerate(grid[:-1]):
        col = kernel.column(float(r))
        for s, vb in zip(grid[i + 1:], closed_values):
            va = col(float(s))
            worst = max(worst, abs(va - vb))
            rows.append([repr(float(s)), repr(float(r)), repr(va), repr(vb)])
    print(worst)
    if args.out:
        _emit(_csv_text(["s", "r", "kernel", "closed_form"], rows), args.out)
    return OK


def cmd_bounds(args) -> int:
    lower, upper = cmp.area_bounds(args.k0, args.k1, args.L)
    payload = {
        "inputs": {"k0": args.k0, "k1": args.k1, "L": args.L},
        "area_sandwich": {"lower": lower, "upper": upper},
        "triangle_arc_bound": cmp.triangle_bound_arc(args.k0, args.L),
    }
    try:
        payload["triangle_rect_bound"] = cmp.triangle_bound_rect(args.k0, args.L)
    except DomainError as exc:
        payload["triangle_rect_bound"] = None
        payload["triangle_rect_note"] = str(exc)
    _json_payload(payload, args.out)
    return OK


# ------------------------------------------------------------ verify sweeps


def _random_band_curvature(rng, k0, k1):
    a = rng.uniform(k0, k1, size=2)
    w = rng.uniform(0.5, 2.0)
    lo, hi = min(a), max(a)
    mid, amp = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def kap(s, mid=mid, amp=amp, w=w):
        return mid + amp * math.sin(w * s)

    return kap


def _verify_thm23(args, rng):
    from .curve import area_ode_residual
    reports = []
    for _ in range(args.trials):
        kap = _random_band_curvature(rng, -2.0, 1.0)
        curve = reconstruct_from_curvature(kap, Interval(0.0, args.L))
        res = area_ode_residual(curve, area_function(curve, 0.0))
        reports.append(cmp.BoundReport(theorem="thm2.3", lhs=res, rhs=0.0,
                                       slack=args.tol or 1e-5))
    return reports


def _verify_thm34(args, rng):
    reports = []
    interval = Interval(0.0, args.L)
    sturm = sturm_range(args.k1, (math.pi / args.L) ** 2)
    if args.k1 > 0.0 and not sturm.ok:
        return [cmp.BoundReport(theorem="thm3.4", hypotheses=[sturm])]
    for _ in range(args.trials):
        kbar = _random_band_curvature(rng, args.k0, args.k1)
        gap = rng.uniform(0.0, 1.5)
        kap = lambda s, kb=kbar, g=gap: kb(s) - g
        reports.append(compare_solutions(kap, kbar, 3, 1, 0.5, (0.0, 0.0, 0.0),
                                         interval, tol=args.tol or 1e-7,
                                         positivity_grid_n=31))
    return reports


def _verify_thm41(args, rng):
    reports = []
    cap = (math.pi / args.L) ** 2
    for trial in range(args.trials):
        case = trial % 3
        if case == 0:      # constant reference
            kbar_val = rng.uniform(args.k0, args.k1)
            kbar = lambda s, v=kbar_val: v
            kap = _random_band_curvature(rng, args.k0, kbar_val)
        elif case == 1:    # nonpositive reference
            kbar = _random_band_curvature(rng, min(args.k0, -0.01), 0.0)
            kbar_ref = kbar
            kbar = lambda s, f=kbar_ref: min(0.0, f(s))
            kap = lambda s, f=kbar, g=rng.uniform(0.0, 1.0): f(s) - g
        else:              # bounded positive reference
            k1 = min(args.k1, 0.9 * cap) if args.k1 > 0 else 0.5 * cap
            kbar = _random_band_curvature(rng, 0.0, k1)
            kap = lambda s, f=kbar, g=rng.uniform(0.0, 1.0): f(s) - g
        curve = reconstruct_from_curvature(kap, Interval(0.0, args.L))
        reports.append(cmp.area_compare(curve, kbar, args.L,
                                        tol=args.tol or 1e-7,
                                        positivity_grid_n=41))
    return reports


def _verify_cor42(args, rng):
    reports = []
    lo_b, hi_b = abar(args.k1, args.L), abar(args.k0, args.L)
    for _ in range(args.trials):
        kap = _random_band_curvature(rng, args.k0, args.k1)
        curve = reconstruct_from_curvature(kap, Interval(0.0, args.L))
        val, err = area_function(curve, 0.0).with_error(args.L)
        worst = max(lo_b - val, val - hi_b)
        slack = 1e-7 * max(1.0, hi_b)
        reports.append(cmp.BoundReport(
            theorem="cor4.2", lhs=worst, rhs=0.0, slack=slack,
            hypotheses=[swept_area_quadrature(err, slack)],
            notes=f"area {val} in [{lo_b}, {hi_b}]"))
    return reports


def _verify_thm56(args, rng):
    reports = []
    if args.constant is not None:
        k = args.constant
        curve = constant_curvature_curve(k, Interval(-args.L, args.L))
        reports.append(cmp.coord_bounds_check(curve, 0.0, k, k, args.L,
                                              tol=args.tol or 1e-7))
        return reports
    for _ in range(args.trials):
        kap = _random_band_curvature(rng, args.k0, args.k1)
        curve = reconstruct_from_curvature(kap, Interval(-args.L, args.L))
        reports.append(cmp.coord_bounds_check(curve, 0.0, args.k0, args.k1,
                                              args.L, tol=args.tol or 1e-7))
    return reports


def _verify_triangles(args, rng, kind):
    if args.k0 > 0.0:
        raise ValueError(f"verify {args.theorem} sweeps curvatures in [k0, min(k1, 0)]; "
                         f"it needs k0 <= 0, got k0 = {args.k0}")
    reports = []
    for _ in range(args.trials):
        kap = _random_band_curvature(rng, args.k0, min(args.k1, 0.0))
        curve = reconstruct_from_curvature(kap, Interval(0.0, args.L))
        params = np.sort(rng.uniform(0.0, args.L, size=3))
        if params[0] + 1e-9 >= params[1] or params[1] + 1e-9 >= params[2]:
            continue
        reports.append(cmp.verify_triangle_bound(curve, tuple(params), kind,
                                                 tol=args.tol or 1e-7))
    return reports


VERIFY_REGISTRY = {
    "thm2.3": _verify_thm23,
    "thm3.4": _verify_thm34,
    "thm4.1": _verify_thm41,
    "cor4.2": _verify_cor42,
    "thm5.6": _verify_thm56,
    "prop4.3": lambda a, r: _verify_triangles(a, r, "arc"),
    "thm5.8": lambda a, r: _verify_triangles(a, r, "rect"),
}


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    reports = VERIFY_REGISTRY[args.theorem](args, rng)
    for i, rep in enumerate(reports):
        line = f"{args.theorem} trial {i}: {rep.verdict}"
        if rep.equality:
            line += " (equality)"
        print(line)
    if args.format == "csv":
        rows = [[i, args.theorem, r.verdict, repr(r.lhs), repr(r.rhs),
                 int(r.equality)] for i, r in enumerate(reports)]
        _emit(_csv_text(["trial", "theorem", "verdict", "lhs", "rhs",
                         "equality"], rows), args.out)
    else:
        payload = {
            "theorem": args.theorem,
            "seed": args.seed,
            "trials": len(reports),
            "reports": [r.to_dict() for r in reports],
        }
        _json_payload(payload, args.out)
    return _exit_from_reports(reports)


# ------------------------------------------------------------------- count


def _window_constraints(args) -> tuple[LinearConstraint, ...]:
    """g1 x + g2 y + g0 >= 0 for each bound given, (g1, g2) pointing inwards."""
    sides = {"xmin": (1, 0), "xmax": (-1, 0), "ymin": (0, 1), "ymax": (0, -1)}
    return tuple(LinearConstraint.make(g1, g2, -(g1 + g2) * getattr(args, name))
                 for name, (g1, g2) in sides.items() if getattr(args, name) is not None)


def cmd_count(args) -> int:
    spec = load_curve_spec(args.curve)
    lat = load_lattice_spec(args.lattice)
    curve = spec.curve

    warning = None
    window = _window_constraints(args)
    if spec.exact:
        arc = ConicArc(conic=spec.conic, constraints=window, bbox=curve_bbox(curve))
        points = on_curve(curve, lat, enumerate_on_arc(arc, lat).coords, ON_CURVE_TOL)
    else:
        tol = args.tol or 1e-9
        warning = ("no exact membership test for this curve type; "
                   f"using {tol:g} proximity membership")
        near = enumerate_near_curve(curve, lat, tol=tol)
        keep = [i for i, p in enumerate(near.positions) if all(g.satisfied(*p) for g in window)]
        points = LatticePointSet([near.coords[i] for i in keep], [near.positions[i] for i in keep],
                                 [near.params[i] for i in keep], exact=False)

    grid = np.linspace(curve.domain.lo, curve.domain.hi, 201)
    kv = curve.curvature(grid).tolist()
    k0, k1 = min(kv), max(kv)
    lam = curve.domain.length
    cell = float(lat.cell_area)
    multiplier = args.multiplier or m_of_coords(points.coords)

    bound_args = (k0, k1, lam, multiplier, cell)
    if args.theorem == "auto":
        try:
            cert = COUNT_BOUNDS["rigid_lat"](*bound_args)
        except ValueError:
            cert = COUNT_BOUNDS["sharp_lat"](*bound_args)
    else:
        cert = COUNT_BOUNDS[args.theorem](*bound_args)

    count = len(points)
    payload = {
        "certificate": cert.to_dict(),
        "count": count,
        "points": [[m, n, float(x), float(y)] for (m, n), (x, y) in
                   zip(points.coords, points.positions)],
        "exact_membership": points.exact,
        "sharp": cert.bound is not None and count == cert.bound,
    }
    if warning:
        payload["warning"] = warning
    if args.format == "csv":
        rows = [[m, n, repr(float(x)), repr(float(y))]
                for (m, n), (x, y) in zip(points.coords, points.positions)]
        _emit(_csv_text(["m", "n", "x", "y"], rows), None)
    else:
        _json_payload(payload, None)
    summary = f"bound {cert.bound} count {count}"
    if payload["sharp"]:
        summary += " SHARP"
    print(summary)
    if args.out:
        rows = [[m, n, repr(float(x)), repr(float(y)), repr(float(s))]
                for (m, n), (x, y), s in
                zip(points.coords, points.positions, points.params)]
        _emit(_csv_text(["m", "n", "x", "y", "param"], rows), args.out)
    if cert.bound is None or not cert.conclusive:
        return HYPOTHESES
    if count > cert.bound:
        return VIOLATED
    return OK


# ------------------------------------------------------------------ figures


def _rows(series, pts, params=None, marker=1) -> list[list]:
    return [[series, repr(float(i if params is None else params[i])), repr(float(p[0])),
             repr(float(p[1])), marker] for i, p in enumerate(pts)]


def _curve_rows(series, curve) -> list[list]:
    ss = np.linspace(curve.domain.lo, curve.domain.hi, 200)
    return _rows(series, curve.point(ss), ss, marker=0)


def _fig1() -> list[list]:
    steep = constant_curvature_curve(0.0, Interval(0.0, 2.0))
    flat = constant_curvature_curve(-1.0, Interval(0.0, 2.0))
    return (_curve_rows("reference", steep) + _curve_rows("comparison", flat)
            + _rows("secant", [steep.point(0.0), steep.point(2.0)])
            + _rows("secant_comparison", [flat.point(0.0), flat.point(2.0)]))


def _fig5() -> list[list]:
    c = constant_curvature_curve(-1.0, Interval(-1.0, 1.0))
    ends = [-1.0, 0.0, 1.0]
    return _curve_rows("conic", c) + _rows("triangle", [c.point(s) for s in ends], ends)


def _fig6() -> list[list]:
    c = constant_curvature_curve(1.0, Interval(-1.2, 1.2))
    fr, gset = adapted_frame(c, 0.0), graphing_parameter_set(c, 0.0)
    return (_curve_rows("curve", c) + _rows("frame_origin", [fr.origin])
            + _rows("frame_tangent", [fr.origin + fr.tangent])
            + _rows("frame_normal", [fr.origin + fr.normal])
            + _rows("graphing_param_endpoints", [c.point(gset.lo), c.point(gset.hi)],
                    [gset.lo, gset.hi]))


def _fig7() -> list[list]:
    inst = hyperbola_zxz_instance(1)
    pts = inst.enumerate()
    return (_curve_rows("hyperbola", inst.curve)
            + _rows("lattice_points", pts.positions_float(), pts.params))


def _fig8() -> list[list]:
    inst = circle_instance(1.0)
    rows = _curve_rows("circle", inst.curve)
    for config in inst.configs:
        rows += _rows(config.name, inst.plane_points(config, 4))
    return rows


FIGURES = {"fig1": _fig1, "fig5": _fig5, "fig6": _fig6, "fig7": _fig7, "fig8": _fig8}


def cmd_figures(args) -> int:
    rows = FIGURES[args.figure]()
    _emit(_csv_text(["series", "s", "x", "y", "marker"], rows), args.out)
    return OK


# ----------------------------------------------------------------- examples


def _write_spec(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(spec, sort_keys=True, indent=2))
    return str(path)


def _export_sharp(inst, args, outdir: Path) -> dict:
    return {
        "m0": args.m0,
        "rigid": args.rigid,
        "theorem": inst.theorem,
        "expected_bound": inst.expected_bound,
        "expected_count": len(inst.expected_coords),
        "curve_spec": _write_spec(outdir / f"{args.name}-curve.json", inst.to_curve_spec()),
        "lattice_spec": _write_spec(outdir / f"{args.name}-lattice.json",
                                    inst.to_lattice_spec()),
    }


def _export_circle(args, outdir: Path) -> dict:
    inst = circle_instance(1.0)
    _write_spec(outdir / "circle-curve.json", {
        "type": "conic", "coeffs": ["1", "0", "1", "0", "0", "-1"],
        "seed": ["1", "0"], "domain": ["0", repr(inst.lam_full)]})
    return {"configs": [{"name": c.name, "theta": c.theta, "trace": c.trace}
                        for c in inst.configs]}


# example name -> exporter writing its spec files and returning the rest of the payload
EXAMPLES = {
    "parabola": lambda a, d: _export_sharp(parabola_instance(m0=a.m0, rigid=a.rigid), a, d),
    "hyperbola": lambda a, d: _export_sharp(hyperbola_zxz_instance(a.m0, a.rigid), a, d),
    "hyperbola-general": lambda a, d: _export_sharp(hyperbola_general_instance(
        Lattice.make((0, 0), (2, 0), (0, 4)), a.m0, a.rigid), a, d),
    "circle": _export_circle,
}


def cmd_examples(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _json_payload({"instance": args.name, **EXAMPLES[args.name](args, outdir)}, args.out)
    return OK


# -------------------------------------------------------------------- main


def finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite float greater than zero."""
    value = finite_float(text)
    if value <= 0.0:
        raise ValueError(text)
    return value


def positive_int(text: str) -> int:
    """argparse type: an integer greater than zero."""
    value = int(text)
    if value <= 0:
        raise ValueError(text)
    return value


def non_negative_int(text: str) -> int:
    """argparse type: an integer of zero or more."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: `prog` is fixed and every
    default is immutable, so each `main` call can share it."""
    p = argparse.ArgumentParser(prog="affinecurves",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    shared = {"tol": {"type": positive_float, "default": None},
              "seed": {"type": int, "default": 0},
              "format": {"choices": ("json", "csv"), "default": "json"},
              "samples": {"type": non_negative_int, "default": 65}}

    def common(sp, *names):
        """--out and the named shared options: a subcommand takes those it reads."""
        sp.add_argument("--out", default=None)
        for name in names:
            sp.add_argument(f"--{name}", **shared[name])

    sp = sub.add_parser("arclength", help="affine arc length of a curve spec")
    sp.add_argument("curve")
    common(sp, "samples")
    sp.set_defaults(fn=cmd_arclength)

    sp = sub.add_parser("curvature", help="affine curvature of a curve spec")
    sp.add_argument("curve")
    sp.add_argument("--at", type=finite_float, default=None)
    common(sp, "samples")
    sp.set_defaults(fn=cmd_curvature)

    sp = sub.add_parser("area", help="swept area function of a curve spec")
    sp.add_argument("curve")
    sp.add_argument("--base", type=finite_float, default=None)
    sp.add_argument("--apex", type=finite_float, nargs=2, default=None)
    common(sp, "samples")
    sp.set_defaults(fn=cmd_area)

    sp = sub.add_parser("kernel", help="Lagrange kernel vs closed form")
    sp.add_argument("--family", choices=("second", "third"), default="third")
    sp.add_argument("--k", type=finite_float, required=True)
    sp.add_argument("--lo", type=finite_float, default=0.0)
    sp.add_argument("--hi", type=finite_float, default=1.0)
    sp.add_argument("--grid", type=int, default=11)
    common(sp)
    sp.set_defaults(fn=cmd_kernel)

    sp = sub.add_parser("bounds", help="area sandwich and triangle bounds")
    sp.add_argument("--k0", type=finite_float, required=True)
    sp.add_argument("--k1", type=finite_float, required=True)
    sp.add_argument("--L", type=finite_float, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("verify", help="randomized verification sweeps")
    sp.add_argument("theorem", choices=tuple(VERIFY_REGISTRY))
    sp.add_argument("--k0", type=finite_float, default=-1.0)
    sp.add_argument("--k1", type=finite_float, default=0.0)
    sp.add_argument("--L", type=positive_float, default=2.0)
    sp.add_argument("--trials", type=positive_int, default=20)
    sp.add_argument("--constant", type=finite_float, default=None)
    common(sp, "tol", "format", "seed")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("count", help="lattice points on an arc vs bound")
    sp.add_argument("curve")
    sp.add_argument("lattice")
    sp.add_argument("--theorem", default="auto", choices=("auto", *COUNT_BOUNDS))
    sp.add_argument("--multiplier", type=positive_int, default=None)
    for name in ("xmin", "xmax", "ymin", "ymax"):
        sp.add_argument(f"--{name}", type=exact_number, default=None)
    common(sp, "tol", "format")
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("figures", help="CSV data for the figures")
    sp.add_argument("figure", choices=tuple(FIGURES))
    common(sp)
    sp.set_defaults(fn=cmd_figures)

    sp = sub.add_parser("examples", help="export sharp instances as spec files")
    sp.add_argument("name", choices=tuple(EXAMPLES))
    sp.add_argument("--m0", type=int, default=1)
    sp.add_argument("--rigid", action="store_true")
    sp.add_argument("--outdir", default=".")
    common(sp)
    sp.set_defaults(fn=cmd_examples)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return PARSE if exc.code not in (0, None) else OK
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE
    except (DomainError, OrientationError, ConvexityError, SolverError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
