"""Curve and lattice specification documents (JSON).

Numeric literals are decimal strings parsed by round-to-nearest into
binary64 (Python's float constructor is correctly rounded); coefficients
that feed exact lattice arithmetic also accept fraction strings like
"5/3" and are kept as Fractions.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .conics import Conic
from .curve import (
    AdaptedFrame,
    AffineCurve,
    ConvexityError,
    GraphJet,
    constant_curvature_curve,
    graph_curve,
    reconstruct_from_curvature,
)
from .kfuncs import Interval
from .lattice import Lattice

CURVE_KINDS = ("parabola", "conic", "graph", "constant-curvature", "curvature-ivp")


class SpecError(ValueError):
    """Malformed specification document."""


def _require(data: dict, key: str):
    if key not in data:
        raise SpecError(f"missing field {key!r}")
    return data[key]


def _floats(values, n: int, what: str) -> list[float]:
    if not isinstance(values, (list, tuple)) or len(values) != n:
        raise SpecError(f"{what} must be a list of {n} values")
    try:
        floats = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad number in {what}: {exc}") from None
    if not all(math.isfinite(v) for v in floats):
        raise SpecError(f"non-finite number in {what}: {values}")
    return floats


def _interval(values, what: str = "domain") -> Interval:
    lo, hi = _floats(values, 2, what)
    if not lo < hi:
        raise SpecError(f"{what} endpoints must increase")
    return Interval(lo, hi)


def _poly_fns(coeffs: Sequence[float], orders: int):
    """Closures for a polynomial and its derivatives (ascending coeffs)."""
    cs = [np.asarray(coeffs, dtype=float)]
    for _ in range(orders):
        cs.append(npoly.polyder(cs[-1]))
    return [functools.partial(_horner, tuple(c.tolist())) for c in cs]


def _horner(c: tuple[float, ...], x: float) -> float:
    """The polynomial with ascending coeffs c at x, by the operations of
    numpy's `polyval` in the same order (so the same float), without its
    per-call array set-up."""
    acc = c[-1] + x * 0
    for ci in c[-2::-1]:
        acc = ci + acc * x
    return float(acc)


def _frame(data: dict) -> AdaptedFrame | None:
    if "origin" not in data and "tangent" not in data:
        return None
    origin = np.array(_floats(_require(data, "origin"), 2, "origin"))
    tangent = np.array(_floats(_require(data, "tangent"), 2, "tangent"))
    normal = np.array(_floats(_require(data, "normal"), 2, "normal"))
    try:
        return AdaptedFrame(origin, tangent, normal)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


@dataclass
class CurveSpec:
    """A parsed curve document: the unit-speed curve and the exact conic
    when membership on the curve is decidable in rational arithmetic."""

    kind: str
    curve: AffineCurve
    conic: Conic | None = None

    @property
    def exact(self) -> bool:
        return self.conic is not None


def parse_curve_spec(data: dict) -> CurveSpec:
    if not isinstance(data, dict):
        raise SpecError("curve spec must be a JSON object")
    kind = _require(data, "type")
    if kind not in CURVE_KINDS:
        raise SpecError(f"unknown curve type {kind!r}; expected one of {CURVE_KINDS}")

    if kind in ("parabola", "graph"):
        coeff_strs = _require(data, "coeffs")
        coeffs = _floats(coeff_strs, len(coeff_strs), "coeffs")
        # coeffs are ascending: [c0, c1, c2, ...] for c0 + c1 x + c2 x^2 + ...
        if kind == "parabola":
            if len(coeffs) != 3:
                raise SpecError("parabola takes ascending quadratic coeffs [c0, c1, c2]")
            if coeffs[2] <= 0.0:
                raise ConvexityError("parabola needs a positive quadratic coefficient")
        elif len(coeffs) < 3:
            raise SpecError("graph polynomial must have degree at least 2")
        dom = _interval(_require(data, "domain"))
        curve = graph_curve(GraphJet(*_poly_fns(coeffs, 4)), dom.lo, dom.hi, label=kind)
        conic = None
        if len(coeffs) == 3:
            c0, c1, c2 = (Fraction(str(v)) for v in coeff_strs)
            conic = Conic.make(c2, 0, 0, c1, -1, c0)
        return CurveSpec(kind, curve, conic)

    if kind == "conic":
        coeff_strs = _require(data, "coeffs")
        if len(coeff_strs) != 6:
            raise SpecError("conic takes six coefficients [a, b, c, d, e, f]")
        try:
            conic = Conic.make(*[Fraction(str(v)) for v in coeff_strs])
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"bad conic coefficient: {exc}") from None
        seed = _floats(_require(data, "seed"), 2, "seed")
        dom = _interval(_require(data, "domain"))
        curve = conic.branch_curve((seed[0], seed[1]), dom)
        return CurveSpec(kind, curve, conic)

    if kind == "constant-curvature":
        k_str = _require(data, "k")
        k = _floats([k_str], 1, "k")[0]
        dom = _interval(_require(data, "domain"))
        frame = _frame(data)
        curve = constant_curvature_curve(k, dom, frame)
        conic = None
        if frame is None:
            try:
                kf = Fraction(str(k_str))
                conic = Conic.make(1, 0, kf, 0, -2, 0)
            except (ValueError, ZeroDivisionError):
                conic = None
        return CurveSpec(kind, curve, conic)

    # curvature-ivp
    coeffs = _floats(_require(data, "kappa_coeffs"),
                     len(_require(data, "kappa_coeffs")), "kappa_coeffs")
    dom = _interval(_require(data, "domain"))
    if not dom.lo <= 0.0 <= dom.hi:
        raise SpecError("curvature-ivp domain must contain the anchor s = 0")
    kap = _poly_fns(coeffs, 0)[0]
    curve = reconstruct_from_curvature(kap, dom, _frame(data))
    return CurveSpec(kind, curve)


def parse_lattice_spec(data: dict) -> Lattice:
    if not isinstance(data, dict):
        raise SpecError("lattice spec must be a JSON object")
    rows = []
    for key in ("v0", "v1", "v2"):
        raw = _require(data, key)
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise SpecError(f"{key} must be a pair")
        try:
            rows.append(tuple(Fraction(str(v)) for v in raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"bad component in {key}: {exc}") from None
    try:
        return Lattice.make(*rows)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def load_curve_spec(path: str | Path) -> CurveSpec:
    return parse_curve_spec(_load_json(path))


def load_lattice_spec(path: str | Path) -> Lattice:
    return parse_lattice_spec(_load_json(path))


def _load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in {path}: {exc}") from None


def curve_bbox(curve: AffineCurve) -> tuple[float, float, float, float]:
    """The box of 512 curve samples, padded by 1 (plus 1e-9 relative)."""
    pts = curve.point(np.linspace(curve.domain.lo, curve.domain.hi, 512))
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    pad = 1.0 + 1e-9 * max(abs(xmin), abs(xmax), abs(ymin), abs(ymax))
    return (float(xmin - pad), float(xmax + pad),
            float(ymin - pad), float(ymax + pad))
