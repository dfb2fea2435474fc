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
import re
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
MAX_EXPONENT = 400  # largest decimal exponent magnitude of an exact coefficient


class SpecError(ValueError):
    """Malformed specification document."""


def _require(data: dict, key: str):
    if key not in data:
        raise SpecError(f"missing field {key!r}")
    return data[key]


def _floats(values, n: int | None, what: str) -> list[float]:
    """n floats (n None: one or more) from a list of numbers or numeric strings."""
    if not isinstance(values, (list, tuple)) or not values or (n is not None and len(values) != n):
        raise SpecError(f"{what} must be a list of {n or 'one or more'} values")
    try:
        floats = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad number in {what}: {exc}") from None
    if not all(math.isfinite(v) for v in floats):
        raise SpecError(f"non-finite number in {what}: {values}")
    return floats


def exact_number(text: str) -> Fraction:
    """The exact rational of a decimal or fraction string.  A decimal
    exponent beyond MAX_EXPONENT in magnitude (past binary64's range) is
    refused before `Fraction` builds its power of ten."""
    exp = re.search(r"[eE][-+]?([\d_]+)", text)
    digits = exp[1].replace("_", "").lstrip("0") if exp else ""
    if int(digits[:4] or 0) > MAX_EXPONENT:  # four digits tell a longer exponent too
        raise SpecError(f"the exponent of {text[:40]!r} exceeds {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise SpecError(f"{text!r}: {exc}") from None


def _fractions(values, what: str) -> tuple[Fraction, ...]:
    """The exact rationals of a list of numbers or decimal or fraction strings."""
    try:
        return tuple(exact_number(str(v)) for v in values)
    except ValueError as exc:
        raise SpecError(f"bad {what}: {exc}") from None


def _interval(values, what: str = "domain") -> Interval:
    lo, hi = _floats(values, 2, what)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise SpecError(f"{what} endpoints must increase, by a finite length")
    return Interval(lo, hi)


def _poly_fns(coeffs: Sequence[float], orders: int):
    """Closures for a polynomial and its derivatives (ascending coeffs)."""
    cs = [np.asarray(coeffs, dtype=float)]
    with np.errstate(over="ignore"):
        for _ in range(orders):
            cs.append(npoly.polyder(cs[-1]))
    if not all(np.isfinite(c).all() for c in cs):
        raise SpecError(f"the derivatives of the polynomial {list(coeffs)} leave the float range")
    return [functools.partial(_horner, tuple(c.tolist())) for c in cs]


def _horner(c: tuple[float, ...], x: float | np.ndarray) -> float | np.ndarray:
    """The polynomial with ascending coeffs c at x, by the operations of
    numpy's `polyval` in the same order (so the same float), without its
    per-call array set-up.  At a 1-D array, the same operations entry by
    entry, so each entry is the float of the scalar call."""
    acc = c[-1] + x * 0
    for ci in c[-2::-1]:
        acc = ci + acc * x
    return acc if isinstance(acc, np.ndarray) else float(acc)


def _frame(data: dict) -> AdaptedFrame | None:
    if "origin" not in data and "tangent" not in data:
        return None
    return _adapted_frame(*(_floats(_require(data, key), 2, key)
                            for key in ("origin", "tangent", "normal")))


def _adapted_frame(origin, tangent, normal) -> AdaptedFrame:
    """The frame of three float pairs; SpecError when its determinant is not 1."""
    try:
        return AdaptedFrame(np.array(origin), np.array(tangent), np.array(normal))
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
        coeffs = _floats(coeff_strs, None, "coeffs")
        # coeffs are ascending: [c0, c1, c2, ...] for c0 + c1 x + c2 x^2 + ...
        if kind == "parabola" and len(coeffs) != 3:
            raise SpecError("parabola takes ascending quadratic coeffs [c0, c1, c2]")
        if len(coeffs) < 3:
            raise SpecError("graph polynomial must have degree at least 2")
        if len(coeffs) == 3 and coeffs[2] <= 0.0:
            raise ConvexityError(f"{kind} needs a positive quadratic coefficient")
        dom = _interval(_require(data, "domain"))
        # a convex graph lies below its chord, so finite ends bound its points from above
        if not all(math.isfinite(_horner(tuple(coeffs), x)) for x in (dom.lo, dom.hi)):
            raise SpecError(f"the {kind} leaves the float range on [{dom.lo}, {dom.hi}]")
        if len(coeffs) > 3:
            return CurveSpec(kind, graph_curve(GraphJet(*_poly_fns(coeffs, 4)),
                                               dom.lo, dom.hi, label=kind))
        c0, c1, c2 = coeffs
        # the curvature-0 conic: x = x0 + a s, a = (2 c2)^(-1/3), so that
        # c' wedge c'' = 2 c2 a^3 = 1, framed at (x0, p(x0))
        a, x0 = (2.0 * c2) ** (-1.0 / 3.0), dom.lo
        frame = _adapted_frame((x0, c0 + (c1 + c2 * x0) * x0), (a, a * (c1 + 2.0 * c2 * x0)),
                               (0.0, 2.0 * c2 * a * a))
        lam = dom.length * (2.0 * c2) ** (1.0 / 3.0)
        curve = constant_curvature_curve(0.0, Interval(0.0, lam), frame, label=kind)
        q0, q1, q2 = _fractions(coeff_strs, "coeffs")
        return CurveSpec(kind, curve, Conic.make(q2, 0, 0, q1, -1, q0))

    if kind == "conic":
        coeff_strs = _require(data, "coeffs")
        if not isinstance(coeff_strs, (list, tuple)) or len(coeff_strs) != 6:
            raise SpecError("conic takes six coefficients [a, b, c, d, e, f]")
        conic = Conic.make(*_fractions(coeff_strs, "conic coefficient"))
        seed = _floats(_require(data, "seed"), 2, "seed")
        dom = _interval(_require(data, "domain"))
        try:
            curve = conic.branch_curve((seed[0], seed[1]), dom)
        except (OverflowError, ZeroDivisionError):  # a Fraction with no float, or a 0.0 determinant
            raise SpecError("the conic's coefficients or invariants leave the float "
                            "range") from None
        return CurveSpec(kind, curve, conic)

    if kind == "constant-curvature":
        k_str = _require(data, "k")
        k = _floats([k_str], 1, "k")[0]
        dom = _interval(_require(data, "domain"))
        frame = _frame(data)
        curve = constant_curvature_curve(k, dom, frame)
        conic = Conic.make(1, 0, _fractions([k_str], "k")[0], 0, -2, 0) if frame is None else None
        return CurveSpec(kind, curve, conic)

    # curvature-ivp
    coeffs = _floats(_require(data, "kappa_coeffs"), None, "kappa_coeffs")
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
        rows.append(_fractions(raw, f"component in {key}"))
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
    """The box of 512 curve samples, each axis padded by 1 plus 1e-9 of
    its own largest coordinate."""
    pts = curve.point(np.linspace(curve.domain.lo, curve.domain.hi, 512))
    (xmin, ymin), (xmax, ymax) = pts.min(axis=0), pts.max(axis=0)
    xpad = 1.0 + 1e-9 * max(abs(xmin), abs(xmax))
    ypad = 1.0 + 1e-9 * max(abs(ymin), abs(ymax))
    return (float(xmin - xpad), float(xmax + xpad),
            float(ymin - ypad), float(ymax + ypad))
