"""Curvature-parametrized trigonometric profiles and their inverses.

A single real constant k selects among the oscillatory (k > 0), flat
(k = 0) and hyperbolic (k < 0) branches of the solutions of u'' + k u = 0.
Everything here reduces to four even power series in z = k*s**2,

    C0(z) = sum (-z)^n / (2n)!      -> ck
    C1(z) = sum (-z)^n / (2n+1)!    -> sk, xbar
    C2(z) = sum (-z)^n / (2n+2)!    -> ybar
    C3(z) = sum (-z)^n / (2n+3)!    -> abar

evaluated by closed trig/hyperbolic forms away from z = 0 and by the
series near it, so every function is smooth across the k = 0 transition.

`ck`, `sk` (so `xbar` and `dck`) and `ybar` also take a NumPy array of s
and return, in one call, the array of the scalar reads, bit for bit: each
entry takes the branch its scalar read takes and gets the series sum that
read gets.  The square roots, products and quotients run on the whole
array, being correctly rounded; sin, cos, sinh and cosh are called
through libm entry by entry, because NumPy's own versions can differ from
libm in the last bit (with NumPy 2.4.6 on x86-64, sinh and cosh differ on
about a quarter of random entries in [-10, 10]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

# Below this |z| the closed forms for C2/C3 cancel catastrophically
# (about half the significand is lost by |z| ~ 1e-8); the series is
# exact to < 1e-18 here and costs at most a dozen terms.
_SERIES_CUTOFF = 0.1
_SERIES_TOL = 1e-20

_INF = math.inf


class DomainError(ValueError):
    """Argument outside a function's natural domain."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; hi may be +inf."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    def __contains__(self, s: float) -> bool:
        return self.lo <= s <= self.hi

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def clamp(self, s: float) -> float:
        return min(max(s, self.lo), self.hi)


def _series(z: float, j: int) -> float:
    # sum_{n>=0} (-z)^n / (2n+j)!
    term = 1.0 / math.factorial(j)
    total = term
    n = 1
    while abs(term) > _SERIES_TOL:
        term *= -z / ((2 * n + j) * (2 * n + j - 1))
        total += term
        n += 1
    return total


# The hyperbolic branches saturate to inf past u ~ 710 instead of raising,
# so the bracketing inversions can probe far overshoots safely.


def _cosh(u: float) -> float:
    try:
        return math.cosh(u)
    except OverflowError:
        return _INF


def _sinh(u: float) -> float:
    try:
        return math.sinh(u)
    except OverflowError:
        return _INF


def _c0(z: float) -> float:
    if abs(z) < _SERIES_CUTOFF:
        return _series(z, 0)
    if z > 0.0:
        return math.cos(math.sqrt(z))
    return _cosh(math.sqrt(-z))


def _c1(z: float) -> float:
    if abs(z) < _SERIES_CUTOFF:
        return _series(z, 1)
    if z > 0.0:
        u = math.sqrt(z)
        return math.sin(u) / u
    u = math.sqrt(-z)
    return _sinh(u) / u


def _c2(z: float) -> float:
    if abs(z) < _SERIES_CUTOFF:
        return _series(z, 2)
    if z > 0.0:
        return (1.0 - math.cos(math.sqrt(z))) / z
    u = math.sqrt(-z)
    return (_cosh(u) - 1.0) / (u * u)


def _c3(z: float) -> float:
    if abs(z) < _SERIES_CUTOFF:
        return _series(z, 3)
    if z > 0.0:
        u = math.sqrt(z)
        return (u - math.sin(u)) / (z * u)
    u = math.sqrt(-z)
    return (_sinh(u) - u) / (u ** 3)


def _finite(name: str, profile, k: float, s: float) -> float:
    """profile(k, s) where it is a finite float, else DomainError.

    The public profiles go through here, so they never return inf or nan
    (the inversions below probe the saturating forms directly).
    """
    if math.isfinite(k * s * s):
        try:
            value = profile(k, s)
        except OverflowError:  # s ** 3 or u ** 3 beyond the float range
            value = _INF
        if math.isfinite(value):
            return value
    raise DomainError(f"{name}({k!r}, {s!r}) is not a finite float")


def _ck(k: float, s: float) -> float:
    return _c0(k * s * s)


def _sk(k: float, s: float) -> float:
    return s * _c1(k * s * s)


def _ybar(k: float, s: float) -> float:
    return s * s * _c2(k * s * s)


def _abar(k: float, s: float) -> float:
    return 0.5 * s ** 3 * _c3(k * s * s)


_SATURATING = {math.sinh: _sinh, math.cosh: _cosh}


def _libm(fn, u: np.ndarray) -> np.ndarray:
    """fn at each entry of u, through the scalar call; math.sinh and
    math.cosh saturate to inf past the float range, as `_sinh` and `_cosh`
    do."""
    try:
        return np.fromiter(map(fn, u.tolist()), dtype=float, count=u.size)
    except OverflowError:
        return np.fromiter(map(_SATURATING[fn], u.tolist()), dtype=float, count=u.size)


def _series_rows(z: np.ndarray, j: int) -> np.ndarray:
    """`_series(z, j)` at each entry of an array with |z| < _SERIES_CUTOFF.

    Every entry takes as many terms as the scalar loop takes at the largest
    |z|, which is the longest such loop: rounding is monotone, so no term
    of a smaller |z| is larger.  The terms and partial sums are the scalar
    ones, multiplied and added in the same order; the terms an entry's own
    loop would not take are at most _SERIES_TOL, under half an ulp of a
    total above 1/6, so adding them leaves the total as it is.
    """
    n_terms, term = 0, 1.0 / math.factorial(j)
    zmax = float(np.max(np.abs(z), initial=0.0))
    while abs(term) > _SERIES_TOL:
        n_terms += 1
        term *= zmax / ((2 * n_terms + j) * (2 * n_terms + j - 1))
    term = np.full(z.shape, 1.0 / math.factorial(j))
    total = term.copy()
    neg_z = -z
    for n in range(1, n_terms + 1):
        term *= neg_z / ((2 * n + j) * (2 * n + j - 1))
        total += term
    return total


def _c_rows(z: np.ndarray, j: int) -> np.ndarray:
    """`_c0`, `_c1` or `_c2` (j = 0, 1, 2) at each entry of a finite array."""
    out = np.empty_like(z)
    near = np.abs(z) < _SERIES_CUTOFF
    out[near] = _series_rows(z[near], j)
    pos = ~near & (z > 0.0)
    zp = z[pos]
    u = np.sqrt(zp)
    if j == 0:
        out[pos] = _libm(math.cos, u)
    elif j == 1:
        out[pos] = _libm(math.sin, u) / u
    else:
        out[pos] = (1.0 - _libm(math.cos, u)) / zp
    neg = ~near & ~pos
    u = np.sqrt(-z[neg])
    if j == 0:
        out[neg] = _libm(math.cosh, u)
    elif j == 1:
        out[neg] = _libm(math.sinh, u) / u
    else:
        out[neg] = (_libm(math.cosh, u) - 1.0) / (u * u)
    return out


def _finite_rows(name: str, profile_rows, k: float, s: np.ndarray) -> np.ndarray:
    """`_finite(name, profile, k, .)` at each entry of s, where
    profile_rows(z, s) is the profile at finite z = k*s*s.  Raises the
    DomainError of the first entry whose scalar read raises."""
    s = np.asarray(s, dtype=float)
    values = np.full(s.shape, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        z = k * s * s
        ok = np.isfinite(z)
        values[ok] = profile_rows(z[ok], s[ok])
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(f"{name}({k!r}, {float(s[bad][0])!r}) is not a finite float")
    return values


def ck(k: float, s: float | np.ndarray) -> float | np.ndarray:
    """cos(sqrt(k) s) continued through k <= 0; even in s; ck(k, 0) = 1."""
    if isinstance(s, np.ndarray):
        return _finite_rows("ck", lambda z, s: _c_rows(z, 0), k, s)
    return _finite("ck", _ck, k, s)


def sk(k: float, s: float | np.ndarray) -> float | np.ndarray:
    """sin(sqrt(k) s)/sqrt(k) continued through k <= 0; odd in s; sk' = ck."""
    if isinstance(s, np.ndarray):
        return _finite_rows("sk", lambda z, s: s * _c_rows(z, 1), k, s)
    return _finite("sk", _sk, k, s)


def dck(k: float, s: float | np.ndarray) -> float | np.ndarray:
    """d/ds ck = -k sk."""
    return -k * sk(k, s)


def xbar(k: float, s: float | np.ndarray) -> float | np.ndarray:
    """First adapted coordinate of the constant-curvature-k profile.

    Solves x''' + k x' = 0 with x(0) = 0, x'(0) = 1, x''(0) = 0;
    identical to sk.
    """
    return sk(k, s)


def ybar(k: float, s: float | np.ndarray) -> float | np.ndarray:
    """Second adapted coordinate: (1 - ck(k, s))/k, continued to s**2/2 at k = 0."""
    if isinstance(s, np.ndarray):
        return _finite_rows("ybar", lambda z, s: s * s * _c_rows(z, 2), k, s)
    return _finite("ybar", _ybar, k, s)


def abar(k: float, s: float) -> float:
    """Area profile of the constant-curvature-k curve.

    (s - sk(k, s))/(2k), continued to s**3/12 at k = 0.  Solves
    A''' + k A' = 1/2 with a triple zero at the origin and is strictly
    increasing in s >= 0 for k <= 0.
    """
    return _finite("abar", _abar, k, s)


def profile_interval(k: float) -> Interval:
    """Interval on which both adapted profiles increase: [0, inf) or [0, pi/(2 sqrt k)]."""
    if k <= 0.0:
        return Interval(0.0, _INF)
    return Interval(0.0, 0.5 * math.pi / math.sqrt(k))


def rect_area_interval(k: float) -> Interval:
    """Range of hk over profile_interval(k): [0, inf) or [0, k**-1.5]."""
    if k <= 0.0:
        return Interval(0.0, _INF)
    return Interval(0.0, _neg_three_halves(k))


# Relative fudge admitting arguments a hair past a float-rounded endpoint.
_EDGE_RTOL = 1e-12


def _neg_three_halves(k: float) -> float:
    """k**-1.5, saturating to inf for k small enough to overflow."""
    try:
        return k ** -1.5
    except OverflowError:
        return _INF


def _hk(k: float, s: float) -> float:
    if s < 0.0:
        raise DomainError(f"hk: s = {s} < 0")
    if k > 0.0:
        smax = 0.5 * math.pi / math.sqrt(k)
        if s > smax * (1.0 + _EDGE_RTOL):
            raise DomainError(f"hk: s = {s} beyond pi/(2 sqrt k) = {smax}")
        if s >= smax:
            return _neg_three_halves(k)
    return _sk(k, s) * _ybar(k, s)


def hk(k: float, s: float) -> float:
    """Half-rectangle area profile xbar * ybar, strictly increasing on profile_interval(k).

    For k > 0 the right endpoint s = pi/(2 sqrt k) maps exactly to k**-1.5.
    Raises DomainError outside the interval.
    """
    return _finite("hk", _hk, k, s)


def _dhk(k: float, s: float) -> float:
    return _ck(k, s) * _ybar(k, s) + _sk(k, s) ** 2


def dhk(k: float, s: float) -> float:
    """d/ds hk = ck*ybar + sk**2."""
    return _finite("dhk", _dhk, k, s)


def _invert_increasing(f, df, target: float, hi0: float, hi_cap: float) -> float:
    """Root of f(s) = target for increasing f with f(0) = 0, by bracketed Brent."""
    if target == 0.0:
        return 0.0
    lo = 0.0
    hi = min(hi0, hi_cap)
    while f(hi) < target:
        if hi >= hi_cap:
            # target within rounding of the supremum on a capped domain
            return hi
        lo = hi
        hi = min(hi * 2.0, hi_cap)
    # pull an overflowed (saturated) upper end back to finite values
    while math.isinf(f(hi)):
        if hi - lo <= 1e-13 * max(1.0, hi):
            return hi
        mid = 0.5 * (lo + hi)
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    root = brentq(lambda s: f(s) - target, lo, hi, xtol=1e-14, rtol=8.9e-16)
    # One guarded Newton polish; the derivative is available and positive
    # in the interior.
    d = df(root)
    if d > 0.0:
        step = (f(root) - target) / d
        if abs(step) < 1e-8 * max(1.0, abs(root)):
            root -= step
    return root


def gk(k: float, a: float) -> float:
    """Inverse of hk: the s in profile_interval(k) with hk(k, s) = a.

    gk(0, a) = (2a)**(1/3).  Raises DomainError for a outside
    rect_area_interval(k).
    """
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"gk: a = {a} outside [0, inf)")
    if k > 0.0:
        amax = _neg_three_halves(k)
        if a > amax * (1.0 + _EDGE_RTOL):
            raise DomainError(f"gk: a = {a} beyond k**-1.5 = {amax}")
        if a >= amax:
            return 0.5 * math.pi / math.sqrt(k)
        hi_cap = 0.5 * math.pi / math.sqrt(k)
    else:
        hi_cap = _INF
    hi0 = max(1.0, (2.0 * a) ** (1.0 / 3.0))
    return _invert_increasing(lambda s: _hk(k, s), lambda s: _dhk(k, s), a, hi0, hi_cap)


def fk(k: float, a: float) -> float:
    """Inverse of abar: the s >= 0 with abar(k, s) = a.

    fk(0, a) = (12a)**(1/3).  For k > 0 the inversion is restricted to the
    first monotone span [0, 2 pi/sqrt k], whose upper area value is
    pi * k**-1.5; beyond it DomainError is raised.
    """
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"fk: a = {a} outside [0, inf)")
    if k > 0.0:
        amax = math.pi * _neg_three_halves(k)
        if a > amax * (1.0 + _EDGE_RTOL):
            raise DomainError(f"fk: a = {a} beyond pi * k**-1.5 = {amax}")
        if a >= amax:
            return 2.0 * math.pi / math.sqrt(k)
        hi_cap = 2.0 * math.pi / math.sqrt(k)
    else:
        hi_cap = _INF
    hi0 = max(1.0, (12.0 * a) ** (1.0 / 3.0))
    return _invert_increasing(lambda s: _abar(k, s), lambda s: 0.5 * _ybar(k, s), a, hi0, hi_cap)
