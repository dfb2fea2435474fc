"""Monic linear ODE initial value problems and their Lagrange kernels.

An operator D y = y^(n) + a_{n-1} y^(n-1) + ... + a_0 y is represented by
its coefficient functions on an interval.  The kernel K(s; r) solves, for
each fixed r, the homogeneous equation in s with a unit jet on the top
derivative at r; it reproduces solutions of the non-homogeneous problem
with zero initial data as y(s) = integral_r^s K(s; t) f(t) dt, which this
module uses as a cross-validation oracle against direct integration.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.integrate import solve_ivp as _sp_solve_ivp

from .kfuncs import Interval
from .reports import BoundReport, Hypothesis

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
POSITIVITY_GRID = 201

CoeffLike = float | Callable[[float], float]


class SolverError(RuntimeError):
    """Integration failure, including the failure location when known."""


def _as_fn(c: CoeffLike) -> Callable[[float], float]:
    if callable(c):
        return c
    value = float(c)
    return lambda s: value


@dataclass(frozen=True)
class LinearOperator:
    """Coefficients a_0 .. a_{n-1} of a monic order-n operator on an interval."""

    coeffs: tuple[Callable[[float], float], ...]
    interval: Interval
    label: str = ""

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def apply_to_state(self, s: float, u: np.ndarray, f: float) -> np.ndarray:
        """Right-hand side of the first-order system for (y, y', ..., y^(n-1))."""
        du = np.empty_like(u)
        du[:-1] = u[1:]
        top = f
        for j, a in enumerate(self.coeffs):
            top -= a(s) * u[j]
        du[-1] = top
        return du


def make_operator(coeffs: Sequence[CoeffLike], interval: Interval, label: str = "") -> LinearOperator:
    return LinearOperator(tuple(_as_fn(c) for c in coeffs), interval, label)


def oscillator_op(kappa: CoeffLike, interval: Interval) -> LinearOperator:
    """y'' + kappa(s) y."""
    return make_operator((kappa, 0.0), interval, label="y''+ky")


def third_order_op(kappa: CoeffLike, interval: Interval) -> LinearOperator:
    """y''' + kappa(s) y'."""
    return make_operator((0.0, kappa, 0.0), interval, label="y'''+ky'")


def power_op(n: int, ell: int, kappa: CoeffLike, interval: Interval) -> LinearOperator:
    """y^(n) + kappa(s) y^(ell)."""
    if not 0 <= ell < n:
        raise ValueError(f"need 0 <= ell < n, got ell={ell}, n={n}")
    coeffs: list[CoeffLike] = [0.0] * n
    coeffs[ell] = kappa
    return make_operator(coeffs, interval, label=f"y^({n})+k*y^({ell})")


@dataclass
class IVPSolution:
    """Dense-output jets (y, y', ..., y^(n-1)): one, or m as matrix columns."""

    op: LinearOperator
    r: float
    init: np.ndarray
    forcing: Callable[[float], float]
    _right: object | None
    _left: object | None

    @property
    def domain(self) -> Interval:
        return self.op.interval

    def eval(self, s: float) -> np.ndarray:
        lo, hi = self.domain.lo, self.domain.hi
        pad = 1e-9 * max(1.0, abs(hi - lo))
        if s < lo - pad or s > hi + pad:
            raise ValueError(f"evaluation point {s} outside domain [{lo}, {hi}]")
        s = self.domain.clamp(s)
        if s >= self.r:
            if self._right is None:
                return self.init.copy()
            return np.asarray(self._right(s), dtype=float)
        if self._left is None:
            return self.init.copy()
        return np.asarray(self._left(s), dtype=float)

    def __call__(self, s: float, deriv: int = 0) -> float:
        return float(self.eval(s)[deriv])

    def residual(self, n_samples: int = 50, h: float = 1e-6) -> float:
        """Sup of |y^(n) + sum a_j y^(j) - f| with y^(n) taken by central
        differences of the top stored derivative (an honest re-check, not
        the solver's own right-hand side)."""
        lo, hi = self.domain.lo, self.domain.hi
        step = h * max(1.0, hi - lo)
        worst = 0.0
        for s in np.linspace(lo, hi, n_samples):
            sm, sp = max(lo, s - step), min(hi, s + step)
            if sp - sm < step:
                continue
            u = self.eval(s)
            dtop = (self.eval(sp)[-1] - self.eval(sm)[-1]) / (sp - sm)
            acc = dtop - self.forcing(s)
            for j, a in enumerate(self.op.coeffs):
                acc += a(s) * u[j]
            worst = max(worst, float(np.max(np.abs(acc))))
        return worst


def _integrate(op: LinearOperator, forcing, r: float, init: np.ndarray, t_end: float,
               rtol: float, atol: float):
    if t_end == r:
        return None
    shape = init.T.shape  # scipy's flat state holds the jets column by column
    sol = _sp_solve_ivp(
        lambda s, u: op.apply_to_state(s, u.reshape(shape).T, forcing(s)).T.ravel(),
        (r, t_end),
        init.T.ravel(),
        method="DOP853",
        dense_output=True,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        where = sol.t[-1] if len(sol.t) else r
        raise SolverError(f"integration failed near s = {where}: {sol.message}")
    return lambda s: sol.sol(s).reshape(shape).T


def solve_ivp(op: LinearOperator, forcing: CoeffLike = 0.0, r: float | None = None,
              init: Sequence | None = None,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> IVPSolution:
    """Solve D y = f with given values of y .. y^(n-1) at r, dense output on
    the operator's whole interval (both directions from r).  An (n, m)
    `init` holds m jets as columns, solved as one system (a matrix solve)."""
    n = op.order
    if r is None:
        r = op.interval.lo
    if not op.interval.lo <= r <= op.interval.hi:
        raise ValueError(f"initial point {r} outside {op.interval}")
    y0 = np.zeros(n) if init is None else np.asarray(init, dtype=float)
    if y0.ndim not in (1, 2) or y0.shape[0] != n:
        raise ValueError(f"need {n} initial values per column, got {y0.shape}")
    f = _as_fn(forcing)
    right = _integrate(op, f, r, y0, op.interval.hi, rtol, atol)
    left = _integrate(op, f, r, y0, op.interval.lo, rtol, atol)
    return IVPSolution(op, r, y0, f, right, left)


class LagrangeKernel:
    """K(s; r) for an operator, solved lazily one column (fixed r) at a time.

    Columns are memoized; the cache is guarded by a lock so concurrent
    readers are safe.
    """

    def __init__(self, op: LinearOperator, rtol: float = DEFAULT_RTOL,
                 atol: float = DEFAULT_ATOL):
        self.op = op
        self.rtol = rtol
        self.atol = atol
        self._columns: dict[float, IVPSolution] = {}
        self._lock = threading.Lock()

    def column(self, r: float) -> IVPSolution:
        with self._lock:
            col = self._columns.get(r)
        if col is not None:
            return col
        jet = np.zeros(self.op.order)
        jet[-1] = 1.0
        col = solve_ivp(self.op, 0.0, r, jet, rtol=self.rtol, atol=self.atol)
        with self._lock:
            self._columns.setdefault(r, col)
        return col

    def __call__(self, s: float, r: float, deriv: int = 0) -> float:
        return self.column(r)(s, deriv)


def lagrange_kernel(op: LinearOperator, rtol: float = DEFAULT_RTOL,
                    atol: float = DEFAULT_ATOL) -> LagrangeKernel:
    return LagrangeKernel(op, rtol, atol)


class KernelSolution:
    """y(s) = integral_r^s K(s; t) f(t) dt, evaluated by adaptive quadrature.

    Solves D y = f with zero initial data at r; derivatives up to order
    n-1 come from differentiating under the integral sign.
    """

    def __init__(self, kernel: LagrangeKernel, forcing: CoeffLike, r: float,
                 quad_tol: float = 1e-11):
        self.kernel = kernel
        self.r = r
        self.forcing = _as_fn(forcing)
        self.quad_tol = quad_tol

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
            self.r, s, epsabs=self.quad_tol, epsrel=1e-10, limit=200,
        )
        if abs(err) > 1e3 * self.quad_tol * max(1.0, abs(val)):
            raise SolverError(f"kernel quadrature error {err} too large at s = {s}")
        return val


def solve_via_kernel(op: LinearOperator, forcing: CoeffLike, r: float | None = None,
                     quad_tol: float = 1e-11, kernel: LagrangeKernel | None = None) -> KernelSolution:
    if r is None:
        r = op.interval.lo
    if kernel is None:
        kernel = lagrange_kernel(op)
    return KernelSolution(kernel, forcing, r, quad_tol)


@dataclass
class PositivityReport:
    """Grid certificate for K(s; r) >= 0 whenever s > r."""

    operator: str
    interval: Interval
    grid_n: int
    tol: float
    min_value: float
    witness: tuple[float, float] | None = None  # (s, r) attaining the minimum

    @property
    def certified(self) -> bool:
        return self.min_value >= -self.tol

    @property
    def verdict(self) -> str:
        if self.certified:
            return "certified-positive-on-grid"
        s, r = self.witness if self.witness else (float("nan"), float("nan"))
        return f"violation(s={s:.6g}, r={r:.6g}, value={self.min_value:.6g})"

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "interval": [self.interval.lo, self.interval.hi],
            "grid_n": self.grid_n,
            "tol": self.tol,
            "min_value": self.min_value,
            "witness": list(self.witness) if self.witness else None,
            "verdict": "certified-positive-on-grid" if self.certified else "violation",
        }


def check_forward_positive(op: LinearOperator, interval: Interval | None = None,
                           grid_n: int = POSITIVITY_GRID, tol: float = 1e-9,
                           kernel: LagrangeKernel | None = None) -> PositivityReport:
    """Evaluate K(s; r) on the triangular grid s > r and report the minimum.

    Kernel zeros are isolated, so a grid scan is a faithful certificate at
    this resolution.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    if interval is None:
        interval = op.interval
    if kernel is None:
        kernel = lagrange_kernel(op)
    grid = np.linspace(interval.lo, interval.hi, grid_n)
    min_val = np.inf
    witness = None
    for i, r in enumerate(grid[:-1]):
        col = kernel.column(float(r))
        for s in grid[i + 1:]:
            v = col(float(s))
            if v < min_val:
                min_val = v
                witness = (float(s), float(r))
    return PositivityReport(op.label or "operator", interval, grid_n, tol,
                            float(min_val), witness)


def compare_solutions(kappa: CoeffLike, kappa_bar: CoeffLike, n: int, ell: int,
                      forcing: CoeffLike, init: Sequence[float], interval: Interval,
                      tol: float = 1e-7, grid_n: int = 201,
                      positivity_grid_n: int = 61,
                      eq_rtol: float = 1e-6) -> BoundReport:
    """Executable form of the order-n comparison theorem.

    Solves y^(n) + kappa y^(ell) = f and the barred problem with shared
    initial data, checks the two hypotheses numerically (forward-positive
    kernel for the barred operator; y^(ell) > 0 almost everywhere), and
    verifies that the pointwise ordering of the coefficients forces the
    ordering of the solutions on a sample grid.
    """
    kap, kap_bar, f = _as_fn(kappa), _as_fn(kappa_bar), _as_fn(forcing)
    op = power_op(n, ell, kap, interval)
    op_bar = power_op(n, ell, kap_bar, interval)
    y = solve_ivp(op, f, interval.lo, init)
    y_bar = solve_ivp(op_bar, f, interval.lo, init)

    grid = np.linspace(interval.lo, interval.hi, grid_n)
    kv = np.array([kap(s) for s in grid])
    kbv = np.array([kap_bar(s) for s in grid])
    ktol = 1e-12 * max(1.0, float(np.max(np.abs(kv))), float(np.max(np.abs(kbv))))

    hyps: list[Hypothesis] = []
    if np.all(kv <= kbv + ktol):
        direction = "le"
        hyps.append(Hypothesis("curvature-ordering", True, "kappa <= kappa_bar on grid"))
    elif np.all(kv >= kbv - ktol):
        direction = "ge"
        hyps.append(Hypothesis("curvature-ordering", True, "kappa >= kappa_bar on grid"))
    else:
        direction = "none"
        hyps.append(Hypothesis("curvature-ordering", False, "coefficients not ordered"))

    pos = check_forward_positive(op_bar, interval, positivity_grid_n, tol)
    hyps.append(Hypothesis("forward-positive-kernel", pos.certified, pos.verdict))

    dvals = np.array([y(s, ell) for s in grid])
    ae_ok = bool(np.all(dvals > -tol) and np.mean(dvals > 0.0) >= 0.99)
    hyps.append(Hypothesis(
        "derivative-positive-ae", ae_ok,
        f"min y^({ell}) = {dvals.min():.3g}, positive fraction {np.mean(dvals > 0.0):.3f}",
    ))

    yv = np.array([y(s) for s in grid])
    ybv = np.array([y_bar(s) for s in grid])
    scale = max(1.0, float(np.max(np.abs(ybv))))
    if direction == "le":
        gaps = ybv - yv      # should be <= 0
    elif direction == "ge":
        gaps = yv - ybv
    else:
        gaps = np.abs(yv - ybv)
    worst = int(np.argmax(gaps))

    eq = bool(abs(yv[-1] - ybv[-1]) <= eq_rtol * max(1.0, abs(ybv[-1])))
    notes = ""
    if eq:
        same = bool(np.all(np.abs(kv - kbv) <= 1e-6 * max(1.0, float(np.max(np.abs(kbv))))))
        notes = "endpoint equality; kappa == kappa_bar on grid" if same else \
            "endpoint equality without coefficient identity (within sampling tolerance)"

    return BoundReport(
        theorem="ode-comparison",
        hypotheses=hyps,
        lhs=float(gaps[worst]),
        rhs=0.0,
        slack=tol * scale,
        equality=eq,
        witness=float(grid[worst]),
        notes=notes,
    )
