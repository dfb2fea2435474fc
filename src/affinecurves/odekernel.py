"""Monic linear ODE initial value problems and their Lagrange kernels.

An operator D y = y^(n) + a_{n-1} y^(n-1) + ... + a_0 y is represented by
its coefficient functions on an interval.  The forward kernel K(s; r),
s >= r, solves, for each fixed r, the homogeneous equation in s with a
unit jet on the top derivative at r; it reproduces solutions of the
non-homogeneous problem with zero initial data as
y(s) = integral_r^s K(s; t) f(t) dt for s >= r, which this module uses as
a cross-validation oracle against direct integration.  The comparison
theorems read K only there, so each column is solved rightward from r.

Forward-positivity of K is certified from fundamental matrices instead
of one solve per kernel column.  With Phi_a the solution of Phi' = A Phi,
Phi_a(a) = I, for the companion matrix A of the operator, variation of
parameters gives K(s; r) = e_1^T Phi_a(s) Phi_a(r)^{-1} e_n for any
anchor a <= r.  One rightward matrix solve from a therefore yields every
column r right of a, at the price of the inversion: the computed
Phi_a(s) carries a relative error of about rtol, so K(s; r) is off by
about rtol |Phi_a(s)_0| |v| with v = Phi_a(r)^{-1} e_n, which is at most
rtol cond(Phi_a(r)) times the size of the exact column Phi_r(s).  On
stiff operators (large |k| L) Phi_a(r) turns ill-conditioned as r moves
away from a, and a single anchor reports false violations; a new anchor
is started wherever cond(Phi_a(r)) would exceed ANCHOR_COND, as in the
re-anchored shooting of Ng & Reid (1979) and Davey (1973).
"""

from __future__ import annotations

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
KERNEL_QUAD_TOL = 1e-11  # absolute tolerance of the kernel-integral quadrature
# Largest cond(Phi_a(r)) a kernel column is read through before the
# positivity scan re-anchors at r: it bounds the error amplification of
# Phi_a(r)^{-1} to three decimal digits of the solver's 1e-10 rtol.
ANCHOR_COND = 1e3

CoeffLike = float | Callable[[float], float]


class SolverError(RuntimeError):
    """Integration failure, including the failure location when known."""


def _zero(s: float) -> float:
    return 0.0


def _as_fn(c: CoeffLike) -> Callable[[float], float]:
    if callable(c):
        return c
    value = float(c)
    if value == 0.0:
        return _zero  # shared, so apply_to_state can skip constant-zero coefficients
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
            if a is not _zero:
                top -= a(s) * u[j]
        du[-1] = top
        return du


def _forward(op: LinearOperator, a: float) -> LinearOperator:
    """The operator restricted to [a, hi]: a solve from a runs rightward only."""
    return LinearOperator(op.coeffs, Interval(a, op.interval.hi), op.label)


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

    def eval(self, s: float | np.ndarray) -> np.ndarray:
        """The jet(s) at s, shaped like `init`; for a 1-D array of p points,
        shaped (p,) + init.shape, read with one dense-output call per side
        of r (bitwise equal to the scalar reads)."""
        lo, hi = self.domain.lo, self.domain.hi
        pad = 1e-9 * max(1.0, abs(hi - lo))
        if isinstance(s, np.ndarray) and s.ndim:  # np.ndim would turn each float into an array
            return self._eval_array(s.astype(float), lo, hi, pad)
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

    def _eval_array(self, s: np.ndarray, lo: float, hi: float, pad: float) -> np.ndarray:
        if s.ndim != 1:
            raise ValueError(f"need a scalar or a 1-D array of points, got shape {s.shape}")
        outside = (s < lo - pad) | (s > hi + pad)
        if outside.any():
            raise ValueError(f"evaluation point {s[outside][0]} outside domain [{lo}, {hi}]")
        s = np.clip(s, lo, hi)
        out = np.empty(s.shape + self.init.shape)
        right = s >= self.r
        for side, dense in ((right, self._right), (~right, self._left)):
            if side.any():
                out[side] = self.init if dense is None else dense(s[side])
        return out

    def __call__(self, s: float, deriv: int = 0) -> float:
        return float(self.eval(s)[deriv])

    def residual(self) -> float:
        """Sup of |y^(n) + sum a_j y^(j) - f| with y^(n) taken by central
        differences of the top stored derivative (an honest re-check, not
        the solver's own right-hand side)."""
        lo, hi = self.domain.lo, self.domain.hi
        step = 1e-6 * max(1.0, hi - lo)
        worst = 0.0
        for s in np.linspace(lo, hi, 50):
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
    # a 1-D array of p points reads (n*m, p), which reshapes to (m, n, p) -> (p, n, m)
    return lambda s: (sol.sol(s).reshape(shape + s.shape) if isinstance(s, np.ndarray)
                      else sol.sol(s).reshape(shape)).T


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
    """The forward kernel K(s; r), s >= r, of an operator, solved lazily one
    column (fixed r) at a time by a rightward solve on [r, hi]; reading a
    column at s < r is IVPSolution's out-of-domain ValueError.  Columns are
    memoized without a lock: `setdefault` keeps the first solve of each."""

    def __init__(self, op: LinearOperator):
        self.op = op
        self._columns: dict[float, IVPSolution] = {}

    def column(self, r: float) -> IVPSolution:
        col = self._columns.get(r)
        if col is None:
            jet = np.zeros(self.op.order)
            jet[-1] = 1.0
            col = self._columns.setdefault(r, solve_ivp(_forward(self.op, r), 0.0, r, jet))
        return col

    def __call__(self, s: float, r: float, deriv: int = 0) -> float:
        return self.column(r)(s, deriv)


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


def check_forward_positive(op: LinearOperator, grid_n: int = POSITIVITY_GRID,
                           tol: float = 1e-9) -> PositivityReport:
    """Evaluate K(s; r) on the triangular grid s > r and report the minimum.

    Kernel zeros are isolated, so a grid scan is a faithful certificate at
    this resolution.  The columns come from fundamental matrices: from an
    anchor a on the grid, one rightward solve of Phi_a' = A Phi_a,
    Phi_a(a) = I, read at every grid point right of a, gives
    K(s; r) = Phi_a(s)[0] . v with v = Phi_a(r)^{-1} e_n for each grid
    point r >= a.  That value is off by about rtol |Phi_a(s)[0]| |v|,
    which stays within rtol cond(Phi_a(r)) of the size of the column
    itself, so the scan starts a new anchor at the first r where
    cond(Phi_a(r)) exceeds ANCHOR_COND.  The scan runs over (r, s) in
    ascending order and keeps the first minimum, as a column-by-column
    scan would.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    interval = op.interval
    grid = np.linspace(interval.lo, interval.hi, grid_n)
    n = op.order
    e_n = np.eye(n)[-1]
    min_val = np.inf
    witness = None
    a = 0
    while a < grid_n - 1:
        phi = solve_ivp(_forward(op, float(grid[a])), 0.0, float(grid[a]), np.eye(n)).eval(grid[a:])
        cond = np.linalg.cond(phi[1:-1])
        far = np.flatnonzero(cond > ANCHOR_COND)
        rows = 1 + (int(far[0]) if far.size else len(cond))  # columns r read from this anchor
        v = np.linalg.solve(phi[:rows], e_n)
        ker = v @ phi[:, 0, :].T  # ker[i, j] = K(grid[a + j]; grid[a + i])
        ker[np.tril_indices(rows, 0, len(phi))] = np.inf  # keep s > r only
        i, j = np.unravel_index(np.argmin(ker), ker.shape)
        if ker[i, j] < min_val:
            min_val = ker[i, j]
            witness = (float(grid[a + j]), float(grid[a + i]))
        a += rows
    return PositivityReport(op.label or "operator", interval, grid_n, tol,
                            float(min_val), witness)


def compare_solutions(kappa: CoeffLike, kappa_bar: CoeffLike, n: int, ell: int,
                      forcing: CoeffLike, init: Sequence[float], interval: Interval,
                      tol: float = 1e-7, grid_n: int = 201,
                      positivity_grid_n: int = 61) -> BoundReport:
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

    pos = check_forward_positive(op_bar, positivity_grid_n, tol)
    hyps.append(Hypothesis("forward-positive-kernel", pos.certified, pos.verdict))

    jets, jets_bar = y.eval(grid), y_bar.eval(grid)
    dvals = jets[:, ell]
    ae_ok = bool(np.all(dvals > -tol) and np.mean(dvals > 0.0) >= 0.99)
    hyps.append(Hypothesis(
        "derivative-positive-ae", ae_ok,
        f"min y^({ell}) = {dvals.min():.3g}, positive fraction {np.mean(dvals > 0.0):.3f}",
    ))

    yv, ybv = jets[:, 0], jets_bar[:, 0]
    scale = max(1.0, float(np.max(np.abs(ybv))))
    if direction == "le":
        gaps = ybv - yv      # should be <= 0
    elif direction == "ge":
        gaps = yv - ybv
    else:
        gaps = np.abs(yv - ybv)
    worst = int(np.argmax(gaps))

    eq = bool(abs(yv[-1] - ybv[-1]) <= 1e-6 * max(1.0, abs(ybv[-1])))
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
