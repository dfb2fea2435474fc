"""Monic linear ODE initial value problems and their Lagrange kernels.

An operator D y = y^(n) + a_{n-1} y^(n-1) + ... + a_0 y is represented by
its coefficient functions on an interval.  The forward kernel K(s; r),
s >= r, solves, for each fixed r, the homogeneous equation in s with a
unit jet on the top derivative at r; it reproduces solutions of the
non-homogeneous problem with zero initial data as
y(s) = integral_r^s K(s; t) f(t) dt for s >= r, which this module uses as
a cross-validation oracle against direct integration.  The comparison
theorems read K only there, so each column is solved rightward from r.

Kernel columns, read at arbitrary points, are DOP853 solves with dense
output.  SciPy loads on the first such solve (and on the first
`KernelSolution` read, for its quadrature), not with this module, so the
Magnus paths below run without it.  Solves read only on a fixed grid
(forward-positivity, the comparison solves, the reference area) are
products of step propagators instead: over each grid interval,
fourth-order Magnus steps exp(Omega) of the companion system u' = A u,
with A read at each step's ends and midpoint, carry the state from one
grid point to the next, and a forcing f rides along as a constant last
state entry.  The steps of an interval are halved where two successive
propagators disagree by more than DEFAULT_RTOL, so only the stretches
that need it (a kink in a coefficient, a stiff stretch) are refined.
Forward-positivity then reads every kernel column of the grid from
running products of the propagators, K(s_j; r_i) = e_1^T P_{j-1} ... P_i
e_n, with no inverse of a fundamental matrix.  Curve reconstruction, read
at arbitrary points, keeps the accepted half steps of the same
refinement as the nodes of a StepReader, and reads between them by one
classical Runge-Kutta step from a node.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kfuncs import Interval
from .reports import BoundReport, Hypothesis

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
POSITIVITY_GRID = 201
KERNEL_QUAD_TOL = 1e-11  # absolute tolerance of the kernel-integral quadrature
# Right-hand-side evaluations (DOP853) or coefficient node reads (Magnus)
# one solve may take before it fails with SolverError; the largest solve of
# the test suite takes about 39 000.
MAX_RHS_EVALS = 200_000
DENSE_GRID = 16  # the intervals of each side of a StepReader before refinement
READ_RTOL = 1e-9  # how far a StepReader's Runge-Kutta reads may stray from its Magnus steps
# the Taylor coefficients 1/k!, k < 16, of exp in blocks of four
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(4, 4)

CoeffLike = float | Callable[[float], float]
# SciPy's solve_ivp and quad, imported by the first dop853 and the first
# KernelSolution read: importing scipy.integrate takes about half a second
_sp_solve_ivp = None
_quad = None


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


class DenseReader:
    """The dense output of one DOP853 solve, read bit for bit as scipy's
    `OdeSolution` reads it, without its per-read cost.

    A read picks the step scipy would pick (the lower-index step at a step
    time, the first or last step outside the span) and evaluates that
    step's interpolant with scipy's Horner scheme, entry by entry and in
    the same order of IEEE operations.  Scalar reads run in Python floats
    over one step's rows, converted on the step's first read; array reads
    gather each point's step from one (steps, 7, N) table, stacked on the
    first array read.  Nothing is built at solve time: most solves are
    read only a few times.
    """

    def __init__(self, ts: np.ndarray, steps: list):
        self._ts = ts  # step times, monotone in the direction of the solve
        self._steps = steps  # scipy's Dop853DenseOutput of each step
        self._ascending = bool(ts[-1] >= ts[0])
        self._sorted: list[float] | None = None
        self._rows: dict[int, tuple[float, float, list[list[float]]]] = {}
        self._table: tuple[np.ndarray, ...] | None = None

    def _segment(self, t: float) -> int:
        """The step scipy reads at t: its search on the ascending step
        times, side 'left' for a rightward solve and 'right' for a
        leftward one, clamped to the steps."""
        if self._sorted is None:
            self._sorted = (self._ts if self._ascending else self._ts[::-1]).tolist()
        last = len(self._steps) - 1
        if self._ascending:
            return min(max(bisect_left(self._sorted, t) - 1, 0), last)
        return last - min(max(bisect_right(self._sorted, t) - 1, 0), last)

    def _at(self, t: float) -> tuple[float, float, list[list[float]]]:
        """x and 1 - x of the step covering t, and the step's rows: for each
        state entry its F column from the highest row down, then y_old."""
        seg = self._segment(t)
        rows = self._rows.get(seg)
        if rows is None:
            step = self._steps[seg]
            rows = self._rows[seg] = (float(step.t_old), float(step.h),
                                      np.vstack((step.F[::-1], step.y_old)).T.tolist())
        t_old, h, cols = rows
        x = (t - t_old) / h
        return x, 1 - x, cols

    @staticmethod
    def _horner(x: float, x1: float, col: list[float]) -> float:
        f6, f5, f4, f3, f2, f1, f0, y_old = col
        return ((((((((0.0 + f6) * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x + f1) * x1
                 + f0) * x + y_old)

    def entry(self, t: float, k: int) -> float:
        """Entry k of the state at t."""
        x, x1, cols = self._at(float(t))
        return self._horner(x, x1, cols[k])

    def state(self, t: float) -> list[float]:
        """The whole state at t."""
        x, x1, cols = self._at(float(t))
        return [self._horner(x, x1, col) for col in cols]

    def read(self, t: np.ndarray) -> np.ndarray:
        """The states at a 1-D array of p points, as scipy's (N, p) array."""
        if self._table is None:
            steps = self._steps
            self._table = (self._ts if self._ascending else self._ts[::-1],
                           np.array([step.t_old for step in steps]),
                           np.array([step.h for step in steps]),
                           np.stack([step.F for step in steps]),
                           np.stack([step.y_old for step in steps]))
        ts, t_old, h, F, y_old = self._table
        last = len(F) - 1
        seg = np.searchsorted(ts, t, side="left" if self._ascending else "right") - 1
        np.clip(seg, 0, last, out=seg)
        if not self._ascending:
            seg = last - seg
        x = ((t - t_old[seg]) / h[seg])[:, None]
        x1 = 1 - x
        rows = F[seg]
        y = np.zeros((len(t), rows.shape[2]))
        for i in range(rows.shape[1] - 1, -1, -1):
            y += rows[:, i]
            y *= x if i % 2 == 0 else x1
        y += y_old[seg]
        return y.T


def dop853(fun: Callable[[float, np.ndarray], np.ndarray], t0: float, t_end: float,
           y0, rtol: float, atol: float) -> DenseReader:
    """The one DOP853 solve of the package: scipy's solver from t0 to t_end
    with dense output, read through a DenseReader.  SolverError when
    scipy fails or the solve needs more than MAX_RHS_EVALS right-hand
    sides.  SciPy is imported by the first solve."""
    global _sp_solve_ivp
    if _sp_solve_ivp is None:
        from scipy.integrate import solve_ivp as _sp_solve_ivp
    evals = 0

    def rhs(s, u):
        nonlocal evals
        evals += 1
        if evals > MAX_RHS_EVALS:
            raise SolverError(f"integration from s = {t0} passed {MAX_RHS_EVALS} right-hand "
                              f"side evaluations near s = {s}; the equation is too stiff "
                              "for this interval")
        return fun(s, u)

    sol = _sp_solve_ivp(rhs, (t0, t_end), y0, method="DOP853", dense_output=True,
                        rtol=rtol, atol=atol)
    if not sol.success:
        where = sol.t[-1] if len(sol.t) else t0
        raise SolverError(f"integration failed near s = {where}: {sol.message}")
    return DenseReader(sol.t, sol.sol.interpolants)


@dataclass
class IVPSolution:
    """Dense-output jets (y, y', ..., y^(n-1)): one, or m as matrix columns."""

    op: LinearOperator
    r: float
    init: np.ndarray
    forcing: Callable[[float], float]
    _right: DenseReader | None
    _left: DenseReader | None

    @property
    def domain(self) -> Interval:
        return self.op.interval

    def _side(self, s: float) -> tuple[float, DenseReader | None]:
        """s clamped into the domain, and the solve that covers it (None
        where that solve is empty)."""
        lo, hi = self.domain.lo, self.domain.hi
        pad = 1e-9 * max(1.0, abs(hi - lo))
        if s < lo - pad or s > hi + pad:
            raise ValueError(f"evaluation point {s} outside domain [{lo}, {hi}]")
        s = self.domain.clamp(s)
        return s, (self._right if s >= self.r else self._left)

    def eval(self, s: float | np.ndarray) -> np.ndarray:
        """The jet(s) at s, shaped like `init`; for a 1-D array of p points,
        shaped (p,) + init.shape, read with one dense-output call per side
        of r (bitwise equal to the scalar reads)."""
        if isinstance(s, np.ndarray) and s.ndim:  # np.ndim would turn each float into an array
            return self._eval_array(s.astype(float))
        s, dense = self._side(s)
        if dense is None:
            return self.init.copy()
        # scipy's flat state holds the jets column by column
        return np.array(dense.state(s)).reshape(self.init.T.shape).T

    def _eval_array(self, s: np.ndarray) -> np.ndarray:
        if s.ndim != 1:
            raise ValueError(f"need a scalar or a 1-D array of points, got shape {s.shape}")
        lo, hi = self.domain.lo, self.domain.hi
        pad = 1e-9 * max(1.0, abs(hi - lo))
        outside = (s < lo - pad) | (s > hi + pad)
        if outside.any():
            raise ValueError(f"evaluation point {s[outside][0]} outside domain [{lo}, {hi}]")
        s = np.clip(s, lo, hi)
        out = np.empty(s.shape + self.init.shape)
        right = s >= self.r
        for side, dense in ((right, self._right), (~right, self._left)):
            if side.any():
                # (n*m, p) reshapes to (m, n, p), then transposes to (p, n, m)
                out[side] = self.init if dense is None else \
                    dense.read(s[side]).reshape(self.init.T.shape + (-1,)).T
        return out

    def __call__(self, s: float, deriv: int = 0) -> float:
        """Entry `deriv` of a single jet at s; only that entry is read."""
        if self.init.ndim != 1:
            return float(self.eval(s)[deriv])
        s, dense = self._side(s)
        return float(self.init[deriv]) if dense is None else dense.entry(s, deriv)

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
               rtol: float, atol: float) -> DenseReader | None:
    """Dense output of one solve from r to t_end, None when it is empty."""
    if t_end == r:
        return None
    shape = init.T.shape  # scipy's flat state holds the jets column by column
    return dop853(lambda s, u: op.apply_to_state(s, u.reshape(shape).T, forcing(s)).T.ravel(),
                  r, t_end, init.T.ravel(), rtol, atol)


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


def _expm(omega: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (m, N, N) stack: its Taylor series to
    degree 15, summed in Paterson-Stockmeyer form with six matrix products,
    after scaling the matrix by 2^-k to a 1-norm of at most 1/2 (a
    truncation error below 1e-18), then k squarings."""
    # the 1-norms, their column sums added row by row as sum(axis=1) adds
    # them, without its strided reduction
    k = np.maximum(np.frexp(functools.reduce(np.add, np.abs(omega).transpose(1, 0, 2))
                            .max(axis=1))[1] + 1, 0)
    x = np.ldexp(omega, -k[:, None, None])
    m, n, _ = x.shape
    powers = np.empty((4, m, n, n))  # I, X, X^2, X^3
    powers[0], powers[1] = np.eye(n), x
    np.matmul(x, x, out=powers[2])
    np.matmul(powers[2], x, out=powers[3])
    # block j of the series: sum over i < 4 of X^i / (4 j + i)!
    blocks = (_TAYLOR @ powers.reshape(4, -1)).reshape(4, m, n, n)
    x4 = powers[2] @ powers[2]
    e = blocks[3]
    for j in (2, 1, 0):
        e = blocks[j] + x4 @ e
    for step in range(int(k.max(initial=0))):
        more = k > step
        if more.all():
            e = e @ e
        else:
            e[more] = e[more] @ e[more]
    return e


def values_at(c: Callable, s: np.ndarray) -> np.ndarray:
    """The float array of c at each entry of a 1-D array s: one call at the
    whole array (a number it returns is broadcast), or, where c raises
    TypeError or ValueError on an array (a `math` lambda), one call per
    entry.  A closure that takes arrays must give each entry the float of
    the scalar call, as `ParametricCurve` asks of its closures."""
    try:
        return np.broadcast_to(np.asarray(c(s), dtype=float), s.shape)
    except (TypeError, ValueError):
        return np.fromiter(map(c, s.tolist()), float, len(s))


def _companion(op: LinearOperator, forcing: CoeffLike | None, s: np.ndarray) -> np.ndarray:
    """The companion matrices A(s) of u' = A u at each point of s, with
    the forcing as a last column when it is given: one plain call of each
    coefficient per point (none for a forcing given as a number).  A value
    that is not finite is a SolverError."""
    n = op.order
    size = n + (forcing is not None)
    nodes = s.tolist()
    a = np.zeros((len(nodes), size, size))
    a[:, np.arange(n - 1), np.arange(1, n)] = 1.0
    for j, c in enumerate(op.coeffs):
        if c is not _zero:
            a[:, n - 1, j] = np.fromiter(map(c, nodes), float, len(nodes))
    a[:, n - 1, :n] *= -1.0
    if callable(forcing):
        a[:, n - 1, n] = np.fromiter(map(forcing, nodes), float, len(nodes))
    elif forcing is not None:
        a[:, n - 1, n] = forcing
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise SolverError(f"a coefficient is not finite at s = {nodes[int(np.argmin(finite))]}")
    return a


def _magnus_steps(a0: np.ndarray, am: np.ndarray, a1: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The fourth-order Magnus propagators exp(Omega) over steps of length
    h, from A at each step's start, midpoint and end (Simpson's nodes):
    Omega = B0 + [B1, B0] with B0 = h/6 (A0 + 4 Am + A1), the integral of
    A, and B1 = h/12 (A1 - A0), its first moment about the midpoint."""
    hh = h[:, None, None]
    b0 = hh / 6.0 * (a0 + 4.0 * am + a1)
    b1 = hh / 12.0 * (a1 - a0)
    return _expm(b0 + (b1 @ b0 - b0 @ b1))


def _frozen_overflows(a0: np.ndarray, am: np.ndarray, a1: np.ndarray, h: np.ndarray) -> bool:
    """Whether over some piece, given as its halves (all first halves, then
    all second halves), the product of exp(B0), the exponentials of the
    integrals of A alone, is not finite: then the solution itself leaves
    the float range there.  Where that product is finite and the Magnus
    propagator is not, the commutator term of steps too long for a
    changing coefficient overflowed instead."""
    e = _expm(h[:, None, None] / 6.0 * (a0 + 4.0 * am + a1))
    return not np.isfinite(e[len(e) // 2:] @ e[:len(e) // 2]).all()


def _rk4_steps(a0: np.ndarray, am: np.ndarray, a1: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The propagators of one classical Runge-Kutta step over steps of
    length h, from A at each step's start, midpoint and end."""
    hh = h[:, None, None]
    eye = np.eye(a0.shape[1])
    k2 = am @ (eye + 0.5 * hh * a0)
    k3 = am @ (eye + 0.5 * hh * k2)
    k4 = a1 @ (eye + hh * k3)
    return eye + hh / 6.0 * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def _refine(op: LinearOperator, forcing: CoeffLike | None, grid: np.ndarray, rtol: float,
            read_rtol: float | None):
    """The Magnus steps over the intervals of an ascending grid, refined
    where they disagree; yields one level at a time: the pieces' halves,
    all first halves, then all second halves, as their starts, lengths, A
    at their starts, midpoints and ends, and steps; then each piece's
    propagator Q = P2 P1 from its half steps; then which pieces are split.

    A piece, first each interval, is accepted when its one step P and its
    two half steps agree, max|Q - P| / 15 <= rtol max(1, max|Q|), and,
    unless read_rtol is None, when one classical Runge-Kutta step over
    each half agrees with its Magnus step to read_rtol max(1, max|step|).
    A piece that fails is split into its halves, whose one steps are P1
    and P2, so only the pieces that need it (a kink in a coefficient, a
    stiff stretch) are refined.  The steps' nodes are nested, so a level reads A only at the
    quarter points of its pieces, and a piece's ends are always read: a
    kink near an end, with a flat coefficient on the piece's side of it,
    still moves Q from P.  A piece whose Q is not finite is split too,
    unless `_frozen_overflows` finds that the solution itself leaves the
    float range there, a SolverError.  Every coefficient read counts
    against MAX_RHS_EVALS."""
    grid = np.asarray(grid, dtype=float)
    t0, h = grid[:-1], np.diff(grid)
    reads = 2 * len(grid) - 1
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        ends = _companion(op, forcing, grid)
        lo, mid, hi = ends[:-1], _companion(op, forcing, t0 + 0.5 * h), ends[1:]
        one = _magnus_steps(lo, mid, hi, h)
    while len(h):
        reads += 2 * len(h)
        if reads > MAX_RHS_EVALS:
            raise SolverError(f"Magnus steps from s = {grid[0]} passed {MAX_RHS_EVALS} "
                              f"right-hand side evaluations near s = {t0[0]}; "
                              "the equation is too stiff for this interval")
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            halves, starts = np.tile(0.5 * h, 2), np.concatenate((t0, t0 + 0.5 * h))
            lows, highs = np.concatenate((lo, mid)), np.concatenate((mid, hi))
            mids = _companion(op, forcing, starts + 0.5 * halves)
            steps = _magnus_steps(lows, mids, highs, halves)
            q = steps[len(h):] @ steps[:len(h)]
            scale = np.maximum(1.0, np.abs(q).max(axis=(1, 2)))
            lost = ~np.isfinite(scale)  # NaN propagates through both maxima
            if lost.any():
                both = np.tile(lost, 2)
                if _frozen_overflows(lows[both], mids[both], highs[both], halves[both]):
                    raise SolverError(f"the propagator from s = {t0[np.argmax(lost)]} "
                                      "overflows; the solution leaves the float range")
            split = (np.abs(q - one).max(axis=(1, 2)) > 15.0 * rtol * scale) | lost
            if read_rtol is not None:
                miss = (np.abs(_rk4_steps(lows, mids, highs, halves) - steps).max(axis=(1, 2))
                        > read_rtol * np.maximum(1.0, np.abs(steps).max(axis=(1, 2))))
                split |= miss[:len(h)] | miss[len(h):]
        yield starts, halves, lows, mids, highs, steps, q, split
        both = np.tile(split, 2)
        t0, h, one = starts[both], halves[both], steps[both]
        lo, mid, hi = lows[both], mids[both], highs[both]


def step_propagators(op: LinearOperator, grid: np.ndarray,
                     forcing: CoeffLike | None) -> np.ndarray:
    """The propagators P_j, shaped (len(grid) - 1, N, N), that carry the
    state (y, ..., y^(n-1)) of D y = f from grid[j] to grid[j + 1] of an
    ascending grid.  With forcing None, N = n and f = 0; otherwise N = n + 1
    and the state carries a last entry that stays 1.

    Each P_j is the product of the accepted Magnus half steps of its
    interval, refined by `_refine` at DEFAULT_RTOL."""
    levels = [(q, split) for *_, q, split in _refine(op, forcing, grid, DEFAULT_RTOL, None)]
    out = np.empty((0,) + levels[0][0].shape[1:])
    for q, split in reversed(levels):  # a split piece is its second half after its first
        q[split] = out[len(out) // 2:] @ out[:len(out) // 2]
        out = q
    return out


def _running_products(prod: np.ndarray) -> np.ndarray:
    """The running products P_j ... P_0 of a stack of propagators, in
    place, by a doubling scan."""
    gap = 1
    while gap < len(prod):
        prod[gap:] = prod[gap:] @ prod[:-gap]
        gap *= 2
    return prod


def grid_jets(op: LinearOperator, forcing: CoeffLike, init: Sequence[float],
              grid: np.ndarray) -> np.ndarray:
    """The jets (y, ..., y^(n-1)) of D y = f at each point of an ascending
    grid, shaped (len(grid), n), from init at grid[0]: the running products
    P_j ... P_0 of the step propagators, formed in a doubling scan, applied
    to (init, 1)."""
    prod = step_propagators(op, grid, forcing)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.vstack(((*init, 1.0), _running_products(prod) @ (*init, 1.0)))
    if not np.isfinite(u).all():
        raise SolverError(f"the solution from s = {grid[0]} leaves the float range")
    return u[:, :-1]


def _rate(c: list, v: list) -> list:
    """A v for the companion matrix A of the (j, a_j) pairs c."""
    top = 0.0
    for j, cj in c:
        top = top - cj * v[j]
    out = v[1:]
    out.append(top)
    return out


def _rk4(u: list, c0: list, cm: list, c1: list, h) -> list:
    """One classical Runge-Kutta step of length h of the companion system
    u' = A u from the jet rows u, with (j, a_j) pairs of the nonzero
    coefficients at the step's start, midpoint and end: the rows after
    the step and, last, y^(n) there from the equation.  The rows may be
    floats or arrays (with h broadcast against them): both run the same
    IEEE operations in the same order."""
    half = 0.5 * h
    k1 = _rate(c0, u)
    k2 = _rate(cm, [x + half * k for x, k in zip(u, k1)])
    k3 = _rate(cm, [x + half * k for x, k in zip(u, k2)])
    k4 = _rate(c1, [x + h * k for x, k in zip(u, k3)])
    sixth = h / 6.0
    v = [x + sixth * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip(u, k1, k2, k3, k4)]
    return v + _rate(c1, v)[-1:]


class StepReader:
    """The jets of D y = 0 from the (n, m) jets `init` at r, read anywhere
    on the operator's interval, with y^(n) from the equation: the dense
    counterpart of step_propagators.

    Each side of r is cut into DENSE_GRID equal intervals, and the grid of
    both is refined by `_refine` at tolerance rtol and at READ_RTOL for the
    reads.  The ends of the accepted half steps are the nodes.  Their jets
    are the running products, outward from r, of the half steps'
    propagators applied to init; left of r the steps are taken backwards,
    which for a Magnus step is its inverse.  A read at s is one classical
    Runge-Kutta step from the last node between r and s, with A reused at
    that node and read at the step's midpoint and at s, so a step is never
    longer than an accepted half step.  Array reads call each coefficient
    once (`values_at`) and keep the last result, which a read of the same
    points returns again.  Scalar reads run in Python floats, over one
    node's jets converted on its first scalar read, with the operations of
    the array read in the same order, so an array read equals the stacked
    scalar reads bit for bit when the coefficients do.  A read that is not
    finite is a SolverError.
    """

    def __init__(self, op: LinearOperator, r: float, init: np.ndarray, rtol: float):
        self.r = r
        self._coeffs = [(j, a) for j, a in enumerate(op.coeffs) if a is not _zero]
        lo, hi = op.interval.lo, op.interval.hi
        grid = np.unique(np.concatenate((np.linspace(lo, r, DENSE_GRID + 1),
                                         np.linspace(r, hi, DENSE_GRID + 1))))
        parts = []
        for level in _refine(op, None, grid, rtol, READ_RTOL):
            keep = np.tile(~level[-1], 2)
            parts.append([a[keep] for a in level[:6]])
        if parts:
            leaves = [np.concatenate(a) for a in zip(*parts)]
            order = np.argsort(leaves[0])
            starts, halves, lows, mids, highs, steps = (a[order] for a in leaves)
            nodes, at = np.append(starts, hi), np.concatenate((lows, highs[-1:]))
        else:  # a one-point interval
            nodes, at, steps = grid, _companion(op, None, grid), np.empty((0,) + init.shape[:1] * 2)
        k = int(np.searchsorted(nodes, r))  # the leaves left of r
        back = steps[:0]
        if k:
            with np.errstate(over="ignore", invalid="ignore"):
                back = _magnus_steps(highs[:k], mids[:k], lows[:k], -halves[:k])[::-1]
        self._sides = [self._side(init, nodes[k:], at[k:], steps[k:]),
                       self._side(init, nodes[k::-1], at[k::-1], back)]
        self._shape = (init.shape[0] + 1, init.shape[1])
        self._keys: list[list[float] | None] = [None, None]
        self._rows: dict[tuple[bool, int], tuple] = {}
        self._last_state: tuple[str, list] = ("", [])
        self._last: tuple[bytes, np.ndarray] | None = None

    def _side(self, init: np.ndarray, nodes: np.ndarray, at: np.ndarray,
              steps: np.ndarray) -> tuple:
        """One side of r, from the nodes outward from r, the companion
        matrices there and the steps between them: the node keys (their
        distances from r, ascending), the nodes, their jets and their
        nonzero coefficients."""
        with np.errstate(over="ignore", invalid="ignore"):
            jets = np.concatenate((init[None], _running_products(steps.copy()) @ init))
        if not np.isfinite(jets).all():
            raise SolverError(f"the solution from s = {self.r} leaves the float range")
        return np.abs(nodes - self.r), nodes, jets, -at[:, -1, [j for j, _ in self._coeffs]]

    def state(self, s: float) -> list[list[float]]:
        """The jets and y^(n) at s, as n + 1 rows of m floats; shared with
        the previous read when s is the same float."""
        s = float(s)
        key = s.hex()  # tells -0.0 from 0.0
        if self._last_state[0] == key:
            return self._last_state[1]
        left = s < self.r
        keys = self._keys[left]
        if keys is None:
            keys = self._keys[left] = self._sides[left][0].tolist()
        i = bisect_right(keys, abs(s - self.r)) - 1
        row = self._rows.get((left, i))
        if row is None:
            _, nodes, jets, coeffs = self._sides[left]
            row = self._rows[left, i] = (float(nodes[i]), jets[i].T.tolist(),
                                         list(zip((j for j, _ in self._coeffs),
                                                  coeffs[i].tolist())))
        t0, cols, c0 = row
        h = s - t0
        mid = t0 + 0.5 * h
        cm = [(j, float(a(mid))) for j, a in self._coeffs]
        c1 = [(j, float(a(s))) for j, a in self._coeffs]
        cols = [_rk4(col, c0, cm, c1, h) for col in cols]
        if not all(map(math.isfinite, (x for col in cols for x in col))):
            raise SolverError(f"the solution leaves the float range near s = {s}")
        jets = [list(row) for row in zip(*cols)]
        self._last_state = (key, jets)
        return jets

    def read(self, s: np.ndarray) -> np.ndarray:
        """The jets and y^(n) at a 1-D array of p points, shaped (p, n + 1,
        m); the array may be the one the previous read returned."""
        key = s.tobytes()
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        out = np.empty((len(s),) + self._shape)
        right = s >= self.r
        for left, mask in enumerate((right, ~right)):
            if not mask.any():
                continue
            keys, nodes, jets, coeffs = self._sides[left]
            ss = s[mask]
            i = np.searchsorted(keys, np.abs(ss - self.r), side="right") - 1
            t0 = nodes[i]
            h = ss - t0
            both = np.concatenate((t0 + 0.5 * h, ss))
            read = [values_at(a, both)[:, None] for _, a in self._coeffs]
            c0 = [(j, coeffs[i, k][:, None]) for k, (j, _) in enumerate(self._coeffs)]
            cm = [(j, v[:len(ss)]) for (j, _), v in zip(self._coeffs, read)]
            c1 = [(j, v[len(ss):]) for (j, _), v in zip(self._coeffs, read)]
            with np.errstate(over="ignore", invalid="ignore"):
                rows = _rk4(list(jets[i].transpose(1, 0, 2)), c0, cm, c1, h[:, None])
            out[mask] = np.stack(rows, axis=1)
        finite = np.isfinite(out).all(axis=(1, 2))
        if not finite.all():
            raise SolverError("the solution leaves the float range near "
                              f"s = {s[np.argmin(finite)]}")
        self._last = (key, out)
        return out


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
        global _quad
        if _quad is None:
            from scipy.integrate import quad as _quad
        val, err = _quad(
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
    this resolution.  Every column comes from the step propagators P_j of
    the grid: the jet of K(.; r_i) starts as e_n at r_i and is carried
    forward by V <- P_j V, so K(s_j; r_i) = e_1^T P_{j-1} ... P_i e_n.  The
    scan runs over (r, s) in ascending order and keeps the first minimum,
    as a column-by-column scan would.  A table that leaves the float range
    is a SolverError.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    interval = op.interval
    grid = np.linspace(interval.lo, interval.hi, grid_n)
    ker = np.full((grid_n, grid_n), np.inf)  # ker[i, j] = K(grid[j]; grid[i]), j > i
    cols = np.zeros((op.order, grid_n))  # column i: the jet of K(.; grid[i]) at grid[j]
    with np.errstate(over="ignore", invalid="ignore"):
        for j, p in enumerate(step_propagators(op, grid, None)):
            cols[-1, j] = 1.0
            cols[:, :j + 1] = p @ cols[:, :j + 1]
            ker[:j + 1, j + 1] = cols[0, :j + 1]
    if not np.isfinite(cols).all():
        raise SolverError(f"the kernel of {op.label or 'the operator'} on [{interval.lo}, "
                          f"{interval.hi}] leaves the float range")
    i, j = np.unravel_index(np.argmin(ker), ker.shape)
    return PositivityReport(op.label or "operator", interval, grid_n, tol,
                            float(ker[i, j]), (float(grid[j]), float(grid[i])))


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
    kap, kap_bar = _as_fn(kappa), _as_fn(kappa_bar)
    op = power_op(n, ell, kap, interval)
    op_bar = power_op(n, ell, kap_bar, interval)
    grid = np.linspace(interval.lo, interval.hi, grid_n)
    # a constant forcing stays a number, which the steps read without calls
    jets, jets_bar = grid_jets(op, forcing, init, grid), grid_jets(op_bar, forcing, init, grid)
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
