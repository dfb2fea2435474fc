"""Monic linear ODE initial value problems and their Lagrange kernels.

An operator D y = y^(n) + a_{n-1} y^(n-1) + ... + a_0 y is represented by
its coefficient functions on an interval.  The forward kernel K(s; r),
s >= r, solves, for each fixed r, the homogeneous equation in s with a
unit jet on the top derivative at r; it reproduces solutions of the
non-homogeneous problem with zero initial data as
y(s) = integral_r^s K(s; t) f(t) dt for s >= r, which the tests'
`reference.solve_via_kernel` checks against direct integration.  The
comparison theorems read K only there, so each column is solved
rightward from r.

Kernel columns, read at arbitrary points, are DOP853 solves with dense
output, read one point at a time; SciPy loads on the first such solve,
not with this module.  Solves read only on a fixed grid take one
fourth-order Magnus step exp(Omega) of the companion system u' = A u per
grid interval, with A read at its ends and midpoint, and refine only
where a pair of intervals disagrees with its one step by more than a
tolerance, DEFAULT_RTOL unless the caller gives one: at a kink, over a
stiff stretch.  A forcing rides along as a constant last state entry.
Each operator gets one table of these propagators P_j, whose running
products give the forward-positivity certificate,
K(s_j; r_i) = e_1^T P_{j-1} ... P_i e_n with no inverse, and the
comparison solution, the reference area or the area of the `area`
command.  Curve reconstruction keeps the accepted half steps as the nodes
of a StepReader.
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
POSITIVITY_TOL = 1e-9  # a certificate holds when the least kernel value is >= -tol
# Right-hand-side evaluations (DOP853), coefficient node reads (Magnus) or
# integrand reads (the arc-length panels of curve.reparam_unit_speed) one
# solve may take before it fails with SolverError; the largest solve of the
# test suite takes about 39 000.
MAX_RHS_EVALS = 200_000
DENSE_GRID = 16  # the intervals of each side of a StepReader before refinement
# the Taylor coefficients 1/k!, k < 16, of exp in blocks of four
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(4, 4)

CoeffLike = float | Callable[[float], float]
# SciPy's solve_ivp, imported by the first dop853: importing
# scipy.integrate takes about half a second
_sp_solve_ivp = None


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
    the same order of IEEE operations.  A read is of one point, in Python
    floats over one step's rows, converted on the step's first read.
    Nothing is built at solve time: most solves are read only a few times.
    """

    def __init__(self, ts: np.ndarray, steps: list):
        self._ts = ts  # step times, monotone in the direction of the solve
        self._steps = steps  # scipy's Dop853DenseOutput of each step
        self._ascending = bool(ts[-1] >= ts[0])
        self._sorted: list[float] | None = None
        self._rows: dict[int, tuple[float, float, list[list[float]]]] = {}

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
        shaped (p,) + init.shape, one scalar read per point."""
        if isinstance(s, np.ndarray) and s.ndim:  # np.ndim would turn each float into an array
            if s.ndim != 1:
                raise ValueError(f"need a scalar or a 1-D array of points, got shape {s.shape}")
            return np.array([self.eval(t) for t in s.tolist()]).reshape(s.shape + self.init.shape)
        s, dense = self._side(s)
        if dense is None:
            return self.init.copy()
        # scipy's flat state holds the jets column by column
        return np.array(dense.state(s)).reshape(self.init.T.shape).T

    def __call__(self, s: float, deriv: int = 0) -> float:
        """Entry `deriv` of a single jet at s; only that entry is read."""
        if self.init.ndim != 1:
            raise ValueError(f"a solve of {self.init.shape[1]} jets has no single entry at s; "
                             "read its jets with eval")
        s, dense = self._side(s)
        return float(self.init[deriv]) if dense is None else dense.entry(s, deriv)


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
    the scalar call, as the polynomials of `specfiles` do (NumPy's `**`
    does not: it can differ from Python's in the last bit)."""
    try:
        return np.broadcast_to(np.asarray(c(s), dtype=float), s.shape)
    except (TypeError, ValueError):
        return np.fromiter(map(c, s.tolist()), float, len(s))


def _companion(op: LinearOperator, forcing: CoeffLike | None, s: np.ndarray) -> np.ndarray:
    """The companion matrices A(s) of u' = A u at each point of a 1-D array
    s, with the forcing as a last column when it is given.  Each
    coefficient, and a forcing given as a closure, is read by `values_at`:
    one call at the whole array where it takes arrays, one per entry where
    it does not (none for a forcing given as a number).  A value that is
    not finite is a SolverError."""
    n = op.order
    size = n + (forcing is not None)
    a = np.zeros((len(s), size, size))
    a[:, np.arange(n - 1), np.arange(1, n)] = 1.0
    for j, c in enumerate(op.coeffs):
        if c is not _zero:
            a[:, n - 1, j] = values_at(c, s)
    a[:, n - 1, :n] *= -1.0
    if callable(forcing):
        a[:, n - 1, n] = values_at(forcing, s)
    elif forcing is not None:
        a[:, n - 1, n] = forcing
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise SolverError(f"a coefficient is not finite at s = {s[int(np.argmin(finite))]}")
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


def _refine(op: LinearOperator, forcing: CoeffLike | None, grid: np.ndarray, rtol: float):
    """The Magnus steps over the intervals of an ascending grid, refined
    where they disagree; yields one level at a time: the pieces' halves,
    all first halves, then all second halves, as their starts, lengths, A
    at their starts, midpoints and ends, and steps; then each piece's
    propagator Q = P2 P1 from its half steps; then which pieces are split.

    A piece, first each interval, is accepted when its one step P and its
    two half steps agree, max|Q - P| / 15 <= rtol max(1, max|Q|).  A piece
    that fails is split into its halves, whose one steps are P1 and P2, so
    only the pieces that need it (a kink in a coefficient, a stiff
    stretch) are refined.  The steps' nodes are nested, so a level reads A
    only at the quarter points of its pieces (the first level reads the
    grid, its midpoints and its quarter points in one `_companion` call),
    and a piece's ends are always read: a kink near an end, with a flat
    coefficient on the
    piece's side of it, still moves Q from P.  A piece whose Q is not
    finite is split too, unless `_frozen_overflows` finds that the
    solution itself leaves the float range there, a SolverError.  Every
    coefficient read counts against MAX_RHS_EVALS."""
    grid = np.asarray(grid, dtype=float)
    t0, h = grid[:-1], np.diff(grid)
    reads, first = 2 * len(grid) - 1, True
    while len(h):
        reads += 2 * len(h)
        if reads > MAX_RHS_EVALS:
            raise SolverError(f"Magnus steps from s = {grid[0]} passed {MAX_RHS_EVALS} "
                              f"right-hand side evaluations near s = {t0[0]}; "
                              "the equation is too stiff for this interval")
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            halves, starts = np.tile(0.5 * h, 2), np.concatenate((t0, t0 + 0.5 * h))
            if first:  # the ends, midpoints and quarter points in one read
                a = _companion(op, forcing, np.concatenate((grid, starts[len(h):],
                                                            starts + 0.5 * halves)))
                lo, hi = a[:len(h)], a[1:len(grid)]
                mid, mids = a[len(grid):len(grid) + len(h)], a[len(grid) + len(h):]
                one, first = _magnus_steps(lo, mid, hi, h), False
            else:
                mids = _companion(op, forcing, starts + 0.5 * halves)
            lows, highs = np.concatenate((lo, mid)), np.concatenate((mid, hi))
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
        yield starts, halves, lows, mids, highs, steps, q, split
        both = np.tile(split, 2)
        t0, h, one = starts[both], halves[both], steps[both]
        lo, mid, hi = lows[both], mids[both], highs[both]


def step_propagators(op: LinearOperator, grid: np.ndarray, forcing: CoeffLike | None,
                     rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """The propagators P_j, shaped (len(grid) - 1, N, N), that carry the
    state (y, ..., y^(n-1)) of D y = f from grid[j] to grid[j + 1] of an
    ascending grid.  With forcing None, N = n and f = 0; otherwise N = n + 1,
    the state carries a last entry that stays 1, and the n x n block of P_j
    is the unforced propagator.  Where each pair of intervals is halved by
    its middle grid point (an equally spaced grid, to a few ulps), `_refine`
    at rtol runs on every other grid point: a pair that passes takes one
    Magnus half step per interval, a pair that fails refines its own
    intervals, and with an odd interval count the last interval is its own
    piece.  On any other grid each interval is its own piece."""
    ends = grid[:-2:2]
    paired = (np.abs(ends + 0.5 * (grid[2::2] - ends) - grid[1:-1:2]).max(initial=0.0)
              <= 64.0 * np.spacing(np.abs(grid).max()))
    levels = [lv[-3:] for lv in _refine(op, forcing, np.append(grid[:-1:2], grid[-1])
                                        if paired else grid, rtol)]
    steps = levels[0][0]
    out = steps[:0]
    # a split piece is its second half after its first; the table's readers check it
    with np.errstate(over="ignore", invalid="ignore"):
        for halves, q, split in reversed(levels):
            halves[np.tile(split, 2)] = out
            q[split] = out[len(out) // 2:] @ out[:len(out) // 2]
            out = q
        if not paired:
            return out
        props = steps.reshape((2, -1) + steps.shape[1:]).swapaxes(0, 1).reshape(steps.shape)
        if len(grid) % 2 == 0:  # the last interval's own piece
            props[-2] = props[-1] @ props[-2]
    return props[:len(grid) - 1]


def _running_products(prod: np.ndarray) -> np.ndarray:
    """The running products P_j ... P_0 of a stack of propagators, in
    place, by a doubling scan."""
    gap = 1
    while gap < len(prod):
        prod[gap:] = prod[gap:] @ prod[:-gap]
        gap *= 2
    return prod


def grid_jets(op: LinearOperator, forcing: CoeffLike, init: Sequence[float],
              grid: np.ndarray, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """The jets (y, ..., y^(n-1)) of D y = f at each point of an ascending
    grid, shaped (len(grid), n), from init at grid[0]: the running products
    P_j ... P_0 of the step propagators at rtol (a doubling scan) applied to
    (init, 1)."""
    return _table_jets(step_propagators(op, grid, forcing, rtol), init, grid[0])


def _table_jets(prod: np.ndarray, init: Sequence[float], start: float) -> np.ndarray:
    """grid_jets from its forced table of propagators, which it overwrites."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.vstack(((*init, 1.0), _running_products(prod) @ (*init, 1.0)))
    if not np.isfinite(u).all():
        raise SolverError(f"the solution from s = {start} leaves the float range")
    return u[:, :-1]


def _carried_past_float_range(level: tuple, k: int, init: np.ndarray) -> bool:
    """Whether the running products outward from r of a first level's
    interval propagators, the k left of r taken backwards (by the Magnus
    steps' inverses, exp(-Omega)), carry init past the float range.  A
    level with a propagator that is not finite is left to the refinement."""
    _, halves, lows, mids, highs, _, q, _ = level
    if not np.isfinite(q).all():
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        sides = [_running_products(q[k:].copy())]
        if k:
            left = np.concatenate((np.arange(k), len(q) + np.arange(k)))  # first, then second halves
            back = _magnus_steps(highs[left], mids[left], lows[left], -halves[left])
            sides.append(_running_products((back[:k] @ back[k:])[::-1]))
        return not all(np.isfinite(side @ init).all() for side in sides)


class StepReader:
    """The jets of D y = 0 from the (n, m) jets `init` at r, read anywhere
    on the operator's interval, with y^(n) from the equation: the dense
    counterpart of step_propagators.

    Each side of r is cut into DENSE_GRID equal intervals, and the grid of
    both is refined by `_refine` at tolerance rtol.  The ends of the
    accepted half steps are the nodes.  Their jets are the running
    products, outward from r, of the half steps' propagators applied to
    init; left of r the steps are taken backwards, which for a Magnus step
    is its inverse.  A read at s is one Magnus step from the last node
    between r and s, with A kept at that node and read at the step's
    midpoint and at s, so a step is never longer than an accepted half
    step; y^(n) is the last row of A(s) times the jets.  A read takes A at
    its midpoints and points from one `_companion` call and keeps the last
    result, which a read of the same points returns again.  A read that is
    not finite is a SolverError, and so is a solution that the first
    level's propagators already carry past the float range, before any
    refinement.
    """

    def __init__(self, op: LinearOperator, r: float, init: np.ndarray, rtol: float):
        self.r = r
        self._op = op
        lo, hi = op.interval.lo, op.interval.hi
        grid = np.unique(np.concatenate((np.linspace(lo, r, DENSE_GRID + 1),
                                         np.linspace(r, hi, DENSE_GRID + 1))))
        parts = []
        for level in _refine(op, None, grid, rtol):
            if not parts and _carried_past_float_range(level, int(np.searchsorted(grid, r)), init):
                raise SolverError(f"the solution from s = {r} leaves the float range")
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
        self._last: tuple[bytes, np.ndarray] | None = None

    def _side(self, init: np.ndarray, nodes: np.ndarray, at: np.ndarray,
              steps: np.ndarray) -> tuple:
        """One side of r, from the nodes outward from r, the companion
        matrices there and the steps between them: the node keys (their
        distances from r, ascending), the nodes, their jets and the
        companion matrices."""
        with np.errstate(over="ignore", invalid="ignore"):
            jets = np.concatenate((init[None], _running_products(steps.copy()) @ init))
        if not np.isfinite(jets).all():
            raise SolverError(f"the solution from s = {self.r} leaves the float range")
        return np.abs(nodes - self.r), nodes, jets, at

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
            keys, nodes, jets, at = self._sides[left]
            ss = s[mask]
            i = np.searchsorted(keys, np.abs(ss - self.r), side="right") - 1
            t0 = nodes[i]
            h = ss - t0
            with np.errstate(over="ignore", invalid="ignore"):
                # the midpoints, then the ends
                a = _companion(self._op, None, np.concatenate((t0 + 0.5 * h, ss)))
                u = _magnus_steps(at[i], a[:len(ss)], a[len(ss):], h) @ jets[i]
                out[mask] = np.concatenate((u, a[len(ss):, -1:] @ u), axis=1)
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


def check_forward_positive(op: LinearOperator, grid_n: int = POSITIVITY_GRID,
                           tol: float = POSITIVITY_TOL) -> PositivityReport:
    """The minimum of K(s; r) over s > r on a grid of grid_n equal steps, by
    `kernel_table` on the unforced propagators.  Kernel zeros are isolated,
    so a grid scan is a faithful certificate at this resolution."""
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    grid = np.linspace(op.interval.lo, op.interval.hi, grid_n)
    return kernel_table(op, grid, step_propagators(op, grid, None), tol)


def kernel_table(op: LinearOperator, grid: np.ndarray, props: np.ndarray,
                 tol: float) -> PositivityReport:
    """check_forward_positive on an ascending grid from the propagators P_j
    of its intervals, or their n x n blocks: K(s_j; r_i) = e_1^T P_{j-1} ...
    P_i e_n, scanned over (r, s) in ascending order, keeping the first
    minimum.  A table that leaves the float range is a SolverError."""
    n, interval = op.order, op.interval
    ker = np.full((len(grid),) * 2, np.inf)  # ker[i, j] = K(grid[j]; grid[i]), j > i
    cols = np.zeros((n, len(grid)))  # column i: the jet of K(.; grid[i]) at grid[j]
    with np.errstate(over="ignore", invalid="ignore"):
        for j, p in enumerate(props[:, :n, :n]):
            cols[-1, j] = 1.0
            cols[:, :j + 1] = p @ cols[:, :j + 1]
            ker[:j + 1, j + 1] = cols[0, :j + 1]
    if not np.isfinite(cols).all():
        raise SolverError(f"the kernel of {op.label or 'the operator'} on [{interval.lo}, "
                          f"{interval.hi}] leaves the float range")
    i, j = np.unravel_index(np.argmin(ker), ker.shape)
    return PositivityReport(op.label or "operator", interval, len(grid), tol,
                            float(ker[i, j]), (float(grid[j]), float(grid[i])))


def forced_table(op: LinearOperator, forcing: CoeffLike, init: Sequence[float],
                 grid: np.ndarray, every: int, tol: float) -> tuple[PositivityReport, np.ndarray]:
    """One forced table of D y = f on an ascending grid, read twice:
    `kernel_table` on every `every`-th grid point, and grid_jets from init."""
    prod = step_propagators(op, grid, forcing)
    coarse = prod[::every]
    for i in range(1, every):
        coarse = prod[i::every] @ coarse
    return kernel_table(op, grid[::every], coarse, tol), _table_jets(prod, init, grid[0])


def _compare(kappa: CoeffLike, kappa_bar: CoeffLike, n: int, ell: int, forcing: CoeffLike,
             init: Sequence[float], interval: Interval, grid_n: int, positivity_grid_n: int,
             tol: float, pos_tol: float) -> tuple:
    """The order-n comparison of y^(n) + kappa y^(ell) = f against the
    barred problem, with shared initial data, on a grid of grid_n points:
    the grid, y and the barred y on it, the direction of the coefficient
    ordering ("le", "ge" or "none"), the hypotheses, and the endpoint
    equality flag and its note.

    The solution is one `grid_jets`; the barred solution and its kernel
    certificate at pos_tol, read at every k-th grid point, come from one
    `forced_table`, so (grid_n - 1) % (positivity_grid_n - 1) == 0 (a
    ValueError otherwise).  The hypotheses are the coefficient ordering on
    the grid (to 1e-12 of the largest coefficient), the certificate, and
    y^(ell) > -tol on the grid and > 0 on 99 % of it after the start."""
    if positivity_grid_n < 2 or (grid_n - 1) % (positivity_grid_n - 1):
        raise ValueError(f"positivity_grid_n {positivity_grid_n} does not nest in grid_n {grid_n}")
    kap, kap_bar = _as_fn(kappa), _as_fn(kappa_bar)
    op = power_op(n, ell, kap, interval)
    op_bar = power_op(n, ell, kap_bar, interval)
    grid = np.linspace(interval.lo, interval.hi, grid_n)
    # a constant forcing stays a number, which the steps read without calls
    jets = grid_jets(op, forcing, init, grid)
    pos, jets_bar = forced_table(op_bar, forcing, init, grid,
                                 (grid_n - 1) // (positivity_grid_n - 1), pos_tol)
    kv, kbv = values_at(kap, grid), values_at(kap_bar, grid)
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

    hyps.append(Hypothesis("forward-positive-kernel", pos.certified, pos.verdict))

    # the fraction leaves out the start, a single point, where a zero jet
    # puts y^(ell) at exactly 0
    dvals = jets[:, ell]
    frac = float(np.mean(dvals[1:] > 0.0))
    ae_ok = bool(np.all(dvals > -tol) and frac >= 0.99)
    hyps.append(Hypothesis(
        "derivative-positive-ae", ae_ok,
        f"min y^({ell}) = {dvals.min():.3g}, positive fraction {frac:.3f}",
    ))

    yv, ybv = jets[:, 0], jets_bar[:, 0]
    eq = bool(abs(yv[-1] - ybv[-1]) <= 1e-6 * max(1.0, abs(ybv[-1])))
    notes = ""
    if eq:
        same = bool(np.all(np.abs(kv - kbv) <= 1e-6 * max(1.0, float(np.max(np.abs(kbv))))))
        notes = "endpoint equality; kappa == kappa_bar on grid" if same else \
            "endpoint equality without coefficient identity (within sampling tolerance)"
    return grid, yv, ybv, direction, hyps, eq, notes


def compare_solutions(kappa: CoeffLike, kappa_bar: CoeffLike, n: int, ell: int,
                      forcing: CoeffLike, init: Sequence[float], interval: Interval,
                      tol: float = 1e-7, grid_n: int = 201,
                      positivity_grid_n: int = 41) -> BoundReport:
    """Executable form of the order-n comparison theorem.

    Solves y^(n) + kappa y^(ell) = f and the barred problem with shared
    initial data, checks the two hypotheses numerically (forward-positive
    kernel for the barred operator; y^(ell) > 0 almost everywhere), and
    verifies that the pointwise ordering of the coefficients forces the
    ordering of the solutions on a grid of grid_n points (`_compare`,
    with the certificate at tol); the witness is the grid point of the
    worst gap."""
    grid, yv, ybv, direction, hyps, eq, notes = _compare(
        kappa, kappa_bar, n, ell, forcing, init, interval, grid_n, positivity_grid_n, tol, tol)
    if direction == "le":
        gaps = ybv - yv      # should be <= 0
    elif direction == "ge":
        gaps = yv - ybv
    else:
        gaps = np.abs(yv - ybv)
    worst = int(np.argmax(gaps))
    return BoundReport(
        theorem="ode-comparison",
        hypotheses=hyps,
        lhs=float(gaps[worst]),
        rhs=0.0,
        slack=tol * max(1.0, float(np.max(np.abs(ybv)))),
        equality=eq,
        witness=float(grid[worst]),
        notes=notes,
    )
