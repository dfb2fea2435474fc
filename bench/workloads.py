"""Seeded operation lists for the three workloads, each with its output check.

An operation is one `affinecurves` command line.  Its check reads the exit
code, the captured standard output and any `--out` file, and compares them
with values from `oracles`, which never calls the program.  A check
returns None when the output is right and a one-line reason otherwise.

Each workload builder returns `(make_round, warmup)`.  `make_round(r)`
gives the operation list of round r, drawn from the seed and r.  The lists
are stratified: the draws jitter every input inside a fixed stratum, so
every round has the same make-up and the same spread of operation costs,
and the reported quantiles do not move with the seed.  Operations that
fail because of a known program fault do not depend on the seed and
appear once in every round.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

Check = Callable[[int, str], "str | None"]


def _rng(seed: int, round_: int) -> random.Random:
    return random.Random(seed * 1_000_003 + round_)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check
    known_fault: str = ""  # names the program fault when the op fails on every run


def _json_block(out: str) -> dict:
    """The indented JSON payload inside a command's standard output."""
    lines = out.splitlines()
    start = lines.index("{")
    end = len(lines) - lines[::-1].index("}")
    return json.loads("\n".join(lines[start:end]))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One jittered value in each of n equal strata of [lo, hi], in stratum order."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def _dec(x: Fraction) -> str:
    """Exact decimal string of a dyadic fraction (parsed exactly into binary64)."""
    s = repr(float(x))
    if Fraction(s) != x:
        raise ValueError(f"{x} has no exact short decimal")
    return s


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    return str(path)


def _convex_cubic(rng: random.Random, c2: Fraction) -> list[Fraction]:
    """Dyadic cubic c0 + c1 x + c2 x^2 + c3 x^3 for a given c2 >= 1/2; it is
    convex (p'' >= 2 c2 - 3/4 > 0) for |x| <= 2.  c2 fixes the height of the
    graph and so the cost of operations on it; the seed draws the rest."""
    c3 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2), 32)
    c1 = Fraction(rng.randint(-2, 2), 8)
    c0 = Fraction(rng.randint(-4, 4), 2)
    return [c0, c1, c2, c3]


# ------------------------------------------------------------------ sweep


def _check_verify(theorem: str, seed: int, trials: int, k0: float, k1: float,
                  length: float, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    payload = _json_block(out)
    reports = payload["reports"]
    if len(reports) != trials:
        return f"{len(reports)} reports for {trials} trials"
    for i, rep in enumerate(reports):
        if not all(h["ok"] for h in rep["hypotheses"]) or rep["verdict"] != "holds":
            return f"trial {i}: {rep['verdict']}"
    if theorem == "thm4.1":
        refs = oracles.thm41_constant_references(seed, trials, k0, k1)
        for trial, k in refs.items():
            want = oracles.constant_area(k, length)
            if not _close(reports[trial]["lhs"], want, 1e-7):
                return f"trial {trial}: reference area {reports[trial]['lhs']} != {want}"
    return None


def _verify_op(theorem: str, k0: float, k1: float, length: float, trials: int,
               seed: int) -> Op:
    argv = ("verify", theorem, f"--k0={k0!r}", f"--k1={k1!r}", f"--L={length!r}",
            f"--trials={trials}", f"--seed={seed}")
    check = functools.partial(_check_verify, theorem, seed, trials, k0, k1, length)
    return Op(argv, check)


def sweep(seed: int, workdir: Path, run_cli):
    """`verify thm4.1` and `verify thm3.4` over stratified (k0, k1, L).

    sqrt(-k0) runs from 0.7 to 5 and L from 0.75 to 3; the pairing of
    k0 and L strata is a fixed Latin pattern, so every round spans the
    same range of stiffness sqrt(-k0) L.  Both theorems also run at the
    stiff corner k0 = -25, k1 = -23, L = 4 in every round.
    """
    def make_round(r: int) -> list[Op]:
        rng = _rng(seed, r)
        n = 48
        roots = _strata(rng, n, math.sqrt(0.5), 5.0)
        lengths = _strata(rng, n, 0.75, 3.0)
        widths = _strata(rng, n, 0.5, 2.5)
        ops = [_verify_op("thm4.1", -25.0, -23.0, 4.0, 1, rng.randrange(2**31)),
               _verify_op("thm3.4", -25.0, -23.0, 4.0, 1, rng.randrange(2**31))]
        for i in range(n):
            k0, length = round(-roots[i] ** 2, 6), round(lengths[(7 * i) % n], 6)
            # a narrow band [k0, k1] keeps the cost of the sweep's own random
            # curvatures close to that of the stratum
            k1 = round(min(k0 + widths[(5 * i) % n], 0.5 * (math.pi / length) ** 2), 6)
            theorem = "thm4.1" if i % 2 == 0 else "thm3.4"
            trials = 3 if i == 0 else 1  # one sweep reaches all three reference cases
            ops.append(_verify_op(theorem, k0, k1, length, trials, rng.randrange(2**31)))
        rng.shuffle(ops)
        return ops

    warmup = [_verify_op("thm4.1", -1.0, 0.0, 1.0, 1, 0),
              _verify_op("thm3.4", -1.0, 0.0, 1.0, 1, 0)]
    return make_round, warmup


# ------------------------------------------------------------------ count


def _count_payload(out: str) -> tuple[dict, set[tuple[int, int]]]:
    payload = _json_block(out)
    return payload, {(p[0], p[1]) for p in payload["points"]}


def _check_count_exact(expected: set, bound: int, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    payload, got = _count_payload(out)
    if got != expected:
        return (f"bound {payload['certificate']['bound']} count {payload['count']}: "
                f"missing {sorted(expected - got)}, extra {sorted(got - expected)}")
    if payload["certificate"]["bound"] != bound:
        return f"bound {payload['certificate']['bound']} != {bound}"
    return None


def _check_count_graph(coeffs: tuple[Fraction, ...], lo: int, hi: int,
                       rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    payload, got = _count_payload(out)
    expected = oracles.graph_lattice_points(list(coeffs), lo, hi)
    if got != expected:
        return (f"count {payload['count']}: missing {sorted(expected - got)}, "
                f"extra {sorted(got - expected)}")
    return None


# (family, m0, rigid) instances whose count is right today; the column scan
# and m_of_curve make the cost grow with m0
COUNT_EXACT = (
    [("parabola", m0, False) for m0 in (1, 3, 5, 7, 9, 10, 11, 15)]
    + [("parabola", m0, True) for m0 in (2, 4, 6, 8)]
    + [("hyperbola", 1, False), ("hyperbola", 2, False), ("hyperbola", 5, False),
       ("hyperbola", 1, True), ("hyperbola", 2, True), ("hyperbola", 3, True)]
    + [("hyperbola-general", 1, False), ("hyperbola-general", 2, False),
       ("hyperbola-general", 1, True), ("hyperbola-general", 2, True),
       ("hyperbola-general", 3, True)]
)

# Instances that the program gets wrong on every run: `cli._on_arc` rejects
# exact on-arc points far from the origin (see README.md)
COUNT_FAULT_ON_ARC = [("parabola", 12, False), ("parabola", 14, False),
                      ("parabola", 12, True), ("hyperbola", 3, False)]

# The README graph: `enumerate_near_curve` misses (0, 0) at the default
# 1e-9 tolerance (see README.md)
README_GRAPH = {"type": "graph", "coeffs": ["0", "0", "1", "0.05"], "domain": ["-1", "1"]}


def _export(name: str, m0: int, rigid: bool, workdir: Path, run_cli) -> tuple[str, str]:
    outdir = workdir / f"{name}-{m0}{'-rigid' if rigid else ''}"
    argv = ["examples", name, "--m0", str(m0), "--outdir", str(outdir)]
    if rigid:
        argv.append("--rigid")
    rc, _ = run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"examples export failed: {argv}")
    return str(outdir / f"{name}-curve.json"), str(outdir / f"{name}-lattice.json")


def _exact_count_op(name: str, m0: int, rigid: bool, workdir: Path, run_cli,
                    known_fault: str = "") -> Op:
    curve, lattice = _export(name, m0, rigid, workdir, run_cli)
    points = (oracles.parabola_points if name == "parabola" else oracles.hyperbola_points)(m0, rigid)
    check = functools.partial(_check_count_exact, points, oracles.sharp_bound(m0, rigid))
    return Op(("count", curve, lattice), check, known_fault)


def count(seed: int, workdir: Path, run_cli):
    """`count` on exported sharp instances and on seeded cubic graphs.

    The exact instances are the same in every round and for every seed;
    the seed and round draw the cubic graphs and the order of the list.
    Graphs take the float proximity path with `--tol 1e-6`, well above the
    refinement error, so they pass on every seed; the README graph keeps
    the default 1e-9.
    """
    lattice = _write(workdir / "standard-lattice.json",
                     {"v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"]})
    fixed = [_exact_count_op(name, m0, rigid, workdir, run_cli) for name, m0, rigid in COUNT_EXACT]
    fixed += [_exact_count_op(name, m0, rigid, workdir, run_cli, "cli._on_arc")
              for name, m0, rigid in COUNT_FAULT_ON_ARC]
    readme = _write(workdir / "readme-graph.json", README_GRAPH)
    check = functools.partial(_check_count_graph,
                              (Fraction(0), Fraction(0), Fraction(1), Fraction("0.05")), -1, 1)
    fixed.append(Op(("count", readme, lattice), check,
                    "lattice.enumerate_near_curve"))

    def make_round(r: int) -> list[Op]:
        rng = _rng(seed, r)
        ops = list(fixed)
        for i in range(10):
            lo = -1 - i % 2
            coeffs = _convex_cubic(rng, Fraction(8 + i, 16))
            spec = _write(workdir / f"graph-{r}-{i}.json",
                          {"type": "graph", "coeffs": [_dec(c) for c in coeffs],
                           "domain": [str(lo), str(lo + 3)]})
            check = functools.partial(_check_count_graph, tuple(coeffs), lo, lo + 3)
            ops.append(Op(("count", spec, lattice, "--tol", "1e-6"), check))
        rng.shuffle(ops)
        return ops

    warmup = [_exact_count_op("parabola", 1, False, workdir, run_cli),
              _exact_count_op("hyperbola", 1, False, workdir, run_cli)]
    return make_round, warmup


# --------------------------------------------------------------- evaluate


def _check_scalar(want: float, rtol: float, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    got = float(out.split()[0])
    return None if _close(got, want, rtol) else f"{got} != {want}"


def _check_area(want: float, csv_path: Path, rc: int, out: str) -> str | None:
    """Swept area at the domain end against the oracle's, and swept-area
    samples increasing along the arc."""
    if rc != 0:
        return f"exit {rc}"
    got = float(out.split()[0])
    if not _close(got, want, 1e-8):
        return f"area {got} != {want}"
    areas = [float(r[1]) for r in _csv_rows(csv_path)]
    if areas[0] != 0.0 or any(b <= a for a, b in zip(areas, areas[1:])):
        return "swept-area samples do not increase"
    if not _close(areas[-1], got, 1e-12):
        return "last area sample differs from the printed area"
    return None


def _check_ivp_area(kappa_coeffs: tuple[float, ...], lo: float, hi: float, csv_path: Path,
                    rc: int, out: str) -> str | None:
    """_check_area with the oracle's ODE solve made here, after the
    operation, so that it is not part of set-up."""
    return _check_area(oracles.ivp_area(list(kappa_coeffs), lo, hi), csv_path, rc, out)


def _check_curvature_rows(kappa: Callable[[float], float], csv_path: Path,
                          rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    for s, k in _csv_rows(csv_path):
        want = kappa(float(s))
        if not _close(float(k), want, 1e-9):
            return f"curvature {k} != {want} at s = {s}"
    return None


@functools.lru_cache(maxsize=16)  # a graph serves up to three operations of a round
def _graph_truth(coeffs: tuple[Fraction, ...], lo: int, hi: int) -> tuple[float, float, float]:
    cs = list(coeffs)
    return (float(oracles.graph_chord_area(cs, Fraction(lo), Fraction(hi))),
            oracles.graph_arclength(cs, lo, hi),
            oracles.graph_curvature_at_mid_arclength(cs, lo, hi))


def _check_graph(coeffs, lo, hi, what: str, csv_path: Path, rc: int, out: str) -> str | None:
    area, arclength, kappa_mid = _graph_truth(coeffs, lo, hi)
    if what == "area":
        return _check_area(area, csv_path, rc, out)
    if what == "arclength":
        return _check_scalar(arclength, 1e-9, rc, out)
    return _check_scalar(kappa_mid, 1e-6, rc, out)


def _check_kernel(family: str, k: float, csv_path: Path, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    rows = _csv_rows(csv_path)
    if len(rows) != 51 * 50 // 2:
        return f"{len(rows)} kernel rows"
    for s, r, kern, _ in rows:
        want = oracles.kernel_closed_form(family, k, float(s), float(r))
        if not _close(float(kern), want, 1e-7):
            return f"kernel {kern} != {want} at (s, r) = ({s}, {r})"
    return None


def _check_holds(rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    for i, rep in enumerate(_json_block(out)["reports"]):
        if not all(h["ok"] for h in rep["hypotheses"]) or rep["verdict"] != "holds":
            return f"trial {i}: {rep['verdict']}"
    return None


def _central_conic(rng: random.Random, elliptic: bool):
    """Dyadic a x^2 + b xy + c y^2 = r through an integer seed point, r > 0."""
    while True:
        a = Fraction(rng.randint(2, 8), 4)
        c = Fraction(rng.randint(2, 8), 4) * (1 if elliptic else -1)
        b = Fraction(rng.randint(-2, 2), 4)
        x0, y0 = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1)))
        r = a * x0 * x0 + b * x0 * y0 + c * y0 * y0
        if (a * c - b * b / 4 > 0) == elliptic and r != 0:
            if r < 0:
                a, b, c, r = -a, -b, -c, -r
            return (a, b, c, r), (x0, y0)


def evaluate(seed: int, workdir: Path, run_cli):
    """`area --out`, `curvature --out` and `arclength` on graph,
    curvature-ivp, conic and constant-curvature specs, `verify thm5.6` and
    `verify prop4.3`, and a minority of `kernel --grid 51`, in three blocks
    of the same make-up per round."""
    blocks = 3

    def make_round(r: int) -> list[Op]:
        rng = _rng(seed, r)
        ops: list[Op] = []
        draws = _evaluate_draws(rng, blocks)
        for block in range(blocks):
            _evaluate_block(rng, workdir / f"round-{r}" / f"block-{block}", ops, draws)
        rng.shuffle(ops)
        return ops

    warmup = _evaluate_block(random.Random(seed), workdir / "warmup", [],
                             _evaluate_draws(random.Random(seed), 1, samples=(9, 9)))[:3]
    return make_round, warmup


def _evaluate_draws(rng: random.Random, blocks: int,
                    samples: tuple[int, int] = (9, 65)) -> dict[str, list]:
    """The values that set the cost of an `evaluate` operation, drawn for
    a round and popped by its blocks: the area sample counts of each spec
    class, and the k of the four non-stiff `kernel` calls of a block.  Each
    list is stratified over its whole range and shuffled, so every class
    has the same spread of costs in every round: the reported quantiles
    fall on particular classes, and an unstratified draw moved them by
    about 7 % from seed to seed."""
    draws = {key: [round(x) for x in _strata(rng, n * blocks, *samples)]
             for key, n in (("graph", 4), ("closed", 4), ("ivp", 3))}
    draws["second"] = [round(x, 3) for x in _strata(rng, 2 * blocks, -9.0, 0.0)]
    draws["third"] = [round(x, 3) for x in _strata(rng, 2 * blocks, 0.0, 9.0)]
    for values in draws.values():
        rng.shuffle(values)
    return draws


def _evaluate_block(rng: random.Random, specdir: Path, ops: list[Op],
                    draws: dict[str, list]) -> list[Op]:
    """Append one block of operations to ops; --out files go to specdir."""
    specdir.mkdir(parents=True)

    def csv_path() -> Path:
        return specdir / f"out-{len(ops)}.csv"

    # four convex cubic graphs
    for i in range(4):
        lo = -1 - i % 2
        hi = lo + 2 + i % 2
        coeffs = tuple(_convex_cubic(rng, Fraction(4 + 2 * i, 8)))
        spec = _write(specdir / f"graph-{i}.json",
                      {"type": "graph", "coeffs": [_dec(c) for c in coeffs],
                       "domain": [str(lo), str(hi)]})
        jobs = ["area"] + (["arclength"] if i < 3 else []) + (["curvature"] if i < 3 else [])
        for what in jobs:
            path = csv_path()
            extra = ("--out", str(path)) if what != "arclength" else ()
            if what == "area":
                extra += ("--samples", str(draws["graph"].pop()))
            ops.append(Op((what, spec) + extra,
                          functools.partial(_check_graph, coeffs, lo, hi, what, path)))

    # constant-curvature arcs and central conics: curvature k, area closed form
    specs = []
    for i, k in enumerate(_strata(rng, 2, -4.0, 2.0)):
        k = round(k, 3)
        length = round(rng.uniform(1.0, 2.0) if k <= 0 else rng.uniform(1.0, 4.0 / math.sqrt(k)), 3)
        spec = _write(specdir / f"constant-{i}.json",
                      {"type": "constant-curvature", "k": repr(k),
                       "domain": ["0", repr(length)]})
        specs.append((spec, k, length))
    for i, elliptic in enumerate((True, False)):
        (a, b, c, r), (x0, y0) = _central_conic(rng, elliptic)
        k = oracles.central_conic_curvature(a, b, c, r)
        lo = -round(rng.uniform(0.0, 1.0), 3)
        length = round(rng.uniform(1.0, 2.0) if k <= 0 else rng.uniform(1.0, 4.0 / math.sqrt(k)), 3)
        spec = _write(specdir / f"conic-{i}.json",
                      {"type": "conic", "coeffs": [_dec(v) for v in (a, b, c, 0, 0, -r)],
                       "seed": [str(x0), str(y0)], "domain": [repr(lo), repr(lo + length)]})
        specs.append((spec, k, length))
    for spec, k, length in specs:
        path = csv_path()
        ops.append(Op(("area", spec, "--out", str(path), "--samples", str(draws["closed"].pop())),
                      functools.partial(_check_area, oracles.constant_area(k, length), path)))
        path = csv_path()
        ops.append(Op(("curvature", spec, "--out", str(path)),
                      functools.partial(_check_curvature_rows, lambda s, k=k: k, path)))
        ops.append(Op(("arclength", spec),
                      functools.partial(_check_scalar, length, 1e-12)))

    # curvature-ivp: kappa a quadratic polynomial in s; the area is checked
    # against an ODE solve of its own, while curvature and arclength only
    # repeat the spec (kappa and the domain length) and so check little
    for i in range(3):
        kc = [round(rng.uniform(-1.5, 1.0), 3), round(rng.uniform(-1.0, 1.0), 3),
              round(rng.uniform(-0.3, 0.3), 3)]
        lo, hi = -round(rng.uniform(0.2, 1.0), 3), round(rng.uniform(0.8, 1.5), 3)
        spec = _write(specdir / f"ivp-{i}.json",
                      {"type": "curvature-ivp", "kappa_coeffs": [repr(c) for c in kc],
                       "domain": [repr(lo), repr(hi)]})
        kappa = functools.partial(lambda cs, s: cs[0] + cs[1] * s + cs[2] * s * s, kc)
        path = csv_path()
        ops.append(Op(("area", spec, "--out", str(path), "--samples", str(draws["ivp"].pop())),
                      functools.partial(_check_ivp_area, tuple(kc), lo, hi, path)))
        path = csv_path()
        ops.append(Op(("curvature", spec, "--out", str(path)),
                      functools.partial(_check_curvature_rows, kappa, path)))
        if i == 0:
            ops.append(Op(("arclength", spec),
                          functools.partial(_check_scalar, hi - lo, 1e-12)))

    # verify thm5.6: constant curves (equality) and one band sweep trial
    for i, length in enumerate(_strata(rng, 4, 0.8, 2.0)):
        length = round(length, 3)
        cap = (math.pi / (2 * length)) ** 2
        if i % 2 == 0:
            k = round(rng.uniform(-2.0, 0.9 * cap), 3)
            argv = ("verify", "thm5.6", f"--constant={k!r}", f"--L={length!r}")
        else:
            k0 = round(rng.uniform(-2.0, -0.2), 3)
            k1 = round(rng.uniform(0.0, 0.9 * cap), 3)
            argv = ("verify", "thm5.6", f"--k0={k0!r}", f"--k1={k1!r}", f"--L={length!r}",
                    "--trials=1", f"--seed={rng.randrange(2**31)}")
        ops.append(Op(argv, _check_holds))

    # verify prop4.3: inscribed triangles against the arc bound
    k0 = round(rng.uniform(-2.0, -0.5), 3)
    ops.append(Op(("verify", "prop4.3", f"--k0={k0!r}", f"--k1={round(k0 + 1.0, 3)!r}",
                   f"--L={round(rng.uniform(1.0, 2.0), 3)!r}", "--trials=1",
                   f"--seed={rng.randrange(2**31)}"), _check_holds))

    # kernel --grid 51: constant k on [0, 1], the stiff k = -25 in every block;
    # five per block put the 90th percentile among the kernel calls
    for family, k in (("third", -25.0), ("second", draws["second"].pop()),
                      ("second", draws["second"].pop()), ("third", draws["third"].pop()),
                      ("third", draws["third"].pop())):
        path = csv_path()
        ops.append(Op(("kernel", "--family", family, "--k", repr(k), "--grid", "51",
                       "--out", str(path)),
                      functools.partial(_check_kernel, family, k, path)))
    return ops
