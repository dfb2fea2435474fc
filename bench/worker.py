"""One workload in one process: set up, run a fixed number of rounds of
the operation list through `affinecurves.cli.main`, check every output,
report JSON.

    python3 bench/worker.py --workload count --seed 1 --seconds 30 --phase run

`--phase import` only imports the program (an untimed process start that
warms the file cache), `--phase setup` stops after set-up and reports its
time, `--phase run` measures.  `run.py` drives the phases; the last line
of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads  # imports mpmath for the checks; not part of set-up time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
MIN_OPS = 100  # so that at least ten latencies lie above the 90th percentile
# Scaled CPU seconds of one round of each workload on the machine of
# README.md.  A run has max(enough rounds for MIN_OPS, --seconds over
# this) rounds: the number depends on --seconds alone, never on speed.
NOMINAL_ROUND_S = {"sweep": 13.0, "count": 11.0, "evaluate": 7.0}

# Machine speed: times are reported as they would be on a machine where
# the reference computation takes REFERENCE_S of CPU time, that is scaled
# by REFERENCE_S / (the reference's CPU time nearby).  REFERENCE_S is a
# fixed unit, about the reference's time on the machine of README.md.
REFERENCE_S = 0.006
REF_EVERY_S = 0.2  # run the reference after this much operation time
REF_WINDOW = 5


def load_cli():
    """Import the command-line module from this checkout's `src/` only."""
    src = ROOT / "src"
    if not (src / "affinecurves" / "__init__.py").is_file():
        raise SystemExit(f"no affinecurves sources under {src}")
    sys.path.insert(0, str(src))
    import affinecurves.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "affinecurves").resolve():
        raise SystemExit(f"imported affinecurves from {cli.__file__}, not {src}")
    return cli


def make_runner(cli):
    def run_cli(argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
        return rc, out.getvalue()
    return run_cli


def reference_cpu_s() -> float:
    """CPU seconds of a fixed computation on the program's own stack: a
    SciPy DOP853 solve with a Python right-hand side, and Fraction
    arithmetic.  It runs no program code, so a change to the program does
    not move it, while the machine's speed does.  (SciPy is imported here,
    after set-up has been timed, so that set-up pays for it as the program
    does.)"""
    import numpy as np
    from scipy.integrate import solve_ivp

    def rhs(s, u):
        return np.array((u[1], -9.0 * u[0]))

    start = time.process_time()
    solve_ivp(rhs, (0.0, 3.0), (0.0, 1.0), method="DOP853", rtol=1e-10, atol=1e-12)
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(1, i)
    return time.process_time() - start


def speed_factor(refs: list[float]) -> float:
    """REFERENCE_S over the median of reference times taken nearby."""
    return REFERENCE_S / statistics.median(refs)


def normalised(latencies: list[float], refs: list[tuple[int, float]]) -> list[float]:
    """Scale each latency by the speed factor of the REF_WINDOW reference
    runs nearest to it."""
    positions = [i for i, _ in refs]
    out = []
    for i, t in enumerate(latencies):
        p = bisect.bisect_left(positions, i)
        lo = max(0, min(p - REF_WINDOW // 2, len(refs) - REF_WINDOW))
        out.append(t * speed_factor([r for _, r in refs[lo:lo + REF_WINDOW]]))
    return out


def run_round(ops, run_cli, tally, workdir: Path, tracer=None,
              op_base: int = 0) -> tuple[list[float], list[tuple[int, float]], float]:
    """Run every operation once, closed loop.  Returns the CPU time of each
    operation, the reference runs (index of the operation before, CPU
    time) and the wall time of the round's operations, in seconds."""
    latencies, refs = [], []
    wall = since_ref = 0.0
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(op_base + i, " ".join(op.argv).replace(f"{workdir}/", ""))
        start, start_wall = time.process_time(), time.perf_counter()
        try:
            rc, out = run_cli(op.argv)
            error = None
        except Exception as exc:  # an exception is a failed operation
            rc, out, error = -1, "", f"exception {exc!r}"
        latencies.append(time.process_time() - start)
        wall += time.perf_counter() - start_wall
        if tracer:
            tracer.end_op()
        if error is None:
            try:
                error = op.check(rc, out)
            except Exception as exc:  # unparsable output is a wrong output
                error = f"unreadable output: {exc!r}"
        tally(op, error)
        since_ref += latencies[-1]
        if since_ref >= REF_EVERY_S or i == len(ops) - 1:
            refs.append((i, reference_cpu_s()))
            since_ref = 0.0
    return latencies, refs, wall


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=("sweep", "count", "evaluate"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("import", "setup", "run"), default="run")
    args = p.parse_args()
    # on SIGTERM unwind normally, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    t0 = time.process_time()
    cli = load_cli()
    if args.phase == "import":
        print(json.dumps({"import_s": time.process_time() - t0}))
        return 0
    run_cli = make_runner(cli)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        build = getattr(workloads, args.workload)
        make_round, warmup = build(args.seed, workdir, run_cli)
        first = make_round(0)
        for op in warmup:
            run_cli(op.argv)
        setup_s = time.process_time() - t0
        setup_s *= speed_factor([reference_cpu_s() for _ in range(REF_WINDOW)])
        if args.phase == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(args, first, make_round, run_cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def measure(args, first, make_round, run_cli, workdir: Path) -> dict:
    failures: dict[str, str] = {}
    state = {"attempted": 0, "failed": 0, "unexpected": 0}

    def tally(op, error):
        state["attempted"] += 1
        if error is not None:
            state["failed"] += 1
            where = " ".join(op.argv).replace(f"{workdir}/", "")
            failures.setdefault(where, f"{op.known_fault or 'UNEXPECTED'}: {error}")
            if not op.known_fault:
                state["unexpected"] += 1

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    rounds = max(math.ceil(MIN_OPS / len(first)),
                 round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    latencies, refs, walls, traced, traced_refs = [], [], [], [], []
    for r in range(rounds):
        ops = make_round(r) if r else first
        lat, ref, wall = run_round(ops, run_cli, tally, workdir)
        refs += [(i + len(latencies), t) for i, t in ref]
        latencies += lat
        walls.append(wall)
        if tracer:  # the same list again, traced
            tracer.install()
            try:
                lat, ref, wall = run_round(ops, run_cli, tally, workdir, tracer,
                                           len(traced))
            finally:
                tracer.uninstall()
            traced_refs += [(i + len(traced), t) for i, t in ref]
            traced += lat

    scaled = normalised(latencies, refs)
    result = {
        "correct": state["unexpected"] == 0,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_p90_ms": 1e3 * statistics.quantiles(scaled, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": len(latencies),
        "rounds": len(walls),
        "ops_per_round": len(first),
        "cpu_wall": sum(latencies) / sum(walls),
        "cpu_ops_per_s": len(latencies) / sum(latencies),
        "wall_ops_per_s": len(latencies) / sum(walls),
        "slowdown": statistics.median(r for _, r in refs) / REFERENCE_S,
        "failures": failures,
    }
    if tracer:
        layers = tracer.metrics(len(walls))
        layers["trace.overhead_pct"] = 100.0 * (sum(normalised(traced, traced_refs))
                                                / sum(scaled) - 1.0)
        result["layers"] = layers
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
    return result


if __name__ == "__main__":
    sys.exit(main())
