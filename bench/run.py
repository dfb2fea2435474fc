"""Benchmark of the affinecurves command line, driven in-process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs one workload (`sweep`, `count` or `evaluate`, see README.md) in its
own single-threaded worker process and prints, as the last line of
standard output, one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` they are the per-layer ones of a separate traced run,
whose spans go to `bench/_out/trace-<workload>-<seed>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 175.0
SETUP_SAMPLES = 5  # set-up is timed in this many worker processes, median reported


def worker(args, phase: str, started: float) -> dict:
    """Run one worker phase to completion and return its JSON result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--phase", phase]
    timeout = DEADLINE_S - (time.perf_counter() - started)
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except BaseException:  # timeout or SIGTERM: let the worker clean up, then wait
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker phase {phase} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("sweep", "count", "evaluate"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # on SIGTERM unwind normally, so the running worker is stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    if not (ROOT / "src" / "affinecurves" / "__init__.py").is_file():
        print(f"error: no affinecurves sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        run = worker(args, "run", started)
        values = run["layers"]
    else:
        worker(args, "import", started)  # untimed start: warms the file cache
        setups = [worker(args, "setup", started)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        run = worker(args, "run", started)
        setups.append(run["setup_s"])
        values = {**run, "setup_s": statistics.median(setups)}
    # the metrics, their units and their order are those of BENCHMARK.json
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed["per_layer" if args.trace else "end_to_end"]}

    print(f"# {args.workload} seed {args.seed}: {run['ops']} ops in {run['rounds']} rounds "
          f"of {run['ops_per_round']}; machine slowdown {run['slowdown']:.3f}, "
          f"cpu/wall {run['cpu_wall']:.3f}, unscaled ops/s cpu {run['cpu_ops_per_s']:.4g} "
          f"wall {run['wall_ops_per_s']:.4g}"
          + ("" if args.trace else f"; set-up samples {[round(s, 3) for s in setups]}"))
    for op, reason in run["failures"].items():
        print(f"# failed: {op}: {reason}")
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
