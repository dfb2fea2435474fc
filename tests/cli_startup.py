"""Wall and CPU time of whole CLI processes, for two source trees.

Run by hand (pytest does not collect it):

    git archive <parent> | tar -x -C /tmp/parent
    python tests/cli_startup.py /tmp/parent/src [--change src] [--runs 7]

Each command of a fixed list runs as a fresh `python` process on the
parent's `src` and on the change's, alternating (the order flips every
round, so a drift in machine speed hits both sides alike).  For each side
the script prints the median wall time, the median CPU time of the child
(user + system, from `getrusage`), the exit code and whether the process
had loaded a `scipy` module when the command returned.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# runs the command line after it, then reports on stderr whether scipy was loaded
_RUN = ("import sys\n"
        "from affinecurves.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('scipy-loaded', any(m.split('.')[0] == 'scipy' for m in sys.modules),"
        " file=sys.stderr)\n"
        "sys.exit(code)\n")


def commands(workdir: Path, src: str) -> dict[str, list[str]]:
    """The timed command lines, with the spec files they read written into workdir."""
    subprocess.run([sys.executable, "-c", _RUN, "examples", "hyperbola", "--m0", "5",
                    "--outdir", str(workdir)], env=_env(src), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    cubic = workdir / "cubic.json"
    cubic.write_text(json.dumps({"type": "graph", "coeffs": ["0", "0", "1", "0.1"],
                                 "domain": ["-1", "1"]}))
    z2 = workdir / "z2.json"
    z2.write_text(json.dumps({"v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"]}))
    return {
        "import": ["examples", "--help"],
        "count hyperbola m0=5": ["count", str(workdir / "hyperbola-curve.json"),
                                 str(workdir / "hyperbola-lattice.json")],
        "verify thm4.1 --trials 3": ["verify", "thm4.1", "--trials", "3"],
        "area cubic graph": ["area", str(cubic)],
        "curvature cubic graph": ["curvature", str(cubic)],
        "arclength cubic graph": ["arclength", str(cubic)],
        "count cubic graph": ["count", str(cubic), str(z2)],
    }


def _env(src: str) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": src}


def run_once(src: str, argv: list[str]) -> tuple[float, float, int, bool]:
    """Wall seconds, child CPU seconds, exit code and whether scipy was loaded."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _RUN, *argv], env=_env(src),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    lines = done.stderr.splitlines()
    return wall, cpu, done.returncode, bool(lines) and lines[-1] == "scipy-loaded True"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent checkout's src directory")
    parser.add_argument("--change", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the changed checkout's src directory (default: this one's)")
    parser.add_argument("--runs", type=int, default=7, help="runs per command and side")
    args = parser.parse_args()
    sides = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        table = commands(Path(tmp), sides["change"])
        print(f"{'command':28} {'side':7} {'wall_s':>7} {'cpu_s':>7} {'exit':>4}  scipy")
        for name, argv in table.items():
            results: dict[str, list] = {side: [] for side in sides}
            for i in range(args.runs):
                for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
                    results[side].append(run_once(sides[side], argv))
            for side, runs in results.items():
                wall = statistics.median(r[0] for r in runs)
                cpu = statistics.median(r[1] for r in runs)
                codes = ",".join(str(c) for c in sorted({r[2] for r in runs}))
                scipy = ",".join(str(v) for v in sorted({r[3] for r in runs}))
                print(f"{name:28} {side:7} {wall:7.3f} {cpu:7.3f} {codes:>4}  {scipy}")


if __name__ == "__main__":
    main()
