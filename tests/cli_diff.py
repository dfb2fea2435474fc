"""Byte comparison of the CLI's outputs under two source trees.

Run by hand (pytest does not collect it):

    git archive <parent> | tar -x -C /tmp/parent
    python tests/cli_diff.py /tmp/parent/src [--change src]

One fixed list of command lines runs under each tree, in one child
interpreter per tree (the two run side by side), each in its own scratch
directory holding the same input specs.  The list covers every
subcommand: one spec of each of the five kinds; 26 polynomial graphs, each
through `area` (with `--out`, with `--apex` and with `--base`),
`curvature` (with `--out` and with `--at`), `arclength --out` and
`count --out`; `verify` of all seven theorems at seeds 0-2, of `cor4.2`,
`thm4.1`, `prop4.3`, `thm5.8` and `thm5.6` at stiff corners, and of
`thm2.3` at `--L` 10 and 20; `examples` and then `count`
on the parabola, hyperbola and hyperbola-general instances at `--m0`
1-3, with and without `--rigid`; `count` on two instances under exact
equi-affine maps; and `kernel --grid 51` for both families.  For each
command the script compares stdout, stderr, the exit code, the `--out`
file and the files of `--outdir`.  It prints each command that differs
and what differs, and exits 1 when any does, 0 when none does.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

OUT = "{out}"  # stands for the command's own --out path in the list

# runs the JSON list of command lines on stdin, one after another in this
# process, and writes one JSON record per command to stdout
_CHILD = r"""
import contextlib, io, json, os, sys, traceback
from affinecurves.cli import main

def read(path):
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8", "backslashreplace")

records = []
for i, argv in enumerate(json.load(sys.stdin)):
    out = os.path.join("out", str(i))
    argv = [out if a == "{out}" else a for a in argv]
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            code = main(argv)
        except Exception:  # recorded and compared like any other outcome
            code = "raised: " + traceback.format_exc().splitlines()[-1]
    files = {}
    if os.path.exists(out):
        files["--out"] = read(out)
    if "--outdir" in argv:
        d = argv[argv.index("--outdir") + 1]
        for name in sorted(os.listdir(d)):
            files[name] = read(os.path.join(d, name))
    records.append({"stdout": so.getvalue(), "stderr": se.getvalue(), "code": code,
                    "files": files})
json.dump(records, sys.stdout)
"""

Z2 = {"v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"]}

# one spec of each kind but "graph" (the graphs come from `graphs`)
KIND_SPECS = {
    "parabola": {"type": "parabola", "coeffs": ["0", "-0.5", "0.5"], "domain": ["0", "3"]},
    "conic": {"type": "conic", "coeffs": ["1", "-1", "-1", "0", "0", "-1"],
              "seed": ["1", "0"], "domain": ["0", "2"]},
    "constant-curvature": {"type": "constant-curvature", "k": "2", "domain": ["-1", "1"],
                           "origin": ["1", "2"], "tangent": ["1", "0.5"],
                           "normal": ["0", "1"]},
    "curvature-ivp": {"type": "curvature-ivp", "kappa_coeffs": ["-1", "0.5", "0.2"],
                      "domain": ["-1", "1.5"]},
}


# exported instances under p -> M p + t, the conic pulled back exactly:
# hyperbola-general --m0 3 under M = [[1000, 1], [999, 1]], and the
# circle on Z^2 under M = [[89, 55], [55, 34]], t = (1/3, 2/5)
MAPPED_SPECS = {
    "mapped-hyperbola": (
        {"type": "conic", "coeffs": ["-995999/16", "996997/8", "-249499/4", "0", "0", "-1"],
         "seed": ["2000.0", "1998.0"], "domain": ["0.0", "12.982031346378296"]},
        {"v0": ["0", "0"], "v1": ["2000", "1998"], "v2": ["4", "4"]}),
    "mapped-circle": (
        {"type": "conic",
         "coeffs": ["4181", "-13530", "10946", "7874/3", "-21234/5", "92456/225"],
         "seed": ["89.33333333333333", "55.4"], "domain": ["0", "6.283185307179586"]},
        {"v0": ["1/3", "2/5"], "v1": ["89", "55"], "v2": ["55", "34"]}),
}


def _dec(x: Fraction) -> str:
    """The short decimal of a dyadic fraction, which parses back exactly."""
    return repr(float(x))


def graphs() -> list[dict]:
    """26 convex polynomial graphs with dyadic coefficients: the README
    cubic, a far cubic, a flat-bottomed quartic on [-1, 1] and on [-3, 3],
    and 11 cubics and 11 quartics drawn from a fixed seed."""
    rng = random.Random(20)
    out = [{"coeffs": ["0", "0", "1", "0.05"], "domain": ["-1", "1"]},
           {"coeffs": ["0", "0", "0", "1"], "domain": ["100000", "100003"]},
           {"coeffs": ["0", "0", "1e-9", "0", "1"], "domain": ["-1", "1"]},
           {"coeffs": ["0", "0", "1e-9", "0", "1"], "domain": ["-3", "3"]}]
    for i in range(11):
        # f'' >= 2 c2 - 6 |c3| |x| > 0 for |x| <= 2
        c = [Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-2, 2), 8),
             Fraction(8 + i, 16), Fraction(rng.choice((-1, 1)) * rng.randint(1, 2), 32)]
        lo = -1 - i % 2
        out.append({"coeffs": [_dec(v) for v in c], "domain": [str(lo), str(lo + 3)]})
    for i in range(11):
        # 36 c3^2 < 96 c2 c4: convex on the whole line
        c2, c4 = Fraction(rng.randint(2, 12), 8), Fraction(rng.randint(1, 8), 16)
        c3 = Fraction(rng.randint(-3, 3), 16)
        while 36 * c3 * c3 >= 96 * c2 * c4:
            c3 /= 2
        c = [Fraction(rng.randint(-4, 4), 4), Fraction(rng.randint(-4, 4), 8), c2, c3, c4]
        lo = -rng.randint(1, 3)
        hi = lo + rng.randint(2, 4)
        out.append({"coeffs": [_dec(v) for v in c], "domain": [str(lo), str(hi)]})
    return [{"type": "graph", **g} for g in out]


def commands(workdir: Path) -> list[list[str]]:
    """The command lines, with the specs they read written into workdir
    (paths relative to it)."""
    (workdir / "specs").mkdir()
    (workdir / "out").mkdir()

    def write(name: str, doc: dict) -> str:
        path = Path("specs") / f"{name}.json"
        (workdir / path).write_text(json.dumps(doc, sort_keys=True, indent=2))
        return str(path)

    z2 = write("z2", Z2)
    cmds = []
    for name, doc in KIND_SPECS.items():
        spec = write(name, doc)
        cmds += [["arclength", spec, "--out", OUT],
                 ["curvature", spec, "--out", OUT], ["curvature", spec, "--at", "0.4"],
                 ["area", spec, "--out", OUT],
                 ["area", spec, "--apex", "0.3", "-1.2", "--base", "0.5", "--out", OUT],
                 ["count", spec, z2, "--out", OUT]]
    for i, doc in enumerate(graphs()):
        spec = write(f"graph-{i}", doc)
        cmds += [["area", spec, "--out", OUT],
                 ["area", spec, "--apex", "0.5", "-0.25", "--samples", "9", "--out", OUT],
                 ["area", spec, "--base", "0.5", "--out", OUT],
                 ["curvature", spec, "--out", OUT], ["curvature", spec, "--at", "0.3"],
                 ["arclength", spec, "--out", OUT],
                 ["count", spec, z2, "--out", OUT]]
    cmds.append(["area", write("not-convex", {"type": "graph", "coeffs": ["0", "0", "1", "1"],
                                              "domain": ["-1", "1"]})])
    for theorem in ("thm2.3", "thm3.4", "thm4.1", "cor4.2", "thm5.6", "prop4.3", "thm5.8"):
        for seed in ("0", "1", "2"):
            cmds.append(["verify", theorem, "--seed", seed])
    cmds += [["verify", "thm5.6", "--constant", "-0.5", "--L", "1.0"],
             ["verify", "cor4.2", "--trials", "3", "--format", "csv", "--out", OUT],
             ["verify", "cor4.2", "--k0=-158.32950352406675", "--k1=-158.28296741619855",
              "--L=3.5408603545701647", "--trials", "1", "--seed", "57"],
             ["verify", "thm4.1", "--k0=-400", "--k1=-399", "--L", "4", "--trials", "3"],
             ["verify", "prop4.3", "--k0=-400", "--k1=-399.9", "--L", "4", "--trials", "2"],
             ["verify", "thm5.8", "--k0=-104.14543984852982", "--k1=-103.97355152839717",
              "--L=5.178193249829169", "--trials", "2", "--seed", "659"],
             ["verify", "thm5.6", "--k0=-400", "--k1=-399", "--L", "4", "--trials", "3"],
             ["verify", "thm2.3", "--L", "10"], ["verify", "thm2.3", "--L", "20"]]
    for name, (curve, lattice) in MAPPED_SPECS.items():
        cmds.append(["count", write(f"{name}-curve", curve), write(f"{name}-lattice", lattice),
                     "--out", OUT])
    for name in ("parabola", "hyperbola", "hyperbola-general"):
        for m0 in ("1", "2", "3"):
            for rigid in ([], ["--rigid"]):
                outdir = f"ex-{name}-{m0}{'-rigid' if rigid else ''}"
                cmds += [["examples", name, "--m0", m0, *rigid, "--outdir", outdir],
                         ["count", f"{outdir}/{name}-curve.json",
                          f"{outdir}/{name}-lattice.json", "--format", "json", "--out", OUT]]
    cmds.append(["examples", "circle", "--outdir", "ex-circle"])
    cmds += [["kernel", "--family", "second", "--k", "-1.5", "--grid", "51", "--out", OUT],
             ["kernel", "--family", "third", "--k", "2", "--hi", "1.5", "--grid", "51",
              "--out", OUT],
             ["bounds", "--k0", "-1", "--k1", "0.5", "--L", "2"],
             ["bounds", "--k0", "-2", "--k1", "-1", "--L", "1", "--out", OUT]]
    cmds += [["figures", fig, "--out", OUT] for fig in ("fig1", "fig5", "fig6", "fig7", "fig8")]
    return cmds


def _start(src: str, workdir: Path, cmds: list[list[str]]) -> subprocess.Popen:
    child = subprocess.Popen([sys.executable, "-c", _CHILD], cwd=workdir,
                             env={**os.environ, "PYTHONPATH": src}, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    child.stdin.write(json.dumps(cmds))
    child.stdin.close()
    return child


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent checkout's src directory")
    parser.add_argument("--change", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the changed checkout's src directory (default: this one's)")
    args = parser.parse_args()
    sides = (str(Path(args.parent).resolve()), str(Path(args.change).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / side for side in ("parent", "change")]
        for d in dirs:
            d.mkdir()
        cmds = commands(dirs[0])
        commands(dirs[1])  # the same specs, in the other side's directory
        children = [_start(src, d, cmds) for src, d in zip(sides, dirs)]
        records = []
        for child in children:
            text = child.stdout.read()
            if child.wait():
                print(f"a child interpreter exited with status {child.returncode}")
                return 1
            records.append(json.loads(text))
    differ = 0
    for argv, old, new in zip(cmds, *records):
        parts = [k for k in ("stdout", "stderr", "code") if old[k] != new[k]]
        parts += [f"file {name}" for name in sorted(set(old["files"]) | set(new["files"]))
                  if old["files"].get(name) != new["files"].get(name)]
        if parts:
            differ += 1
            print(f"DIFFERS ({', '.join(parts)}): {' '.join(argv)}")
    print(f"{len(cmds)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
