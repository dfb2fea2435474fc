"""Which CLI commands load SciPy.

Importing `scipy.integrate` costs about half a second, most of a CLI
call's wall time, so the package imports SciPy only inside the routines
that use it.  pytest's own process has SciPy loaded (the `filterwarnings`
setting names a SciPy warning), so each check runs `cli.main` in a fresh
`python -W error` process and reads its `sys.modules`: an exact check,
with no timing in it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affinecurves
from affinecurves.cli import FIGURES, VERIFY_REGISTRY

SRC = str(Path(affinecurves.__file__).parent.parent)

# Runs the command lines of argv[1] (a JSON list) in turn and prints, for
# the bare import and then each command, its exit code (None for the
# import) and whether a scipy module was loaded by then.
_PROBE = """
import contextlib, io, json, sys
def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
from affinecurves.cli import main
seen = [[None, scipy_loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([main(argv), scipy_loaded()])
print(json.dumps(seen))
"""


_CUBIC = {"type": "graph", "coeffs": ["0", "0", "1", "0.1"], "domain": ["-1", "1"]}


def _start(commands):
    """A fresh process, treating warnings as errors, that runs the command
    lines in turn."""
    return subprocess.Popen([sys.executable, "-W", "error", "-c", _PROBE, json.dumps(commands)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": SRC})


def _finish(proc):
    """[exit code, scipy loaded] after the import and after each command."""
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert err == ""
    return json.loads(out)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _exact_commands(tmp_path):
    """`examples` and `count` on the exported sharp instances, every
    `verify` theorem, `bounds`, `figures`, `area`, `curvature` and
    `arclength` on curvature-ivp, conic, constant-curvature and cubic
    graph specs, `area --apex` and `area --base` on the curvature-ivp
    spec, and `count` on the cubic graph (by vertical lattice lines)."""
    commands = []
    for name, m0 in (("parabola", 3), ("hyperbola", 2), ("hyperbola-general", 2)):
        for rigid in ((), ("--rigid",)):
            out = tmp_path / f"{name}-{m0}{''.join(rigid)}"
            commands += [["examples", name, "--m0", str(m0), "--outdir", str(out), *rigid],
                         ["count", str(out / f"{name}-curve.json"),
                          str(out / f"{name}-lattice.json")]]
    commands += [["verify", thm, "--trials", "2", "--k1", "0"] for thm in VERIFY_REGISTRY]
    commands += [["bounds", "--k0", "-1", "--k1", "0", "--L", "2"]]
    commands += [["figures", fig] for fig in FIGURES]
    specs = {
        "ivp": {"type": "curvature-ivp", "kappa_coeffs": ["0.5", "-0.2"], "domain": ["-1", "1.5"]},
        "conic": {"type": "conic", "coeffs": ["1", "-1", "-1", "0", "0", "-1"],
                  "seed": ["1", "0"], "domain": ["0", "1.2"]},
        "constant": {"type": "constant-curvature", "k": "-2", "domain": ["0", "1"]},
        "cubic": _CUBIC,
    }
    for name, spec in specs.items():
        path = _write(tmp_path / f"{name}.json", spec)
        commands += [[command, path] for command in ("area", "curvature", "arclength")]
    ivp = str(tmp_path / "ivp.json")
    commands += [["area", ivp, "--apex", "0", "0"], ["area", ivp, "--base", "0.25"]]
    lattice = _write(tmp_path / "z2.json", {"v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"]})
    commands += [["count", str(tmp_path / "cubic.json"), lattice]]
    return commands


def _float_commands(tmp_path):
    """`count` on a curvature-ivp spec (the k-d tree of the float window),
    one per process."""
    lattice = _write(tmp_path / "z2-float.json",
                     {"v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"]})
    ivp = _write(tmp_path / "ivp.json", {"type": "curvature-ivp", "kappa_coeffs": ["0.5"],
                                         "domain": ["0", "2"]})
    return [["count", ivp, lattice]]


@pytest.fixture(scope="module")
def probes(tmp_path_factory):
    """All the probe processes, started together: each test reads its own."""
    tmp = tmp_path_factory.mktemp("startup")
    exact = _exact_commands(tmp)
    started = {"exact": (exact, _start(exact))}
    for argv in _float_commands(tmp):
        started[tuple(argv)] = ([argv], _start([argv]))
    yield started
    for _, proc in started.values():  # a failed test may have left one unread
        proc.kill()
        proc.communicate()


def test_exact_paths_load_no_scipy(probes):
    """The bare import and every exact command run without SciPy."""
    commands, proc = probes["exact"]
    seen = _finish(proc)
    assert seen[0] == [None, False]  # the bare import
    for argv, (code, scipy) in zip(commands, seen[1:]):
        assert (code, scipy) == (0, False), argv


def test_float_paths_load_scipy(probes):
    """The float paths do load SciPy, so the check above can fail; under
    -W error they still exit 0, so a first-use import raises no warning."""
    for key, (commands, proc) in probes.items():
        if key != "exact":
            assert _finish(proc) == [[None, False], [0, True]], commands
