"""Spans and counters around the public entry points of each module.

The benchmark installs wrappers on module and class attributes of the
program for a traced run and removes them afterwards; nothing inside
`src/` changes.  A timed target records a span (name, start, end, parent
span, operation id) per call; a counted target, used for the hot calls
such as right-hand-side evaluations, only bumps a counter.  Spans stay in
memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

SPAN, COUNT = "span", "count"

# (name, module, attribute, mode): a timed target's name is the prefix of
# its `.calls` and `.ms` metrics, and several attributes may share one, as
# the bound_* family does; a counted target's name is its metric
TARGETS = [
    ("odekernel.check_forward_positive", "odekernel", "check_forward_positive", SPAN),
    ("odekernel.solve_ivp", "odekernel", "solve_ivp", SPAN),
    ("odekernel.column.calls", "odekernel", "LagrangeKernel.column", COUNT),
    ("odekernel.rhs_evals", "odekernel", "LinearOperator.apply_to_state", COUNT),
    ("odekernel.kernel_evals", "odekernel", "IVPSolution.__call__", COUNT),
    ("curve.reconstruct_from_curvature", "curve", "reconstruct_from_curvature", SPAN),
    ("curve.reparam_unit_speed", "curve", "reparam_unit_speed", SPAN),
    ("curve.area_quad", "curve", "AreaFunction.__call__", SPAN),
    ("curve.graphing_parameter_set", "curve", "graphing_parameter_set", SPAN),
    ("curve.point.calls", "curve", "AffineCurve.point", COUNT),
    ("compare.area_compare", "compare", "area_compare", SPAN),
    ("compare.coord_bounds_check", "compare", "coord_bounds_check", SPAN),
    ("compare.verify_triangle_bound", "compare", "verify_triangle_bound", SPAN),
    ("lattice.enumerate_on_arc", "lattice", "enumerate_on_arc", SPAN),
    ("lattice.m_of_curve", "lattice", "m_of_curve", SPAN),
    ("lattice.triangle_multiplier.calls", "lattice", "triangle_multiplier", COUNT),
    ("lattice.enumerate_near_curve", "lattice", "enumerate_near_curve", SPAN),
    ("lattice.bound", "lattice", "bound_two_points", SPAN),
    ("lattice.bound", "lattice", "bound_general", SPAN),
    ("lattice.bound", "lattice", "bound_three_points", SPAN),
    ("lattice.bound", "lattice", "bound_sharp", SPAN),
    ("lattice.bound", "lattice", "bound_rigid", SPAN),
    ("conics.substituted.calls", "conics", "Conic.substituted", COUNT),
    ("conics.branch_curve", "conics", "Conic.branch_curve", SPAN),
    ("specfiles.load_curve_spec", "specfiles", "load_curve_spec", SPAN),
    ("specfiles.load_lattice_spec", "specfiles", "load_lattice_spec", SPAN),
    ("kfuncs.gk.calls", "kfuncs", "gk", COUNT),
    ("kfuncs.fk.calls", "kfuncs", "fk", COUNT),
]

PACKAGE = "affinecurves"
OP_SPAN = "op"


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start, end, parent, op
        self.counts: Counter = Counter()
        self.ms: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._op = -1
        self.ops: list[tuple[int, str]] = []  # operation id, command line
        self._saved: list[tuple[object, str, object]] = []

    # --------------------------------------------------------- wrappers

    def _timed(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)  # reserve the slot so children point at it
            tracer._stack.append(index)
            tracer._depth[name] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                tracer.spans[index] = (name, start, end, parent, tracer._op)
                tracer.counts[name + ".calls"] += 1
                if tracer._depth[name] == 0:  # outermost call of this name only
                    tracer.ms[name] += end - start
            if name == "lattice.enumerate_on_arc":
                tracer.counts[name + ".points"] += len(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target, in its defining module and wherever another
        module of the package imported it by name."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, module, attr, mode in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            owner_name, _, member = attr.rpartition(".")
            make = self._timed if mode == SPAN else self._counted
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[member]
                self._replace(owner, member, make(name, original))
            else:
                original = getattr(mod, member)
                wrapper = make(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, key, wrapper)

    def _replace(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # ------------------------------------------------------ operations

    def begin_op(self, op: int, label: str = "") -> None:
        self._op = op
        self.ops.append((op, label))
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op_start = (index, time.perf_counter_ns())

    def end_op(self) -> None:
        index, start = self._op_start
        end = time.perf_counter_ns()
        self._stack.clear()
        self._depth.clear()
        self.spans[index] = (OP_SPAN, start, end, -1, self._op)

    def self_ms(self) -> float:
        """Operation time minus the time its direct wrapped children cover."""
        total = 0
        op_index = {}
        for i, span in enumerate(self.spans):
            if span[0] == OP_SPAN:
                op_index[i] = span
                total += span[2] - span[1]
        for span in self.spans:
            if span[3] in op_index:
                total -= span[2] - span[1]
        return total / 1e6

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer values per round of the operation list: `.calls` and
        `.ms` of every timed target, the count of every counted one, the
        points `enumerate_on_arc` returned, and `cli.self_ms`."""
        values = {"lattice.enumerate_on_arc.points": self.counts["lattice.enumerate_on_arc.points"],
                  "cli.self_ms": self.self_ms()}
        for name, _, _, mode in TARGETS:
            if mode == SPAN:
                values[name + ".calls"] = self.counts[name + ".calls"]
                values[name + ".ms"] = self.ms[name] / 1e6
            else:
                values[name] = self.counts[name]
        return {name: value / rounds for name, value in values.items()}

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**meta, "ops": self.ops,
               "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
               "spans": self.spans, "counts": dict(self.counts)}
        path.write_text(json.dumps(doc))
