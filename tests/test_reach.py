"""Every definition in `src/` is reached from `src/`, or is kept on purpose.

An `ast` scan of `src/affinecurves/*.py`: each module-level def or class,
and each method of a class, private names included, must have its name
appear somewhere in `src/` outside its own body (a call, an attribute
read, a registry entry), where the exports of `__init__.py` do not
count.  A definition that only the tests reach belongs in
`tests/reference.py`.  The keep-list holds what is reached from outside
`src/` by name: the benchmark tracer's targets (read from
`bench/tracing.py` with `ast`, not imported), the names the README's
library quick start uses, kfuncs' public profiles, the DOP853 oracle's
read API, the console script, and dunders.
"""

import ast
from pathlib import Path

import affinecurves

PACKAGE = Path(affinecurves.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# read by name from outside src/: the DOP853 oracle's read API, the CLI
# entry points, and one definition that planned work builds on
# (equal_spaced_orbit: orbit enumeration of the sharp families)
KEEP = {"odekernel.IVPSolution.eval", "odekernel.DenseReader.state", "cli.main", "cli.entry",
        "lattice.equal_spaced_orbit"}

# the bare names that more than one src/ definition carries, dunders
# aside: a use is matched by its name alone, so one reached definition of
# such a name hides another that nothing reaches (as `to_dict` hid
# PositivityReport.to_dict).  Each of these was checked by hand; a new
# shared name fails `test_shared_names_are_checked_by_hand` until it is.
SHARED = {"entry", "make", "det", "point", "cell_area", "to_dict", "_horner", "_side", "verdict"}


def _tracer_targets() -> set[str]:
    """`module.attribute` of each entry of bench/tracing.py's TARGETS."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "TARGETS"
                                                for t in node.targets):
            return {f"{entry.elts[1].value}.{entry.elts[2].value}" for entry in node.value.elts}
    raise AssertionError("bench/tracing.py has no TARGETS list")


def _quick_start_names() -> set[str]:
    """The names the README's library quick start imports or reads as
    attributes."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library quick start"):]
    code = section[section.index("```python") + len("```python"):]
    tree = ast.parse(code[:code.index("```")])
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _definitions(module: str, body: list, prefix: str = ""):
    """(qualified name, node) of each def and class of a body, and of the
    defs and classes of each class in it."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{prefix}{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(module, node.body, f"{prefix}{node.name}.")


def _trees(package: Path) -> dict[str, ast.Module]:
    """The parsed modules of `package`, `__init__` aside, by name."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
            if path.stem != "__init__"}


def shared_names(package: Path) -> set[str]:
    """The names, dunders aside, of more than one definition of `package`."""
    seen: dict[str, int] = {}
    for module, tree in _trees(package).items():
        for _, node in _definitions(module, tree.body):
            seen[node.name] = seen.get(node.name, 0) + 1
    return {name for name, count in seen.items()
            if count > 1 and not (name.startswith("__") and name.endswith("__"))}


def unreached(package: Path) -> list[str]:
    """The qualified names of the definitions of `package` that nothing in
    it reaches and that are not kept."""
    trees = _trees(package)
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno))
    keep, quick_start = KEEP | _tracer_targets(), _quick_start_names()
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(module, tree.body):
            name = node.name
            if (qualname in keep or name in quick_start
                    or (name.startswith("__") and name.endswith("__"))
                    or (module == "kfuncs" and not name.startswith("_"))):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(where != module or line not in own for where, line in uses.get(name, [])):
                found.append(qualname)
    return found


def test_every_definition_is_reached_or_kept():
    found = unreached(PACKAGE)
    assert not found, f"reached by no src/ code and not kept: {', '.join(found)}"


def test_shared_names_are_checked_by_hand():
    assert shared_names(PACKAGE) == SHARED


def test_keep_list_sources_are_read():
    assert "odekernel.IVPSolution.__call__" in _tracer_targets()
    assert "lattice.enumerate_near_curve" in _tracer_targets()
    assert {"parabola_curve", "certificate", "holds"} <= _quick_start_names()

