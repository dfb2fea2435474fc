"""The size figures of a source tree: lines, defaulted parameters and
defaulted dataclass fields.

Run by hand (pytest does not collect it):

    python tests/src_size.py [SRC ...]

For each `src` directory given (default: the `src` beside this file's
`tests`), the script prints three numbers over `SRC/affinecurves/*.py`:
the line count (as `wc -l` gives it), the parameters with a default
value over every `def`, and the annotated fields with a default value
(`= ...` or `= field(...)`) of every `@dataclass` class.  To compare a
change with its parent:

    git archive <parent> | tar -x -C /tmp/parent
    python tests/src_size.py /tmp/parent/src src
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def size(src: Path) -> tuple[int, int, int]:
    """(lines, defaulted def parameters, defaulted dataclass fields)."""
    lines = params = fields = 0
    for path in sorted((src / "affinecurves").glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                              for s in node.body)
    return lines, params, fields


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src"]
    print(f"{'src':<40} {'lines':>6} {'def defaults':>13} {'field defaults':>15}")
    for root in roots:
        lines, params, fields = size(root)
        print(f"{str(root):<40} {lines:>6} {params:>13} {fields:>15}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
