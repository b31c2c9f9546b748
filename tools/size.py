"""Print the size of the antijam package: per module, its line count and its
public names, then the totals.

    python3 tools/size.py

A public name is a module-level `def`, `class` or assignment target, read
from the AST, whose name does not start with `_`. Imports are not counted,
so a name re-exported by another module counts once, where it is defined.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def public_names(source: str) -> list:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if not name.startswith("_")]


def main() -> int:
    package = Path(__file__).resolve().parent.parent / "src" / "antijam"
    lines, total = 0, 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        names = public_names(source)
        count = len(source.splitlines())
        lines += count
        total += len(names)
        print(f"{path.name:<16s} {count:4d} lines {len(names):3d}  {' '.join(names)}")
    print(f"lines {lines}")
    print(f"public names {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
