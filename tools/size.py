"""Print the size of the antijam package: per module, its line count, its
code lines and its public names, then the totals.

    python3 tools/size.py

Code lines leave out blank lines, comment-only lines and docstrings (every
statement that is a string alone), so that deleting comments does not shrink
the code. A public name is a module-level `def`, `class` or assignment
target, read from the AST, whose name does not start with `_`. Imports are
not counted, so a name re-exported by another module counts once, where it
is defined.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code
_LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


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
    lines, code, total = 0, 0, 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        names = public_names(source)
        count, counted = len(source.splitlines()), code_lines(source)
        lines += count
        code += counted
        total += len(names)
        print(f"{path.name:<16s} {count:4d} lines {counted:4d} code "
              f"{len(names):3d}  {' '.join(names)}")
    print(f"lines {lines}")
    print(f"code lines {code}")
    print(f"public names {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
