"""Print the lines and the code lines of each module of a package, and their
total.

A code line is a line that is not blank, is not a comment and lies outside
every module, class and function docstring. Run from the repository root:

    python tools/code_lines.py [package directory, default src/panelbayes]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    lines = source.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = sum(1 for number, line in enumerate(lines, start=1)
               if line.strip()[:1] not in ("", "#") and number not in docstrings)
    return len(lines), code


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/panelbayes")
    total_lines = total_code = 0
    print("lines  code  module")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{lines:5d} {code:5d}  {path.name}")
    print(f"{total_lines:5d} {total_code:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
