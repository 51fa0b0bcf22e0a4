#!/usr/bin/env python3
"""Count the lines of src/ and tests/ by kind: code, docstring, comment, blank.

A docstring line is any line of a module, class or function docstring, found
with ``ast``; a comment line holds only a ``#`` comment; a blank line is empty
outside a docstring; every other line is code.  The four counts add up to the
file's line count.

Usage: python tools/src_lines.py [ROOT]   (ROOT defaults to this checkout)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
TREES = ("src", "tests")


def docstring_lines(tree: ast.AST) -> set[int]:
    """1-based numbers of the lines spanned by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_file(path: Path) -> dict[str, int]:
    """Line counts of one Python file, by kind."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def count_tree(root: Path) -> dict[str, int]:
    """Summed line counts of every ``*.py`` file under ``root``."""
    total = dict.fromkeys(KINDS, 0)
    for path in sorted(root.rglob("*.py")):
        for kind, n in count_file(path).items():
            total[kind] += n
    return total


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    print(f"{'tree':<6} {'total':>6} " + " ".join(f"{k:>9}" for k in KINDS))
    for name in TREES:
        counts = count_tree(root / name)
        print(f"{name:<6} {sum(counts.values()):>6} "
              + " ".join(f"{counts[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
