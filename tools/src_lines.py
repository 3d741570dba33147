"""Line counts of the package's modules: physical, docstring, comment-only, blank and code.

    python3 tools/src_lines.py             # the working tree's src/palettesparse
    python3 tools/src_lines.py HEAD~1      # the modules as committed at a revision
    python3 tools/src_lines.py HEAD~1 .    # code and physical lines at both, and B - A

A revision of `.` is the working tree. With two revisions, a module that
one of them lacks counts 0 lines there.

A docstring line is one of the lines that a module's, class's or
function's docstring spans (blank lines inside it too); a comment-only
line holds nothing but a comment; a blank line holds only whitespace.
Every other line is a code line, so source size read as code lines is not
moved by docstrings or comments. Only the standard library is used; a
revision is read with `git show REV:path`.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/palettesparse"
COLUMNS = ("physical", "docstring", "comment", "blank", "code")


def sources(rev: str | None) -> dict[str, str]:
    """Module file name -> text, from the working tree (None or `.`) or from `rev`."""
    if rev in (None, "."):
        return {p.name: p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = subprocess.run(["git", "ls-tree", "--name-only", f"{rev}:{PACKAGE}"], cwd=ROOT,
                           check=True, capture_output=True, text=True).stdout.split()
    return {name: subprocess.run(["git", "show", f"{rev}:{PACKAGE}/{name}"], cwd=ROOT,
                                 check=True, capture_output=True, text=True).stdout
            for name in sorted(names) if name.endswith(".py")}


def count(text: str) -> dict[str, int]:
    """The line counts of one module's text."""
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    out = dict.fromkeys(COLUMNS, 0)
    out["physical"] = len(lines)
    for i, line in enumerate(lines, 1):
        kind = "docstring" if i in doc else "blank" if not line.strip() else \
            "comment" if line.lstrip().startswith("#") else "code"
        out[kind] += 1
    return out


def counts(rev: str | None) -> dict[str, dict[str, int]]:
    """Module file name -> its line counts, and "total" -> their sums."""
    rows = {name: count(text) for name, text in sources(rev).items()}
    rows["total"] = {c: sum(r[c] for r in rows.values()) for c in COLUMNS}
    return rows


def main(argv: list[str]) -> None:
    if len(argv) > 2:
        sys.exit("usage: src_lines.py [REV_A [REV_B]]")
    if len(argv) < 2:
        rows = counts(argv[0] if argv else None)
        header, cells = COLUMNS, {name: [r[c] for c in COLUMNS] for name, r in rows.items()}
    else:
        a, b = map(counts, argv)
        zero = dict.fromkeys(COLUMNS, 0)
        names = sorted((set(a) | set(b)) - {"total"}) + ["total"]
        header = [f"{c} {x}" for c in ("code", "physical") for x in ("A", "B", "B-A")]
        cells = {}
        for name in names:
            ra, rb = a.get(name, zero), b.get(name, zero)
            cells[name] = [v for c in ("code", "physical") for v in (ra[c], rb[c], rb[c] - ra[c])]
        print(f"A = {argv[0]}, B = {argv[1]}")
    width = max(map(len, cells))
    print(f"{'module':<{width}}" + "".join(f"{c:>13}" for c in header))
    for name, row in cells.items():
        print(f"{name:<{width}}" + "".join(f"{v:>13,}" for v in row))


if __name__ == "__main__":
    main(sys.argv[1:])
