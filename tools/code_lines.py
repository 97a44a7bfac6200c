"""Count the code lines of the package: the lines of src/ that hold a token
other than a comment, a docstring or layout.

Usage: python tools/code_lines.py [ROOT]   (ROOT defaults to src/)

Prints one line per file, its code lines and its source bytes, and the two
totals.  Bytes count on their own: a process that imports the package
with no cached bytecode compiles every byte.  A docstring is the string
that opens a module, class or function body (ast.get_docstring's string);
its lines do not count, and neither do blank or comment-only lines.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total = total_bytes = 0
    for path in sorted(root.rglob("*.py")):
        n, size = code_lines(path), path.stat().st_size
        total += n
        total_bytes += size
        print(f"{n:6d}  {size:7d}  {path.relative_to(root)}")
    print(f"{total:6d}  {total_bytes:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
