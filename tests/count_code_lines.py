"""Print the code lines and the raw lines of each module of src/hookchar, and their totals.

A code line holds a token that is neither a comment nor part of a
docstring, so blank lines, comment lines and docstring lines are left
out; a statement or a string that spans lines counts each line it spans.
A raw line is any line of the file, as wc -l counts them.  It gates nothing; run it from the repository root:

    python tests/count_code_lines.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "hookchar"
    total = raw_total = 0
    print(f"{'module':20} {'code':>5} {'raw':>5}")
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        count, raw = code_lines(source), source.count("\n")
        total += count
        raw_total += raw
        print(f"{path.name:20} {count:5} {raw:5}")
    print(f"{'total':20} {total:5} {raw_total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
