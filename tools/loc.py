"""Line counts of the ``navfuse`` modules: total lines and code lines.

    python3 tools/loc.py            # src/navfuse of this tree
    python3 tools/loc.py DIR ...    # the modules of other directories

Prints, per module of each directory, its total lines and its code lines,
then the sums.  A code line holds a token of the program: blank lines,
comment-only lines and the lines of a module's, class's or function's
docstring are not code; the lines of any other string are.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: tokens that make no line code on their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return (len(source.splitlines()),
            len(code - docstring_lines(ast.parse(source))))


def main(argv: list[str] | None = None) -> int:
    dirs = [Path(d) for d in (argv if argv is not None else sys.argv[1:])]
    totals = [0, 0]
    print(f"{'module':<40} {'lines':>6} {'code':>6}")
    for directory in dirs or [ROOT / "src" / "navfuse"]:
        for path in sorted(directory.glob("*.py")):
            lines, code = count(path.read_text(encoding="utf-8"))
            totals[0] += lines
            totals[1] += code
            print(f"{path.name:<40} {lines:>6} {code:>6}")
    print(f"{'total':<40} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
