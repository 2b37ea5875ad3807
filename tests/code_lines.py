"""Count the code lines of a Python package: every line that holds a token of
code, leaving out blank lines, comments and docstrings (a string literal that
opens a module, class or function body). A statement spread over several
lines counts each line it spans that holds a token of its own.

Run `python tests/code_lines.py [DIR] [--max N]` (default `src/revaudit`) to
print the count per file and the total. With `--max N` it exits 1 when the
total exceeds N; without it, it only reports.
"""

import argparse
import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of a Python package.")
    parser.add_argument("root", nargs="?", default="src/revaudit", type=Path)
    parser.add_argument("--max", type=int, help="exit 1 when the total exceeds this many lines")
    args = parser.parse_args(argv[1:])
    total = 0
    for path in sorted(args.root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total code lines")
    if args.max is not None and total > args.max:
        print(f"{total} code lines exceed the maximum of {args.max}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
