"""Count the code lines of each module of src/diracstep, and in total.

A code line is a line that holds a token other than a comment, a docstring
or the layout tokens (newlines, indents): blank lines, comment lines and
docstring lines do not count, and a statement or string that spans several
lines counts each of them.  Stdlib only:

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/diracstep next to this script's directory.
"""

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    package = argv[0] if argv else os.path.join(here, os.pardir, "src", "diracstep")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                n = code_lines(f.read())
            total += n
            print(f"{name:<16}{n:>6,}")
    print(f"{'total':<16}{total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
