"""Count the lines and code lines of each module of ``src/pwcalc``.

Usage::

    python tests/code_lines.py [--functions] [DIR]

Prints one row per ``*.py`` file of ``DIR`` (default ``src/pwcalc`` next
to this directory) and the totals. A code line holds a token other than a
comment, a newline, an indent or a dedent, and lies outside every string
expression statement (a docstring, or a bare string used as a comment).
A token that spans several lines, such as a multi-line string in an
expression, makes each of them a code line. With ``--functions`` it
prints instead one row per function and method, ``file:qualified.name``,
largest first: the code lines from its ``def`` line to its last line,
so a nested function counts in its own row and in its enclosing one.
When the reader closes the pipe early, as ``| head`` does, it stops
quietly with status 1. Not a test module: pytest does not collect it.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pwcalc"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_line_numbers(text: str) -> set[int]:
    """The numbers, from 1, of the code lines of the Python source
    ``text``."""
    strings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            strings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return code - strings


def count(text: str) -> tuple[int, int]:
    """``(lines, code_lines)`` of the Python source ``text``."""
    return len(text.splitlines()), len(code_line_numbers(text))


def function_code_lines(text: str) -> list[tuple[str, int]]:
    """``(qualified name, code lines)`` of every function and method of the
    Python source ``text``, in source order, nested ones included."""
    code = code_line_numbers(text)
    rows = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    span = range(child.lineno, child.end_lineno + 1)
                    rows.append((name, len(code.intersection(span))))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(text), "")
    return rows


def main(argv) -> int:
    functions = "--functions" in argv
    argv = [arg for arg in argv if arg != "--functions"]
    if len(argv) > 1:
        print("usage: python tests/code_lines.py [--functions] [DIR]", file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else SRC
    if functions:
        rows = [(f"{path.name}:{name}", code) for path in sorted(root.glob("*.py"))
                for name, code in function_code_lines(path.read_text())]
        for name, code in sorted(rows, key=lambda row: (-row[1], row[0])):
            print(f"{name:<50} {code:>6}")
        return 0
    total_lines = total_code = 0
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull, so that the
        # interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
