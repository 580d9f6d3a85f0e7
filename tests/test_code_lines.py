"""The rule of ``code_lines.count``, the line counter of ``src/pwcalc``."""

import subprocess
import sys

import code_lines
from code_lines import code_line_numbers, count, function_code_lines

# a docstring, a comment after code and alone, blank lines, a bare string
# statement, a multi-line string in an expression and a continued
# expression; the code lines are 3, 8 and 11-14
MODULE = '''"""Module docstring,
over two lines."""
import math  # a comment after code

# a comment alone


def f(x):
    """One-line docstring."""
    "a bare string statement"
    text = """a multi-line
string in an expression"""
    return (x +
            math.pi)
'''
CODE_LINES = {3, 8, 11, 12, 13, 14}


def test_each_kind_of_line():
    assert code_line_numbers(MODULE) == CODE_LINES
    assert count(MODULE) == (14, len(CODE_LINES))


def test_empty_and_comment_only_modules():
    assert count("") == (0, 0)
    assert count("# only a comment\n\n") == (2, 0)


def test_main_prints_each_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    total = len(MODULE.splitlines()) + 1
    assert rows == [["a.py", str(total - 1), str(len(CODE_LINES))],
                    ["b.py", "1", "1"],
                    ["total", str(total), str(len(CODE_LINES) + 1)]]


def test_usage_error():
    assert code_lines.main(["a", "b"]) == 2
    assert code_lines.main(["--functions", "a", "b"]) == 2


# a class with a docstring, a method, a decorated method holding a nested
# function, and a function with a comment; the code lines are 1, 4, 6, 8-12,
# 15 and 17, and a function's run from its def line, not its decorator, to
# its last line
FUNCTIONS = '''class A:
    """Docstring."""

    def method(self):
        """Docstring."""
        return 1

    @property
    def prop(self):
        def inner():
            return 2
        return inner()


def f(x):
    # a comment
    return x
'''


def test_function_code_lines():
    assert function_code_lines(FUNCTIONS) == [
        ("A.method", 2), ("A.prop", 4), ("A.prop.inner", 2), ("f", 2)]
    assert function_code_lines(MODULE) == [("f", 5)]
    assert function_code_lines("x = 1\n") == []


def test_main_lists_functions_largest_first(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FUNCTIONS)
    (tmp_path / "b.py").write_text(MODULE)
    assert code_lines.main(["--functions", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["b.py:f", "5"], ["a.py:A.prop", "4"], ["a.py:A.method", "2"],
                    ["a.py:A.prop.inner", "2"], ["a.py:f", "2"]]


def test_a_pipe_closed_after_one_line_ends_quietly(tmp_path):
    # 4,000 rows, far more than the pipe holds, so the script is still
    # writing when the reader goes away, as under "| head -1"
    (tmp_path / "a.py").write_text("".join(f"def f{i}():\n    return {i}\n"
                                           for i in range(4000)))
    with subprocess.Popen([sys.executable, code_lines.__file__, "--functions", str(tmp_path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().split() == [b"a.py:f0", b"2"]
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
