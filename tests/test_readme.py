"""The python examples of README.md run, and their printed values hold.

Every python block runs in order, in one namespace.  A statement that is
an expression on one line with a trailing ``# <value>`` comment is
checked: str or repr of its value must equal the comment's text up to
the first double space (what follows is a remark).
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def _expected(line, stmt):
    """The value a one-line expression statement's comment states, else None."""
    if not isinstance(stmt, ast.Expr) or stmt.lineno != stmt.end_lineno:
        return None
    rest = line[stmt.end_col_offset:].strip()
    if not rest.startswith("# "):
        return None
    return rest[2:].split("  ")[0].strip()


def test_readme_examples_hold():
    namespace = {}
    checked = 0
    for block in _blocks():
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            want = _expected(lines[stmt.lineno - 1], stmt)
            if want is None:
                exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
                continue
            got = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            assert want in (str(got), repr(got)), (lines[stmt.lineno - 1], got)
            checked += 1
    assert checked >= 10
