"""The README's Python examples run as written, in order, and show what
they compute.

Each ```` ```python ```` block of the README runs in one namespace, after
the blocks before it. A bare expression whose comment starts like a
value (``rep.x  # array([1., 2.])``) must print that value: its comment
starts with the value's ``repr``. Any other comment is prose.
"""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# comments that state a value rather than describe one
_VALUE_START = re.compile(r"array\(|[\[({'\"\d-]|True|False|None")


def _python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_run_in_order_and_show_their_values():
    blocks = _python_blocks()
    assert blocks
    namespace = {"__name__": "readme"}
    shown = 0
    for k, block in enumerate(blocks):
        name = f"README.md python block {k}"
        lines = block.splitlines()
        for stmt in ast.parse(block, name).body:
            code = ast.Module(body=[stmt], type_ignores=[])
            if not isinstance(stmt, ast.Expr):
                exec(compile(code, name, "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), name, "eval"),
                         namespace)
            comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:]
            comment = comment.strip().removeprefix("#").strip()
            if _VALUE_START.match(comment):
                assert comment.startswith(repr(value)), (name, comment)
                shown += 1
    assert shown
