"""README's library quick start runs as written and gives the values its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The first ``python`` block under README's "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_quick_start_runs_and_each_commented_value_holds():
    # Statements run in order; each bare expression whose comment opens
    # with a literal ("# 17", "# True: ...") must evaluate to it.
    source = _quick_start()
    lines = source.splitlines()
    namespace, checked = {}, []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(compile(code, str(README), "exec"), namespace)
            continue
        comment = re.match(r".*#\s*([^\s,:]+)", lines[node.end_lineno - 1])
        expected = ast.literal_eval(comment.group(1))
        got = eval(compile(code, str(README), "eval"), namespace)
        assert got == expected, f"{code}: {got!r}, the README says {expected!r}"
        checked.append(expected)
    assert checked == [17, 17, 17, 17, True]
