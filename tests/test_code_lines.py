"""The code-line counter in tools/ leaves out docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _counter():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_counts_only_lines_that_hold_code():
    source = '''"""Module docstring,
over two lines."""

# a comment
import math


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return math.sqrt(
            x)  # a trailing comment
'''
    # import, class, def, the two lines of the string, the two of the return
    assert _counter()(source) == 7
