"""tools/code_lines.py, the count of code lines that the size gates rest on."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os

"""A bare string after code is no docstring."""


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,

        with a blank line inside."""
        # another comment
        total = (1 +
                 2 +

                 3)
        text = """not a
docstring"""
        return total, text, os
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path, capsys):
    """Per file and in total: docstrings of the module, a class and a
    function, comment-only and blank lines count for nothing; a
    multi-line expression counts its lines with a token, and a string
    that is no docstring counts every line it spans.  The sample's code
    lines are import, the bare string, class, def, three of the
    expression's four, two of the assigned string's, and return.  Each
    line also gives the file's size in bytes, and the last their sum."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text('"""Only a docstring."""\n# and a comment\n')
    (package / "sample.py").write_text(SAMPLE)
    assert load_tool().main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "     0       40  pkg/__init__.py\n"
        "    10      413  pkg/sample.py\n"
        "    10      453  total\n"
    )
