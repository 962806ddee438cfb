"""tools/code_lines.py counts the lines that hold code."""
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''\
"""Module docstring,
two lines."""
import os  # a trailing comment does not hide the code

# a comment line


class Box:
    """Class docstring."""

    size = 3

    def area(self):
        """Function docstring
        over two lines.
        """
        return max(
            self.size,
            os.sep.count("/"),
        )
'''
# the code lines: import, class, size, def, and the four lines of the call
SNIPPET_CODE_LINES = 8


def test_counts_snippet_by_hand():
    assert code_lines.code_lines(SNIPPET) == SNIPPET_CODE_LINES


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n'''a string statement, not a docstring'''\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "2", "10"]
    assert lines[-1].endswith("total")
