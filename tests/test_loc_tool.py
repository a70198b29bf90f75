"""tools/loc.py: code lines without docstrings, comments and blank lines."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "loc.py"

spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

# 9 code lines: the import, the constant, the two-line call, the class
# line, its attribute, the def line and both lines of its string
FIXTURE = '''"""Module docstring,
over two lines."""
import math

# a comment alone

LIMIT = math.sqrt(2.0)  # a comment after code
PAIR = max(1,
           2)


class Box:
    """Class docstring."""
    size = 3

    def text(self):
        """Function
        docstring."""
        return """a string
that is not a docstring"""
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    assert loc.code_lines(FIXTURE) == 9
    assert loc.code_lines("") == 0
    assert loc.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_the_tool_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\ny = [x,\n     x]\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["3", "a.py"], ["9", "b.py"], ["12", "total"]]
