"""``tools/loc.py``'s rule on a small synthetic module: blank lines,
comment-only lines and module, class and function docstrings are not code;
any other string's lines, and a line with code and a comment, are."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math  # code with a comment


class Thing:
    """Class docstring."""

    #: an attribute comment
    size = 2

    def area(self):
        """Function
        docstring."""

        text = """a string that
is no docstring"""
        return math.pi * self.size ** 2


async def later():
    """An async function's docstring."""
    return 1
'''


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "loc_tool", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_code_lines():
    tool = load_tool()
    # code: import, class, size, def, text (2 lines), return, async def,
    # return
    assert tool.count(SOURCE) == (len(SOURCE.splitlines()), 9)


def test_sums_the_modules_of_a_directory(tmp_path, capsys):
    tool = load_tool()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["a.py", str(len(SOURCE.splitlines())), "9"],
                        ["b.py", "3", "1"],
                        ["total", str(len(SOURCE.splitlines()) + 3), "10"]]
