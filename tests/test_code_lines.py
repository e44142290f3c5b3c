from tools.code_lines import count, main

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line a code line

    # a comment line, indented or not


class Reader:
    """A class docstring."""

    def read(self):
        """A function docstring
        over two lines."""
        """A second string is an expression, so code."""
        return os.sep


async def fetch():
    """An async function docstring."""
    return 1
'''


def test_count_pins_the_definition():
    # 21 lines; the code lines are the import, `class`, `def`, the second
    # string, `return os.sep`, `async def` and `return 1`
    assert count(SOURCE) == (21, 7)


def test_count_of_empty_and_docstring_only_modules():
    assert count("") == (0, 0)
    assert count('"""Only a docstring."""\n') == (1, 0)


def test_main_totals_its_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "   21     7  a.py", "    2     1  b.py", "   23     8  total"]
