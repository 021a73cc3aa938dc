import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SNIPPET = '''"""Module docstring
over two lines."""
# A comment line.

import os  # a trailing comment


@staticmethod
def f(x):
    """Function docstring."""
    y = (x +
         1)

    text = """not a
docstring"""
    return y


class C:
    """Class docstring."""

    def g(self):
        return os.sep
'''


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCodeLines:
    def test_counts_code_only(self):
        code_lines = load("code_lines")
        # import, decorator, def, the two lines of y, the two of text,
        # return, class, def g, its return.
        assert sorted(code_lines.code_lines(SNIPPET)) == [
            5, 8, 9, 11, 12, 14, 15, 16, 19, 22, 23
        ]

    def test_counts_a_file_or_one_definition(self, tmp_path, capsys):
        code_lines = load("code_lines")
        path = tmp_path / "snippet.py"
        path.write_text(SNIPPET)
        assert code_lines.count(str(path)) == 11
        assert code_lines.count(f"{path}::f") == 7
        assert code_lines.count(f"{path}::C") == 3
        assert code_lines.count(f"{path}::C.g") == 2
        assert code_lines.main([str(path), f"{path}::C.g"]) == 0
        counts = [line.split()[-1] for line in capsys.readouterr().out.splitlines()]
        assert counts == ["11", "2", "13"]
