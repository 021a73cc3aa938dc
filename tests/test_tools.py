import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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

    @pytest.mark.parametrize(
        "name, content, message",
        [
            ("nope.py", None, "cannot read {path}: No such file or directory"),
            ("folder", "dir", "cannot read {path}: Is a directory"),
            ("bad.py", b"def f(:\n", "cannot parse {path}: invalid syntax"),
            ("latin.py", b"x = '\xe9'\n", "cannot parse {path}: 'utf-8' codec"),
            ("null.py", b"x = 1\0\n", "cannot parse {path}: source code"),
        ],
        ids=["missing", "directory", "syntax", "not-utf8", "null-byte"],
    )
    def test_unusable_file_exits_one_with_one_line(self, tmp_path, name, content, message):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        cmd = [sys.executable, str(TOOLS / "code_lines.py"), str(path)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("code_lines: " + message.format(path=path))
        assert done.stderr.count("\n") == 1

    def test_missing_definition_exits_one_with_one_line(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text(SNIPPET)
        with pytest.raises(SystemExit) as exc:
            load("code_lines").main([f"{path}::g"])
        assert exc.value.code == "code_lines: no definition 'g'"
