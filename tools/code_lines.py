"""Count the code lines of Python files.

A code line is a physical line that holds part of a token other than a
comment, and that lies outside the module's, a class's or a function's
docstring.  Blank lines, comment lines and docstrings do not count; a
line that continues a bracketed expression or a multi-line string that is
not a docstring does.  This is the count the ROADMAP quotes for module
and function sizes.

Usage::

    python tools/code_lines.py src/wfuse/gate.py src/wfuse/rng.py
    python tools/code_lines.py src/wfuse/simulate.py::run_similar_sizes

An argument ``FILE::NAME`` counts only the lines of the function or class
``NAME`` (dotted for a method, as in ``Class.method``), its decorators
included.  The script prints one line per argument and then the total.
A file that cannot be read or parsed, like a missing ``NAME``, ends it
with one line on stderr and exit status 1.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> set[int]:
    """The numbers of the code lines of ``source``, counted from 1."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstrings


def _span(source: str, name: str) -> range:
    """The lines of the definition ``name`` (dotted for nested ones)."""
    scope = ast.parse(source)
    for part in name.split("."):
        scope = next(
            (
                node
                for node in scope.body
                if isinstance(node, _SCOPES[1:]) and node.name == part
            ),
            None,
        )
        if scope is None:
            raise SystemExit(f"code_lines: no definition {name!r}")
    first = min([scope.lineno] + [d.lineno for d in scope.decorator_list])
    return range(first, scope.end_lineno + 1)


def count(target: str) -> int:
    """The code lines of ``FILE`` or of ``FILE::NAME``."""
    path, _, name = target.partition("::")
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        lines = code_lines(source)
    except OSError as exc:
        raise SystemExit(f"code_lines: cannot read {path}: {exc.strerror}") from None
    except (SyntaxError, ValueError) as exc:  # ValueError: not UTF-8, or a null byte
        raise SystemExit(f"code_lines: cannot parse {path}: {exc}") from None
    if name:
        lines &= set(_span(source, name))
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py FILE[::NAME]...", file=sys.stderr)
        return 2
    counts = [(target, count(target)) for target in argv]
    width = max(len(target) for target, _ in counts)
    for target, lines in counts:
        print(f"{target:<{width}}  {lines:>6}")
    print(f"{'total':<{width}}  {sum(lines for _, lines in counts):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
