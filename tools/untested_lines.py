"""Statements inside siegelflow's functions that the tier-1 tests never run.

    python tools/untested_lines.py [extra pytest arguments]

Runs pytest in this process with the tier-1 arguments (``-q
--continue-on-collection-errors``, then any given here) from the repository
root, with ``src`` first on the path, under ``sys.settrace`` and
``threading.settrace``.  Only frames whose code comes from a file of
``src/siegelflow`` are traced line by line.  It then prints every statement
inside a function, method or nested function of those files that never ran,
as ``path:line: source``, first line of each statement, and the count on stderr.

A statement counts as run when any line of its own ran: its span less the
spans of the statements nested in it.  Docstrings and other constant
expression statements compile to nothing and are left out.

What it cannot see: code run in a subprocess.  The route test
(``tests/test_public_routes.py``) runs the suites and the README's CLI block in
a child interpreter, and two tests of ``tests/test_cli.py`` run the CLI as a
child process (the closed pipe and the import of ``--ode-check``); a statement
that only those reach is listed here as never run.  Code run at import runs
once, before the first test, and is outside any function anyway.

The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "siegelflow"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def _own_lines(stmt: ast.stmt, children: list[ast.stmt]) -> set[int]:
    """The lines of ``stmt``, decorators included, that no statement nested in it covers."""
    start = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
    lines = set(range(start, stmt.end_lineno + 1))
    for child in children:
        lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines or {stmt.lineno}


def _nested(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside a compound statement; none for a def or a class, traced on their own."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    out = []
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for node in getattr(stmt, field, ()):
            out.extend(node.body if isinstance(node, (ast.ExceptHandler, ast.match_case)) else [node])
    return out


def function_statements(path: Path) -> dict[int, set[int]]:
    """{first line: own lines} of every statement inside a function of the file at ``path``."""
    out = {}
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        todo = list(func.body)
        while todo:
            stmt = todo.pop()
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            children = _nested(stmt)
            out[stmt.lineno] = _own_lines(stmt, children)
            todo.extend(children)
    return out


def main(argv: list[str]) -> int:
    import pytest

    ran = {str(p): set() for p in PACKAGE.glob("*.py")}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in ran else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(TIER1_ARGS + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for first, lines in sorted(function_statements(path).items()):
            if not lines & ran[str(path)]:
                missed.append(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} statements never ran", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
