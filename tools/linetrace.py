"""List the statements of the canvdw package that no test executes.

Runs pytest in this process under sys.settrace, recording line events only
in frames whose code lives in src/canvdw, then prints every statement of
those modules whose lines never ran, as path:line: source.  Uses the
standard library and pytest only; it is a tool, not part of the test suite.

    python3 tools/linetrace.py [pytest args]

Extra arguments go to pytest (default: the whole suite, quiet).  Tracing
makes the suite several times slower.  Code run in subprocesses (the
`python -m canvdw` test) is not traced.  Exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "canvdw"


def statement_lines(tree: ast.Module) -> dict[int, set[int]]:
    """Map each statement's first line to the lines whose execution counts
    as running it: a simple statement's whole span, a compound statement's
    header up to its first body statement.  Docstrings, global and
    nonlocal statements compile to no line event and are left out."""
    found: dict[int, set[int]] = {}

    def visit(body: list[ast.stmt]) -> None:
        for i, node in enumerate(body):
            doc = (
                i == 0
                and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            )
            if doc or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            inner = [
                getattr(node, field)
                for field in ("body", "orelse", "finalbody")
                if getattr(node, field, None)
            ] + [h.body for h in getattr(node, "handlers", ())]
            last = min((b[0].lineno for b in inner), default=node.end_lineno + 1) - 1
            found[node.lineno] = set(range(node.lineno, max(node.lineno, last) + 1))
            for b in inner:
                visit(b)

    visit(tree.body)
    return found


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set())
        return local

    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = executed.get(str(path), set())
        for lineno, span in sorted(statement_lines(ast.parse(source)).items()):
            if not span & ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{missed} statements not executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
