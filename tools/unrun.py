"""List the statements of `src/cartoptics` that a pytest run never executes.

    python tools/unrun.py                          # the whole tier-1 suite
    python tools/unrun.py -q tests/test_twocell.py # any pytest arguments

Pytest runs in this process, with this checkout's `src/` first on the path,
under a `sys.settrace` tracer (stdlib only) that records the lines run in
frames whose code lives in `src/cartoptics`; frames of other files are not
traced line by line.  Afterwards each statement of the package that ran on
none of its lines is printed as `module.py:LINE: text`, its first line, in
file order.  Definitions (`def`, `class`), imports, docstrings and other
bare constants, and annotations without a value are left out: they do no
work of their own.  A compound statement counts as run when its header ran,
so a branch whose body never ran shows as that body's statements.

The exit code is pytest's, so a failing run is not mistaken for coverage.
Tracing makes the suite several times slower; timing tests may fail under it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cartoptics"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(source: str) -> list[tuple[int, range]]:
    """Each statement that does work: its first line, and the lines any of which shows it ran."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(end, node.lineno) + 1)))
    return sorted(out)


def unrun(ran: dict[str, set[int]]) -> list[str]:
    """`module.py:LINE: text` for every statement of the package that ran on none of its lines."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, seen = source.splitlines(), ran.get(str(path), set())
        for first, span in statements(source):
            if seen.isdisjoint(span):
                out.append(f"{path.name}:{first}: {lines[first - 1].strip()}")
    return out


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen = ran.setdefault(name, set())

        def lines(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return lines

        seen.add(frame.f_lineno)
        return lines

    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    report = unrun(ran)
    print("\n".join(report))
    print(f"{len(report)} statements of src/cartoptics never ran", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
