"""Every name a module in src/cartoptics imports is used in that module.

A standard-library stand-in for a linter's unused-import rule.  `__init__.py`
is exempt: its imports are the package's re-exports, and every name its
`__all__` lists must resolve.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cartoptics"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[(a.asname or a.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation such as "Term" is a use too
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            used.add(n.value)
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = "import os\nfrom typing import Callable, Iterable\n\ndef f(g: Callable): return os.sep\n"
    assert unused_imports(src) == ["line 2: Iterable"]


def test_all_names_resolve():
    import cartoptics

    assert [n for n in cartoptics.__all__ if not hasattr(cartoptics, n)] == []
    assert len(set(cartoptics.__all__)) == len(cartoptics.__all__)
