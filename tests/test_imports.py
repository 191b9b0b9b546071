"""Every name a module in src/cartoptics imports is used in that module.

A standard-library stand-in for a linter's unused-import rule.  `__init__.py`
is exempt: its imports are the package's re-exports, and every name its
`__all__` lists must resolve.  Imports go at the top of a module unless they
break an import cycle; the one such cycle is signature -> primitives.
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


def function_level_imports(source: str) -> list[str]:
    """"function: import statement" for each import inside a function body."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and function is not None:
                found.append(f"{function}: {ast.unparse(child)}")
            else:
                visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = "import os\nfrom typing import Callable, Iterable\n\ndef f(g: Callable): return os.sep\n"
    assert unused_imports(src) == ["line 2: Iterable"]


def test_only_the_primitives_cycle_is_imported_in_a_function():
    found = {p.name: function_level_imports(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: imports for name, imports in found.items() if imports} == {
        "signature.py": ["parse_signature: from . import primitives"]
    }


def test_function_level_checker_sees_nested_functions():
    src = "import os\n\ndef f():\n    def g():\n        from . import x\n    import json\n"
    assert function_level_imports(src) == ["g: from . import x", "f: import json"]


def test_all_names_resolve():
    import cartoptics

    assert [n for n in cartoptics.__all__ if not hasattr(cartoptics, n)] == []
    assert len(set(cartoptics.__all__)) == len(cartoptics.__all__)
