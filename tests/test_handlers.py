"""No handler in src/cartoptics catches a fault as if it were a failed check.

A TypeError other than TermTypeError is a bug in this package, and so is an
Exception the package did not raise on purpose.  A handler that names
TypeError, Exception or BaseException (or catches everything) would turn such
a bug into a law failure or an input error.  The one allowed is the last
handler of `cli.main`, which reports it as an internal error (exit 3).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cartoptics"
BROAD = {"TypeError", "Exception", "BaseException"}


def broad_handlers(source: str) -> list[str]:
    """"function: except ..." for each handler that catches a broad type; "(last)" if it ends its try."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            handlers = getattr(child, "handlers", [])
            for k, h in enumerate(handlers):
                names = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
                if h.type is None or any(isinstance(n, ast.Name) and n.id in BROAD for n in names):
                    caught = "except" if h.type is None else f"except {ast.unparse(h.type)}"
                    found.append(f"{function}: {caught}" + (" (last)" if k == len(handlers) - 1 else ""))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(source), None)
    return found


def test_only_the_cli_reports_faults():
    found = {p.name: broad_handlers(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: handlers for name, handlers in found.items() if handlers} == {
        "cli.py": ["main: except Exception (last)"]
    }


def test_checker_sees_tuples_bare_handlers_and_nested_functions():
    src = (
        "def f():\n"
        "    try:\n        pass\n"
        "    except (KeyError, TypeError):\n        pass\n"
        "    except ValueError:\n        pass\n"
        "    def g():\n"
        "        try:\n            pass\n"
        "        except:\n            pass\n"
        "try:\n    pass\n"
        "except BaseException:\n    pass\n"
    )
    assert broad_handlers(src) == [
        "f: except (KeyError, TypeError)",
        "g: except (last)",
        "None: except BaseException (last)",
    ]
