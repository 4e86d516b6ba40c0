"""No module defines a top-level function or class twice.

Python keeps only the last definition of a name, so an earlier copy of a
test never runs and an earlier copy of a helper is dead code.  No linter
ships with the package, so this test is the guard.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("src/**/*.py")])
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _redefined(source: str) -> list:
    """(name, line) of each module-level definition that repeats a name
    defined above it."""
    seen, again = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, DEFINITIONS):
            if node.name in seen:
                again.append((node.name, node.lineno))
            seen.add(node.name)
    return again


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_module_level_name_is_defined_twice(path):
    assert _redefined(path.read_text(encoding="utf-8")) == []


def test_a_second_definition_is_found():
    source = "def f():\n    pass\n\nclass C:\n    pass\n\ndef f():\n    pass\n"
    assert _redefined(source) == [("f", 7)]
    assert _redefined("def f():\n    def f():\n        pass\n") == []
