"""Import guards: no module but derive_law imports the sampler (``rng``),
the package imports nothing outside the standard library, and no module
of the package or of its tests imports a name it never uses.

Every verify check and every errata finding is a proof on indeterminates,
so a module that imports ``rng`` again samples where it could prove.
derive_law still checks its table against the composition on sampled
points, and its report names their count.  The package is stdlib-only,
but a third-party package installed where the tests run would let an
accidental import of it pass every other test.  No linter ships with the
package, so these tests are the guard.
"""

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "aristotle_orbits"
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [path for path in SOURCES
           if path.name not in ("derive_law.py", "rng.py")]


def _imports(source: str) -> list:
    """(level, dotted name) of every import in ``source``, at any depth; a
    ``from`` import gives its module and each name under it.  Level 0 is
    an absolute import."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names += [(node.level, name) for name in [base] + [
                f"{base}.{alias.name}" for alias in node.names]]
    return names


def _imports_rng(source: str) -> bool:
    """Whether ``source`` imports a module named rng, in any spelling."""
    return any(name.split(".")[-1] == "rng" for _, name in _imports(source))


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_module_does_not_import_the_sampler(path):
    assert not _imports_rng(path.read_text(encoding="utf-8"))


def test_every_spelling_of_the_import_is_found():
    for source in ("from .rng import SplitMix64\n", "from . import rng\n",
                   "from aristotle_orbits.rng import SplitMix64\n",
                   "import aristotle_orbits.rng\n",
                   "def f():\n    from .rng import SplitMix64\n"):
        assert _imports_rng(source), source
    assert not _imports_rng("from .verify import symbols\nimport random\n")
    assert (PACKAGE / "derive_law.py").exists()


def _outside_stdlib(source: str) -> set:
    """The absolute imports of ``source`` outside the standard library."""
    return {name for level, name in _imports(source)
            if level == 0 and name.split(".")[0] not in sys.stdlib_module_names}


def test_every_absolute_import_is_the_standard_library():
    # function-level imports included (``cli`` imports json where it
    # writes JSON); a relative import is the package's own, and
    # ``__future__`` is in ``sys.stdlib_module_names``
    assert {path.name: _outside_stdlib(path.read_text(encoding="utf-8"))
            for path in SOURCES} == {path.name: set() for path in SOURCES}
    assert _outside_stdlib("from __future__ import annotations\n"
                           "import numpy, json\nfrom . import poly\n"
                           "def f():\n    from sympy import S\n") == \
        {"numpy", "sympy", "sympy.S"}


def _unused_imports(source: str) -> set:
    """The names ``source`` imports, at any depth, and never reads; a name
    listed in ``__all__`` is read (a re-export)."""
    tree = ast.parse(source)
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return bound - read


CHECKED = SOURCES + sorted(TESTS.rglob("*.py"))


@pytest.mark.parametrize("path", CHECKED, ids=[
    str(p.relative_to(TESTS.parent)) for p in CHECKED])
def test_module_imports_no_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == set()


def test_every_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path, json as j\nimport a.b\n"
              "from .x import y, z as w, kept\n"
              "__all__ = ['kept']\n"
              "def f():\n    from .m import inner\n    return os.sep\n")
    assert _unused_imports(source) == {"j", "a", "y", "w", "inner"}
    assert _unused_imports("import a.b\nprint(a.b)\n") == set()
