"""No module but derive_law imports the sampler (``rng``).

Every verify check and every errata finding is a proof on indeterminates,
so a module that imports ``rng`` again samples where it could prove.
derive_law still checks its table against the composition on sampled
points, and its report names their count.  No linter ships with the
package, so this test is the guard.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aristotle_orbits"
MODULES = sorted(path for path in PACKAGE.rglob("*.py")
                 if path.name not in ("derive_law.py", "rng.py"))


def _imports_rng(source: str) -> bool:
    """Whether ``source`` imports a module named rng, in any spelling."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return any(name.split(".")[-1] == "rng" for name in names)


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
