"""The benchmark's traced surface still exists in the package.

``bench/tracing.py`` wraps the functions it names in ``FUNCTIONS`` and
rebinds default arguments that hold one of them, such as
``reconstruct_law(law=compose)``.  Deleting or renaming any of these
breaks ``bench/run.py --trace 1``; these tests catch it first.  The
tracing module is stdlib-only and is loaded by path.
"""

import importlib
import importlib.util
import types
from pathlib import Path

from aristotle_orbits import derive_law, lie_core

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_package_function():
    tracing = _tracing()
    for module, name in tracing.FUNCTIONS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        assert isinstance(getattr(owner, name, None), types.FunctionType), \
            f"{module}.{name} is traced but not a function of the package"


def test_reconstruct_law_defaults_to_the_traced_compose():
    assert derive_law.reconstruct_law.__defaults__[0] is lie_core.compose
