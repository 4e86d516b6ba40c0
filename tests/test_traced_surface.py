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
from collections import Counter
from pathlib import Path

from aristotle_orbits import cli, derive_law, errata, lie_core, verify

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


def _counting(calls: Counter, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_report_commands_reach_the_swapped_functions(monkeypatch, capsys):
    traced = ((verify, "run_suite"), (errata, "build_report"),
              (derive_law, "reconstruct_law"),
              (derive_law, "verify_reconstruction"))
    calls = Counter()
    for module, name in traced:
        monkeypatch.setattr(module, name, _counting(
            calls, f"{module.__name__}.{name}", getattr(module, name)))
    for argv in (["verify", "--samples", "1"], ["errata"],
                 ["derive-law", "--samples", "1"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert set(calls) == {f"{module.__name__}.{name}"
                          for module, name in traced}
