"""The public names: every ``__all__`` entry resolves, and the package
re-exports exactly the names of its library modules.  Tooling such as
the benchmark's tracer looks up every ``__all__`` entry by name."""

import importlib

import volterrabound

LIBRARY = ("expr", "model", "solver", "certificate", "comparison")
MODULES = LIBRARY + ("cli", "ioutil")


def test_every_export_resolves():
    for module in [volterrabound] + [importlib.import_module(f"volterrabound.{m}") for m in MODULES]:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_reexports_exactly_the_library_names():
    library = set()
    for name in LIBRARY:
        exports = importlib.import_module(f"volterrabound.{name}").__all__
        assert len(set(exports)) == len(exports), name
        library |= set(exports)
    assert len(set(volterrabound.__all__)) == len(volterrabound.__all__)
    assert set(volterrabound.__all__) - {"__version__"} == library
