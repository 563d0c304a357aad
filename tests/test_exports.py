"""The public names: every ``__all__`` entry resolves, and the package
re-exports exactly the names of its library modules, as the same
objects.  Tooling such as the benchmark's tracer looks up every
``__all__`` entry by name and swaps each function in every namespace
that binds the identical object."""

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


def test_package_names_are_the_defining_modules_objects():
    owners = {}
    for name in LIBRARY:
        module = importlib.import_module(f"volterrabound.{name}")
        owners.update({export: module for export in module.__all__})
    for name in volterrabound.__all__:
        if name != "__version__":
            assert getattr(volterrabound, name) is getattr(owners[name], name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from volterrabound import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(volterrabound.__all__)
