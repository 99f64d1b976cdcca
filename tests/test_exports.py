"""Every name a module lists in ``__all__`` exists, and is defined there.  A
stale entry fails no other test: only ``from adaterm import *`` would raise
on it."""

import importlib
import inspect
import pkgutil

import pytest

import adaterm

# ``__main__`` runs the CLI when imported, and exports nothing.
MODULES = ["adaterm"] + [
    f"adaterm.{info.name}" for info in pkgutil.iter_modules(adaterm.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "adaterm"])
def test_exported_names_are_defined_where_exported(name):
    # Each function or class has one home: a module lists in ``__all__`` only
    # what it defines, and callers import a name from that module.  The
    # package itself is exempt: it serves the names its users start from.
    module = importlib.import_module(name)
    foreign = [n for n in getattr(module, "__all__", ())
               if (inspect.isfunction(obj := getattr(module, n)) or inspect.isclass(obj))
               and obj.__module__ != name]
    assert not foreign, f"{name}.__all__ lists names defined elsewhere: {foreign}"
