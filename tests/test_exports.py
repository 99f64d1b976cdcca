"""Every name a module lists in ``__all__`` exists.  A stale entry fails no
other test: only ``from adaterm import *`` would raise on it."""

import importlib
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
