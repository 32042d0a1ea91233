"""Every name a module exports is there: ``from fuzzycell.X import *``
fails on a stale ``__all__`` entry."""

import importlib
import pkgutil

import fuzzycell


def test_every_all_entry_resolves():
    names = ["fuzzycell"] + [
        f"fuzzycell.{info.name}"
        for info in pkgutil.iter_modules(fuzzycell.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"
            checked += 1
    assert checked > 0
