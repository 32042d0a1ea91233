"""Every name a module exports is there, and every public name it
defines is exported: ``from fuzzycell.X import *`` fails on a stale
``__all__`` entry, and silently drops a public name left out of it."""

import importlib
import inspect
import pkgutil

import fuzzycell


def _modules():
    names = ["fuzzycell"] + [
        f"fuzzycell.{info.name}"
        for info in pkgutil.iter_modules(fuzzycell.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    return [importlib.import_module(name) for name in names]


def test_every_all_entry_resolves():
    checked = 0
    for module in _modules():
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{module.__name__}.__all__ names missing {attr!r}"
            checked += 1
    assert checked > 0


def test_every_public_definition_is_in_all():
    defined, missing = 0, []
    for module in _modules():
        if module.__name__ == "fuzzycell.cli":  # a command line, with no __all__
            continue
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and (inspect.isfunction(value) or inspect.isclass(value))
                and value.__module__ == module.__name__
            ):
                defined += 1
                if attr not in module.__all__:
                    missing.append(f"{module.__name__}.{attr}")
    assert defined > 0
    assert missing == []
