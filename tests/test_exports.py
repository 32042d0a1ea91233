"""Every name a module exports is there, and every public name it
defines is exported: ``from fuzzycell.X import *`` fails on a stale
``__all__`` entry, and silently drops a public name left out of it.
An exported function is there for a caller in the package or as a
reference the tests check the engine against."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


# Exported functions that no code in the package calls, each with the
# reason it stays.
REFERENCES = {
    "model.reference_step",  # the composed per-vehicle update, for model.step and run_ring
    "model.cell_occupancy",  # per-vehicle reference for model.membership_of_rows
    "model.in_queue_degree",  # per-vehicle reference for model.queue_length_of_rows
    "fuzznum.alpha_cut",  # reference for the flow cut bounds of model._flow_rows
    "fuzznum.oracle_ext_op",  # naive double loop the fuzznum ops are checked against
    "model.flow_summary",  # one state's flows, checked against run_ring and folded sums
    "model.iter_states",  # iter_rows as fuzzy states, which the acceptance tests read
    "simio.dump_scenario",  # the inverse of load_scenario, checked by round trips
}
CHECKED = ("fuzznum", "model", "metrics", "nasch", "simio")


def _uses(source: Path, module: str) -> set[tuple[str, str]]:
    """``(module, name)`` pairs that ``source`` reads: bare names loaded in
    ``module`` itself, names imported ``from .m``, and attributes read
    from a module alias bound by ``from . import m [as alias]``."""
    tree = ast.parse(source.read_text())
    uses, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    uses.add((node.module, alias.name))
                else:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                uses.add((aliases[node.value.id], node.attr))
    return uses


def test_every_exported_function_is_called_or_a_reference():
    # The package __init__ only re-exports, so its imports are not uses.
    root = Path(fuzzycell.__file__).parent
    uses = set()
    for source in root.glob("*.py"):
        if source.name != "__init__.py":
            uses |= _uses(source, source.stem)
    unused = set()
    for name in CHECKED:
        module = importlib.import_module(f"fuzzycell.{name}")
        for attr in module.__all__:
            if inspect.isfunction(getattr(module, attr)) and (name, attr) not in uses:
                unused.add(f"{name}.{attr}")
    assert unused == REFERENCES
