"""What the benchmark needs of the package by name.

``bench/sample.py`` stamps the start of the simulated work on the first
call to each ``layer.name`` in its ``ENGINE`` tuple, found among the
public functions of ``fuzzycell.<layer>``, and its traced observers read
the arguments of those calls and the ``runs`` and ``steps`` of the
ensemble ``nasch.monte_carlo`` returns.  Its ``fuzzy_ops`` workload
calls ``fuzznum`` and ``model`` functions directly.  A rename, a
deletion or a changed signature there would fail every benchmark sample
and no other test.
"""

import ast
import importlib
import inspect
from pathlib import Path

from conftest import queue_state
from fuzzycell import nasch

SAMPLE = Path(__file__).resolve().parents[1] / "bench" / "sample.py"

# the parameters the benchmark's observers read, by position or by name
SIGNATURES = {
    "model.step": ["state"],
    "model.run_ring": ["state", "steps", "theta"],
    "nasch.monte_carlo": ["initial", "steps", "runs", "base_seed"],
}


def _engine_names():
    for node in ast.parse(SAMPLE.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ENGINE"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENGINE tuple in {SAMPLE}")


def test_engine_entry_points_are_public_functions():
    names = _engine_names()
    assert sorted(names) == sorted(SIGNATURES)
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"fuzzycell.{layer}")
        func = getattr(module, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(func), name
        assert func.__module__ == module.__name__, name  # defined there, not imported
        assert list(inspect.signature(func).parameters) == SIGNATURES[name], name


def test_monte_carlo_result_has_runs_and_steps():
    ensemble = nasch.monte_carlo(queue_state(3, 20), 4, 2, 0)
    assert (ensemble.runs, ensemble.steps) == (2, 4)


def test_every_package_attribute_the_sample_reads_exists():
    tree = ast.parse(SAMPLE.read_text())
    modules = {
        alias.asname or alias.name: importlib.import_module(f"fuzzycell.{alias.name}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "fuzzycell"
        for alias in node.names
    }
    assert {"cli", "fuzznum", "model"} <= set(modules)
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {mod for mod, _ in read} == set(modules)  # the walk sees every module
    missing = [f"{mod}.{attr}" for mod, attr in sorted(read) if not hasattr(modules[mod], attr)]
    assert missing == []
