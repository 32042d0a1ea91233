"""Outside-in tracer for the fuzzycell benchmark.

The tracer replaces each public function of every loaded ``fuzzycell``
module by a wrapper that records a span.  The wrapper is bound at every
module attribute that refers to the function, not only where it is
defined, because callers resolve names in their own module: ``metrics``
calls ``run_ring`` through ``metrics.run_ring``, ``model.iter_states``
calls ``step`` through the ``model`` globals, and the package
``__init__`` re-exports most names.

A span is ``[name, start, end, parent, tag, count, extra]``: the parent
is the index of the enclosing span (-1 at the top), ``count`` is the
number of calls the span stands for (more than one for a batch span the
benchmark opens around a loop of calls), and ``extra`` holds what an
observer read off the arguments and the result.  Spans stay in memory
until the traced run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, TAG, COUNT, EXTRA = range(7)


def now() -> float:
    """CLOCK_MONOTONIC seconds; comparable between processes on one host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def package_modules(package: str = "fuzzycell") -> list:
    """The loaded modules of ``package``, the package itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def public_functions(modules) -> list[tuple[str, object]]:
    """(``layer.name``, function) for every public function a module defines."""
    out = []
    for mod in modules:
        if "." not in mod.__name__:
            continue
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, value in sorted(vars(mod).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod.__name__
            ):
                out.append((f"{layer}.{attr}", value))
    return out


def rebind(old, new, modules) -> list[tuple[object, str]]:
    """Point every module attribute that refers to ``old`` at ``new``."""
    hits = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                hits.append((mod, attr))
    return hits


def restore(bindings) -> None:
    """Undo :func:`rebind` calls given as (original, hits) pairs."""
    for func, hits in bindings:
        for mod, attr in hits:
            setattr(mod, attr, func)


class Tracer:
    """Records spans around calls into the program's public functions.

    ``observers`` maps a span name to ``f(args, kwargs, result) -> dict``;
    the dict is stored on the span as its ``extra``.
    """

    def __init__(self, observers=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._observers = observers or {}
        self._bindings: list = []

    def install(self, package: str = "fuzzycell") -> None:
        modules = package_modules(package)
        for name, func in public_functions(modules):
            self._bindings.append((func, rebind(func, self._wrap(name, func), modules)))

    def uninstall(self) -> None:
        restore(self._bindings)
        self._bindings = []

    def _wrap(self, name, func):
        observe = self._observers.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name, None, 1)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span[EXTRA] = observe(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, tag=None, count: int = 1):
        """A span the benchmark opens itself, e.g. around a batch of calls."""
        span = self._open(name, tag, count)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name, tag, count):
        span = [name, now(), 0.0, self._stack[-1] if self._stack else -1, tag, count, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = now()
        self._stack.pop()


def summarize(spans) -> dict:
    """Per (name, tag): calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (one thread).
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    stats: dict = {}
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        entry = stats.setdefault((span[NAME], span[TAG]), {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += span[COUNT]
        entry["s"] += duration
        entry["self_s"] += duration - child[i]
    return stats
