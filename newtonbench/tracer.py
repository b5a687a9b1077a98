"""Span tracer that rebinds the library's public functions.

Each public function defined in a ``projnewton`` module is replaced by a
wrapper that records a span named ``<module>.<function>``.  Modules
from-import kernel and solver names (``cli``, ``grassmann``, ``lagrange``,
``solvers``, ``newton``, the package itself), so every module-level
binding of a wrapped function is rebound, not just the defining one.
``GrTangent.__post_init__`` (the O(n^3) tangency check run on every
construction) is wrapped as the span ``grassmann.GrTangent``.

Spans are aggregated in memory per span name: calls, total (inclusive)
seconds and self seconds, where self time is the span's duration minus
the time its child spans cover.  Counts per (parent, child) edge are kept
too, which gives the recursive solver's sweep count.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import projnewton

# spans of the benchmark itself: the solve as a whole, and the host-speed
# probe when it interrupts a traced solve
ROOT = "bench.solve"
PROBE = "bench.probe"


class Tracer:
    """Install with ``install()``, restore the library with ``uninstall()``."""

    def __init__(self):
        self.originals = {}  # wrapper -> original function
        self._rebound = []  # (owner, attribute, original)
        self._stack = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)

    def _call(self, name, func, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0]  # span name, child seconds covered
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
                self.edges[(parent[0], name)] += 1

    def _wrap(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self._call(name, func, args, kwargs)

        self.originals[wrapper] = func
        return wrapper

    def call(self, name, func, *args):
        """Call ``func`` under a span of the given name and return its result."""
        return self._call(name, func, args, {})

    def install(self):
        modules = library_modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebound.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        cls = projnewton.grassmann.GrTangent
        original = cls.__post_init__
        self._rebound.append((cls, "__post_init__", original))
        cls.__post_init__ = self._wrap("grassmann.GrTangent", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()


def library_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "projnewton" or name.startswith("projnewton.")) and mod is not None]
