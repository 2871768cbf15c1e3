"""Call counting and timing of the helfrich package, applied from outside.

A module that does ``from .mesh import validate`` holds its own reference to
the function, so patching ``helfrich.mesh.validate`` alone misses its calls.
``Tracer.install`` therefore replaces the function under every name that
binds it in any loaded ``helfrich`` module, which is the namespace each caller
looks it up in.  A target that no longer exists is recorded in ``absent``
rather than raising, so a later change that removes or renames a function
shows up as a zero count with a note.

Each wrapped call and each explicit ``span`` adds to per-key totals: calls,
inclusive seconds, and self seconds (inclusive minus the time of wrapped
calls and spans nested inside it).
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Stand-in used when tracing is off: spans cost one attribute lookup."""

    _null = nullcontext()

    def span(self, key):
        return self._null


class Tracer:
    def __init__(self):
        self.stats = {}      # key -> [calls, inclusive_s, self_s]
        self.absent = []     # "module.attr" targets that do not exist
        self._stack = []     # child seconds of each open call or span
        self._undo = []

    def _record(self, key, dt, child):
        if self._stack:
            self._stack[-1] += dt
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dt
        st[2] += dt - child

    @contextmanager
    def span(self, key):
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self._record(key, dt, self._stack.pop())

    def _wrap(self, fn, key):
        stack = self._stack
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                record(key, dt, stack.pop())

        return wrapper

    def install(self, targets):
        """Wrap each (key, module, attr) target; attr may be 'Class.method'."""
        for key, module, attr in targets:
            owner = importlib.import_module(f"helfrich.{module}")
            *cls_path, name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(fn, key)
            if cls_path:         # a method: callers reach it through the class
                self._patch(owner, name, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if mod is None or not (mod.__name__ == "helfrich"
                                       or mod.__name__.startswith("helfrich.")):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, bound, wrapper)

    def _patch(self, owner, name, wrapper):
        self._undo.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, wrapper)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:         # was inherited, not defined there
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def take(self):
        """Return the totals so far and start new ones."""
        stats, self.stats = self.stats, {}
        return stats
