"""Call tracing of rkwso from outside the package.

`Tracer.install` replaces every public function of every rkwso module, and
the methods listed in METHODS, by a wrapper that records the call count,
the span (wall time from call to return) and the self time (span minus the
spans of traced calls made inside it).  A function bound into another
module's namespace by `from .x import y` is replaced there too, so calls
between modules are seen.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time

METHODS = {"linalg": {"Eliminator": ("add", "residual", "contains")}}


class Tracer:
    def __init__(self):
        self.stats = {}  # "module.name" -> [calls, self seconds, span seconds]
        self._stack = []  # child-span seconds accumulated per open call
        self._undo = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += span - child
                stats[2] += span
                if stack:
                    stack[-1] += span

        return traced

    def install(self, package="rkwso"):
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        replaced = {}  # id(original) -> wrapper
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", original))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        return self

    def _set(self, namespace, attr, value):
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self):
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo.clear()
