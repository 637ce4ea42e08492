"""Per-layer tracing applied from outside the library.

Each layer is one ``ncsym`` module.  ``Tracer.install`` wraps the module's
public functions, the constructors and public methods of its classes, and
rebinds every name in every ``ncsym`` namespace (and module-level dict) that
held the original object, so ``from .x import y`` bindings are traced too.

The wrappers keep a call stack.  A frame's self time is its duration minus
the time of the traced frames it called, so a layer's time excludes the
layers below it.  Generators are timed inside each ``next()``.  Counters are
kept per function, so memory stays bounded however many calls are traced.
Wrappers only record while ``Tracer.active`` is set; the harness sets it
around each op, so input generation and output checks are never counted.
"""

from __future__ import annotations

import fractions
import inspect
import types
from time import perf_counter

LAYERS = (
    "lattice",
    "partitions",
    "expressions",
    "sym",
    "species",
    "parsing",
    "cli",
    "graphs",
    "monomials",
    "checks",
)

# Dunder methods that do algebra work; other dunders (eq, hash, iter, str)
# are cheap, hot and left alone.
_ALGEBRA_DUNDERS = (
    "__init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
)

_MOBIUS = ("mobius", "mobius_to_top")


class _Stat:
    __slots__ = ("layer", "calls", "self_s", "items")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.items = 0


class _TracedGen:
    """Times the work done inside each ``next()`` of a traced generator."""

    __slots__ = ("_gen", "_stat", "_tracer")

    def __init__(self, gen, stat, tracer):
        self._gen = gen
        self._stat = stat
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        stat = self._stat
        stack = tracer.stack
        caller = stack[-1][0]
        frame = [stat.layer, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            item = next(self._gen)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            stat.self_s += dt - frame[1]
            stack[-1][1] += dt
        if caller != stat.layer:
            stat.items += 1
        return item


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.active = False
        self.stack = [[None, 0.0]]
        self.stats = {}
        self.fractions_created = 0
        self.bytes_out = 0
        self.properties = 0
        self._undo = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, layer: str, qualname: str):
        stat = self.stats.setdefault(qualname, _Stat(layer))
        tracer = self
        stack = self.stack
        post = None
        if layer == "parsing":
            post = self._count_bytes
        elif layer == "checks":
            post = self._count_properties

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            caller = stack[-1][0]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dt - frame[1]
                stack[-1][1] += dt
            if type(result) is types.GeneratorType:
                result = _TracedGen(result, stat, tracer)
            if post is not None and caller != layer:
                post(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__qualname__ = getattr(fn, "__qualname__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_bytes(self, result):
        if isinstance(result, str):
            self.bytes_out += len(result.encode("utf-8"))

    def _count_properties(self, result):
        check_result = self.modules["checks"].CheckResult
        if isinstance(result, list):
            self.properties += sum(isinstance(r, check_result) for r in result)

    def _rebind(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` wherever an ncsym namespace holds it."""
        spaces = [vars(self.package)] + [vars(m) for m in self.modules.values()]
        for space in spaces:
            for name, value in list(space.items()):
                if value is original:
                    space[name] = wrapper
                    self._undo.append((space.__setitem__, name, original))
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append((value.__setitem__, key, original))

    def _wrap_class(self, cls, layer: str):
        if issubclass(cls, tuple):
            return  # namedtuples: construction is cheap and not a layer boundary
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_")
            if not public and name not in _ALGEBRA_DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                new = classmethod(self._wrap(attr.__func__, layer, qual))
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, layer, qual))
            elif inspect.isfunction(attr):
                new = self._wrap(attr, layer, qual)
            else:
                continue
            setattr(cls, name, new)
            self._undo.append((lambda n, v, c=cls: setattr(c, n, v), name, attr))

    def install(self):
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(obj, layer, f"{layer}.{name}"))
        original_new = vars(fractions.Fraction)["__new__"]
        tracer = self

        def counting_new(cls, *args, **kwargs):
            if tracer.active:
                tracer.fractions_created += 1
            return original_new.__func__(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counting_new)
        self._undo.append(
            (lambda n, v: setattr(fractions.Fraction, n, v), "__new__", original_new)
        )

    def uninstall(self):
        while self._undo:
            setter, name, value = self._undo.pop()
            setter(name, value)

    # ------------------------------------------------------------ reading

    def layer_metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            stats = [s for s in self.stats.values() if s.layer == layer]
            out[f"{layer}.calls"] = sum(s.calls for s in stats)
            out[f"{layer}.self_s"] = sum(s.self_s for s in stats)
        lattice = [(q, s) for q, s in self.stats.items() if s.layer == "lattice"]
        out["lattice.partitions_yielded"] = sum(s.items for _, s in lattice)
        out["lattice.mobius_calls"] = sum(
            s.calls for q, s in lattice if q.rsplit(".", 1)[-1] in _MOBIUS
        )
        out["partitions.constructed"] = self.stats["partitions.SetPartition.__init__"].calls
        out["arith.fractions_created"] = self.fractions_created
        out["parsing.bytes_out"] = self.bytes_out
        out["checks.properties"] = self.properties
        return out


def lru_tables(module) -> list:
    """The ``functools.lru_cache`` functions a module holds right now."""
    return [
        v
        for name, v in vars(module).items()
        if callable(getattr(v, "cache_info", None)) and callable(getattr(v, "cache_clear", None))
    ]


def table_totals(module) -> tuple:
    """(hits, misses, entries) summed over the module's lru_cache tables."""
    hits = misses = entries = 0
    for fn in lru_tables(module):
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    return hits, misses, entries
