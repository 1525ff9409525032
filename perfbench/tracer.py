"""Layer tracer that instruments the engine from outside.

``Tracer.install()`` wraps every public function, class constructor, method,
classmethod and property that a module of ``spherical_models`` defines, and
rebinds each wrapped function in every ``spherical_models.*`` namespace that
imported it (modules import each other's functions with ``from .x import
f``).  Nothing under ``src/`` changes and nothing is patched until
``install`` runs, so untraced runs measure the unmodified program.

A span is (name, start, end, parent); spans are appended to flat arrays in
memory and reduced when the run ends.  A span's self time is its duration
minus the durations of its child spans; a layer's self time is the sum over
the spans of its module.  Span names are ``<module>.<function>``,
``<module>.<Class>`` for a constructor and ``<module>.<Class>.<member>``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "lattice", "rootdata", "galoismodule", "spherical", "horospherical",
    "embeddings", "polyhedra", "decision", "cli",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counters = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None):
        """A function that records a span around each call of ``fn``."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def span(self, name):
        """Context manager recording one span (for the benchmark's own steps)."""
        return _Span(self, self.name_id(name))

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the engine's public API; returns the number of names wrapped."""
        import spherical_models  # noqa: F401  (loads every submodule)

        hooks = {
            "spherical.enumerate_lifts": lambda r: self.count("spherical.lifts_enumerated", len(r)),
            "embeddings.exists_stabilizing_lift": lambda r: self.count("embeddings.lift_hits", r is not None),
        }
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules["spherical_models." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(name, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "spherical_models" or mod_name.startswith("spherical_models.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return len(replaced)

    def _wrap_class(self, name, cls):
        for attr, raw in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            span = name if attr == "__init__" else "%s.%s" % (name, attr)
            if isinstance(raw, property):
                new = property(self.wrap(span, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(span, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(span, raw.__func__))
            elif inspect.isfunction(raw):
                new = self.wrap(span, raw)
            else:
                continue
            setattr(cls, attr, new)

    # -- reduction ----------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, total and self seconds, longest call."""
        n = len(self.span_name)
        child = [0.0] * n
        out = {}
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        for i in range(n - 1, -1, -1):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
            rec = out.get(names[i])
            if rec is None:
                rec = out[names[i]] = [0, 0.0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i]
            if dur > rec[3]:
                rec[3] = dur
        return {
            self.names[k]: {"calls": v[0], "total_s": v[1], "self_s": v[2], "max_s": v[3]}
            for k, v in out.items()
        }


class _Span:
    __slots__ = ("tracer", "nid", "index", "t")

    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.span_name)
        tr.span_name.append(self.nid)
        tr.span_parent.append(tr.stack[-1] if tr.stack else -1)
        tr.span_start.append(0.0)
        tr.span_end.append(0.0)
        tr.stack.append(self.index)
        self.t = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.span_end[self.index] = time.perf_counter()
        tr.span_start[self.index] = self.t
        tr.stack.pop()
        return False


class JsonShim:
    """Stands in for the ``json`` module inside ``spherical_models.cli``.

    ``dumps`` (the verdict serialization in ``cmd_decide``) gets a
    ``cli.serialize`` span; everything else is the real module.
    """

    def __init__(self, tracer):
        self.dumps = tracer.wrap("cli.serialize", json.dumps)

    def __getattr__(self, attr):
        return getattr(json, attr)


def merge(into, agg):
    """Add one process's aggregate into a running total."""
    for name, rec in agg.items():
        cur = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
        cur["calls"] += rec["calls"]
        cur["total_s"] += rec["total_s"]
        cur["self_s"] += rec["self_s"]
        cur["max_s"] = max(cur["max_s"], rec["max_s"])
    return into
