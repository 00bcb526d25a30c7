"""Span recorder for the traced benchmark run.

``SpanRecorder.install`` wraps every public function and method that the
dualtree layer modules define (module-level functions, ``__init__``, public
methods, class and static methods) and rebinds the wrapper wherever the
original is bound: in its own module, in every other dualtree module that
imported it (``index_io.build_minheap``, ``mliq.pda_fast``, ...) and in the
package namespace. Nothing under ``src/`` changes; ``uninstall`` restores the
originals. Generator functions are left alone, since their work happens
while the caller iterates.

Each call becomes a span (name, start, end, parent span, query id). Self
time, the span's duration minus the time its child spans cover, is summed
online per phase and name, so the figures are exact however many spans
there are. The first ``SPAN_LIMIT`` spans are also kept in memory and
written out by ``dump`` when the run ends.
"""

import importlib
import inspect
import json
import os
import sys
from array import array
from functools import partial
from time import perf_counter_ns

SPAN_LIMIT = 1_000_000  # spans kept in memory for ``dump``; later ones are only summed
LAYERS = ("bitseq", "parens", "tree", "codec", "duality", "minheap", "rmq", "mliq", "index_io")


class _Frame:
    __slots__ = ("span", "start", "child")

    def __init__(self, span, start):
        self.span = span
        self.start = start
        self.child = 0


class SpanRecorder:
    def __init__(self):
        self.names = []
        self.paused = False
        self.query_id = -1
        self._totals = {}  # phase -> (calls per name, self ns per name)
        self._calls = self._self_ns = None
        self._stack = []
        self._count = 0
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._query = array("q")
        self._restore = []
        self.set_phase("idle")

    # -- phases --------------------------------------------------------------

    def set_phase(self, phase):
        """Attribute the spans that follow to ``phase``."""
        if phase not in self._totals:
            self._totals[phase] = ([0] * len(self.names), [0] * len(self.names))
        self._calls, self._self_ns = self._totals[phase]

    def totals(self, phase):
        """{span name: (calls, self ns)} for one phase."""
        calls, self_ns = self._totals.get(phase, ((), ()))
        return {self.names[k]: (c, s) for k, (c, s) in enumerate(zip(calls, self_ns)) if c}

    def phases(self):
        return list(self._totals)

    # -- wrapping --------------------------------------------------------------

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dualtree.{layer}")
            for name, obj in list(vars(module).items()):
                if _traceable(obj, module) and not name.startswith("_"):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)
        for module in _dualtree_modules():
            for name, obj in list(vars(module).items()):
                if isinstance(obj, dict):  # dispatch tables such as rmq._DISPATCH
                    for key, value in list(obj.items()):
                        if _hashable(value) and value in wrapped:
                            self._restore.append((obj.__setitem__, key, value))
                            obj[key] = wrapped[value]
                elif _hashable(obj) and obj in wrapped:
                    self._restore.append((module.__dict__.__setitem__, name, obj))
                    setattr(module, name, wrapped[obj])

    def uninstall(self):
        for put, name, original in reversed(self._restore):
            put(name, original)
        self._restore.clear()

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                fn = attr.__func__
                if _traceable(fn, None):
                    new = type(attr)(self._wrap(fn, f"{layer}.{cls.__name__}.{name}"))
                    self._restore.append((partial(setattr, cls), name, attr))
                    setattr(cls, name, new)
            elif _traceable(attr, None):
                self._restore.append((partial(setattr, cls), name, attr))
                setattr(cls, name, self._wrap(attr, f"{layer}.{cls.__name__}.{name}"))

    def _wrap(self, fn, label):
        idx = len(self.names)
        self.names.append(label)
        for calls, self_ns in self._totals.values():
            calls.append(0)
            self_ns.append(0)
        record = self._record

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            return record(idx, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _record(self, idx, fn, args, kwargs):
        stack = self._stack
        span = self._count
        self._count += 1
        keep = span < SPAN_LIMIT
        frame = _Frame(span, perf_counter_ns())
        if keep:  # rows are in call order, so a span's id is its row
            self._name.append(idx)
            self._start.append(frame.start)
            self._end.append(0)
            self._parent.append(stack[-1].span if stack else -1)
            self._query.append(self.query_id)
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - frame.start
            self._calls[idx] += 1
            self._self_ns[idx] += dur - frame.child
            if stack:
                stack[-1].child += dur
            if keep:
                self._end[span] = end

    # -- output ------------------------------------------------------------------

    def dump(self, directory):
        """Write the kept spans (one binary column per field) and their names."""
        os.makedirs(directory, exist_ok=True)
        columns = {"name": self._name, "start_ns": self._start, "end_ns": self._end,
                   "parent": self._parent, "query": self._query}
        for field, column in columns.items():
            with open(os.path.join(directory, f"spans.{field}.{column.typecode}"), "wb") as fh:
                column.tofile(fh)
        meta = {"names": self.names, "spans_total": self._count, "spans_kept": len(self._name),
                "columns": {f: c.typecode for f, c in columns.items()},
                "note": "span ids are row numbers; parent -1 is a top-level call, query -1 is outside queries"}
        with open(os.path.join(directory, "spans.json"), "w", encoding="ascii") as fh:
            json.dump(meta, fh)


def self_times(start, end, parent):
    """Self time per span derived from a span table: duration minus the time
    covered by its direct children. Used to check the online totals."""
    child = [0] * len(start)
    for k in range(len(start)):
        if parent[k] >= 0:
            child[parent[k]] += end[k] - start[k]
    return [end[k] - start[k] - child[k] for k in range(len(start))]


def _traceable(obj, module):
    if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
        return False
    return module is None or obj.__module__ == module.__name__


def _hashable(obj):
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def _dualtree_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "dualtree" or name.startswith("dualtree."))]
