"""Spans and counts recorded from outside the library.

`Tracer.install` replaces every public function of the traced modules, and
every public method of the classes they define, with a wrapper that records
a span: name, start, end, parent span and request id.  The wrapper is bound
wherever the original was bound: in the defining module, in every
``symred`` module that imported it by name, and in the scenario registry.
``Fraction.__new__`` is wrapped too, and each construction is charged to
the innermost open span.

Spans are kept in flat arrays and written out once, at the end.  Per-name
aggregates (calls, self time, total time, Fraction constructions, and the
size counts in ``SIZES``) are kept as the spans close; self time is the
span's duration minus the time its child spans cover, and total time
counts only the outermost span of a name, so recursion is not counted
twice.
"""

from __future__ import annotations

import dataclasses
import fractions
import json
import sys
import time
import types
from array import array

TRACED_MODULES = ("linalg", "lie", "poisson", "groupoid", "reduction", "scenarios", "cli")


def _rref_cells(args, kwargs, result):
    rows = args[0]
    return {"cells": len(rows) * len(rows[0]) if rows else 0}


def _dot_pairs(args, kwargs, result):
    u, v = args
    return {"pairs": len(u), "nonzero_pairs": sum(1 for a, b in zip(u, v) if a and b)}


def _extend_added(args, kwargs, result):
    return {"added": len(result), "offered": len(args[1])}


def _gram_entries(args, kwargs, result):
    return {"entries": len(args[2]) ** 2}


# Size counts taken from a call's arguments and result, by span name.
SIZES = {
    "linalg.rref": _rref_cells,
    "linalg.dot": _dot_pairs,
    "linalg.extend_to_basis": _extend_added,
    "groupoid.omega_gram": _gram_entries,
}

# Spans that start a request, and the argument that names it.
REQUESTS = {
    "scenarios.run_scenario": lambda args, kwargs: args[0],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.requests: list[str] = ["-"]
        self._request_ids = {"-": 0}
        self.request = 0
        # one record per span
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        # per-name aggregates
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.fraction_new: list[int] = []
        self._depth: list[int] = []
        self.sizes: dict[str, dict[str, int]] = {}
        # open frames: [span index, name id, child seconds, Fraction count];
        # the bottom frame collects constructions outside every span
        self._stack = [[-1, -1, 0.0, 0]]

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.fraction_new.append(0)
            self._depth.append(0)
        return sid

    def set_request(self, label: str):
        if label not in self._request_ids:
            self._request_ids[label] = len(self.requests)
            self.requests.append(label)
        self.request = self._request_ids[label]

    def wrap(self, name: str, fn):
        sid = self._name_id(name)
        sizes = SIZES.get(name)
        request_of = REQUESTS.get(name)
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            outer_request = tracer.request
            if request_of is not None:
                tracer.set_request(request_of(args, kwargs))
            idx = len(tracer.span_start)
            tracer.span_name.append(sid)
            tracer.span_parent.append(stack[-1][0])
            tracer.span_request.append(tracer.request)
            tracer.span_end.append(0.0)
            frame = [idx, sid, 0.0, 0]
            stack.append(frame)
            depth[sid] += 1
            start = clock()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[sid] -= 1
                dur = end - start
                tracer.span_end[idx] = end
                tracer.calls[sid] += 1
                tracer.self_s[sid] += dur - frame[2]
                if depth[sid] == 0:
                    tracer.total_s[sid] += dur
                tracer.fraction_new[sid] += frame[3]
                stack[-1][2] += dur
                tracer.request = outer_request
            if sizes is not None:
                acc = tracer.sizes.setdefault(name, {})
                for key, value in sizes(args, kwargs, result).items():
                    acc[key] = acc.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self, symred):
        """Wrap the public functions and methods of the traced modules."""
        replace: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"symred.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            setattr(obj, meth, self.wrap(f"{short}.{meth}", fn))
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    replace[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        # rebind every name that refers to a wrapped function, in every module
        for modname, mod in list(sys.modules.items()):
            if modname == "symred" or modname.startswith("symred."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replace and not attr.startswith("__"):
                        setattr(mod, attr, replace[id(obj)])
        registry = symred.scenarios.REGISTRY
        for key, spec in list(registry.items()):
            if id(spec.fn) in replace:
                registry[key] = dataclasses.replace(spec, fn=replace[id(spec.fn)])
        orig_new = fractions.Fraction.__new__
        stack = self._stack

        def counted_new(cls, *args, **kwargs):
            stack[-1][3] += 1
            return orig_new(cls, *args, **kwargs)

        fractions.Fraction.__new__ = counted_new
        self._orig_new = orig_new

    def uninstall(self):
        fractions.Fraction.__new__ = self._orig_new

    # -- results ---------------------------------------------------------

    def calls_of(self, name: str) -> int:
        sid = self._ids.get(name)
        return 0 if sid is None else self.calls[sid]

    def summary(self) -> dict:
        """Per-name aggregates, plus the Fraction total, keyed by span name."""
        by_name = {}
        for sid, name in enumerate(self.names):
            if self.calls[sid]:
                entry = {
                    "calls": self.calls[sid],
                    "self_s": self.self_s[sid],
                    "total_s": self.total_s[sid],
                    "fraction_new": self.fraction_new[sid],
                }
                entry.update(self.sizes.get(name, {}))
                by_name[name] = entry
        total_new = sum(self.fraction_new) + self._stack[0][3]
        return {
            "spans": by_name,
            "fraction_new": total_new,
            "fraction_new_outside": self._stack[0][3],
            "span_count": len(self.span_start),
        }

    def write_spans(self, path: str):
        """Spans as JSON: a name table, a request table and one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ')
            json.dump(self.names, fh)
            fh.write(', "requests": ')
            json.dump(self.requests, fh)
            fh.write(', "columns": ["name", "start", "end", "parent", "request"], "spans": [\n')
            rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_request)
            first = True
            for row in rows:
                fh.write(("" if first else ",\n") + json.dumps(row))
                first = False
            fh.write("\n]}\n")
