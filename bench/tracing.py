"""Span tracing of the package's public functions, installed from outside.

`Tracer.install()` wraps the public functions of every layer module (and the
public methods of the classes listed in CLASS_METHODS) and rebinds each
wrapper everywhere the original is bound: its own module, every package
module that imported it by name, and the check lists of the `verify` suites.
`uninstall()` puts the originals back.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "structure", "code", "distance", "linalg", "gfp", "chainring",
          "properties")
CLASS_METHODS = {
    "code": {"CyclicCode": ("from_rows", "torsion_tower", "dual", "min_distance",
                            "min_distance_bruteforce", "contains")},
    "chainring": {"RkPoly": ("divides", "mul_mod")},
}


class Tracer:
    def __init__(self):
        self.spans = []    # (id, parent, request, name, start, end)
        self.ids = itertools.count(1)
        self.stack = [0]
        self.request = 0
        self.counts = defaultdict(int)
        self.canonical_codes = set()
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self):
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "ucyclic" or name.startswith("ucyclic.")}
        for layer in LAYERS:
            mod = pkg[f"ucyclic.{layer}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod)
                                                      if not n.startswith("_")]
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._rebind(pkg, fn, self._wrap(f"{layer}.{name}", fn))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(f"{layer}.{meth}", raw.__func__))
                    else:
                        new = self._wrap(f"{layer}.{meth}", raw)
                    self._set(cls, meth, new)
        suites = pkg["ucyclic.properties"].SUITES
        wrapped = {}
        for checks in suites.values():
            for i, fn in enumerate(checks):
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(f"properties.{fn.__name__}", fn)
                self._undo.append((checks.__setitem__, i, fn))
                checks[i] = wrapped[fn]

    def uninstall(self):
        for setter, key, value in reversed(self._undo):
            setter(key, value)
        self._undo.clear()

    def _set(self, obj, attr, value):
        self._undo.append((functools.partial(setattr, obj), attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _rebind(self, pkg, fn, wrapper):
        for mod in pkg.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, counts, ids = self.spans, self.stack, self.counts, self.ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, self.request, name, start, end))
                counts[name + ".calls"] += 1
            if count:
                count(self, args, kwargs, result)
            return result
        return traced

    # -- results ----------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": req,
                                     "name": name, "start": start, "end": end}) + "\n")

    def times(self):
        """Seconds by span name (inclusive), by name (self) and by call path
        (self); self time is a span's duration minus its children's."""
        by_id = {s[0]: s for s in self.spans}
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            child[parent] += end - start
        inclusive, self_by_name, self_by_path = (defaultdict(float) for _ in range(3))
        paths = {}
        for sid, parent, _, name, start, end in sorted(self.spans):
            prefix = paths.get(parent) if parent in by_id else None
            paths[sid] = f"{prefix} > {name}" if prefix else name
        for sid, parent, _, name, start, end in self.spans:
            own = end - start - child[sid]
            inclusive[name] += end - start
            self_by_name[name] += own
            self_by_path[paths[sid]] += own
        return inclusive, self_by_name, self_by_path


# Counters recorded at a layer boundary, beside the span: work done (cells,
# codewords) and useful outcomes per attempt (reuse, answers).

def _rref_cells(tr, args, kwargs, result):
    tr.counts["linalg.rref.cells"] += int(np.size(args[0]))


def _codewords(tr, args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    tr.counts["linalg.min_nonzero_weight.codewords"] += p ** len(args[0])


def _canonical(tr, args, kwargs, result):
    tr.canonical_codes.add((tr.request, args[0].footprint_bytes()))


def _closed_form(tr, args, kwargs, result):
    tr.counts["distance.closed_form_distance.answers"] += 1


COUNTERS = {
    "linalg.rref": _rref_cells,
    "linalg.min_nonzero_weight": _codewords,
    "structure.canonical_form": _canonical,
    "distance.closed_form_distance": _closed_form,
}
