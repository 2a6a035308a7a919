"""Spans around every public homdom function, recorded from outside.

``Tracer.install`` wraps each public function and each public method of a
public class, defined in one of the package's modules, and puts the
wrapper at every name a caller can look the original up by: module
globals (so ``homdom.verifier.hom_density`` is wrapped as well as
``homdom.homcount.hom_density``), module-level dicts, the package
namespace and class attributes. Spans (name, start, end, parent) are kept
in flat arrays and written out by ``save``.
"""
from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Wraps the public functions of ``package``'s ``modules`` and records
    a span for every call made through them."""

    def __init__(self, package, modules):
        self.package = package
        self.modules = {m: getattr(package, m) for m in modules}
        self.names = []
        self.calls = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _new_name(self, name):
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _open(self, nid):
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name, fn):
        nid = self._new_name(name)
        calls = self.calls
        stack = self._stack
        start = self.start
        end = self.end
        opener = self._open

        if inspect.isgeneratorfunction(fn):
            # the body runs while the caller iterates: one span per resumption
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = opener(nid)
                    t0 = perf_counter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        start[idx] = t0
                        end[idx] = t1
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = opener(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
        return wrapper

    def _targets(self):
        """(qualified name, owner, attribute, raw attribute) to wrap."""
        out = []
        for mname, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out.append((f"{mname}.{attr}", mod, attr, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mattr, raw in vars(obj).items():
                        if mattr.startswith("_"):
                            continue
                        if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                            out.append((f"{mname}.{attr}.{mattr}", obj, mattr, raw))
        return out

    def install(self):
        replace = {}
        for name, owner, attr, raw in self._targets():
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
                replace[id(raw)] = (raw, wrapped)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        namespaces = [vars(m) for m in self.modules.values()] + [vars(self.package)]
        for ns in namespaces:
            for key, val in list(ns.items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((ns, key, val))
                    ns[key] = hit[1]
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        hit = replace.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._undo.append((val, k, v))
                            val[k] = hit[1]

    def uninstall(self):
        for owner, key, val in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = val
            else:
                setattr(owner, key, val)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self):
        """calls and self seconds per function, and self seconds per module.

        A span's self time is its duration minus the durations of the spans
        it directly caused.
        """
        name_id, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(name_id, weights=dur - child, minlength=len(self.names))
        out = {}
        per_module = dict.fromkeys(self.modules, 0.0)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = float(self_s[nid])
            per_module[name.split(".", 1)[0]] += float(self_s[nid])
        for m, s in per_module.items():
            out[f"{m}.self_s"] = s
        out["trace.spans"] = len(dur)
        return out

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        t0 = float(start.min()) if len(start) else 0.0
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start - t0, end=end - t0)
