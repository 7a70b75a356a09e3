"""In-memory span tracer that wraps the lgschubert package from outside.

``install`` replaces, in every module of the package:

* each public module-level function, at its home binding and at every module
  that imports it;
* each binding of a function imported from another module of the package,
  private names included (``quantum._stable_expansion``, ``quantum._universal``);
* each function held as a value of a module-level dict (``cli.ENGINES``);
* the arithmetic methods of ``EPoly`` and ``XPoly``.

One wrapper serves every binding of a function, so a call makes exactly one
span whichever name it went through.  Wrappers forward ``cache_info`` and
``cache_clear`` of ``functools`` caches.

A span is (name, parent, start, end, count, busy, untimed).  Repeated leaf
calls of one function under one parent span are kept as a single span whose
``count`` is the number of calls and whose ``busy`` is their summed duration;
this keeps hot helpers such as ``polyring._merge_desc`` (millions of calls
per cold table) in bounded memory.  Self time is busy time minus the busy time
of direct child spans, so a layer's self time is the time its spans cover
minus what spans of other layers cover inside them.  A ``measure`` callback
(a counter taken from a call's arguments and result) runs after its span
closes but inside the caller's span; its time is kept in the caller's
``untimed`` and left out of the caller's self time, so the benchmark's own
counting is billed to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE = "lgschubert"
LAYERS = ("partitions", "polyring", "qtilde", "symplectic", "classical", "quantum", "suites", "cli")
ARITHMETIC = {"__add__": "add", "__sub__": "sub", "__neg__": "neg", "__mul__": "mul",
              "scale": "scale", "truncate": "truncate"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.count = []
        self.busy = []
        self.untimed = []
        # frame: [name id, start, record index or -1, {leaf name id: record}]
        self._stack = [[-1, 0.0, -1, {}]]
        self.counters: dict[str, float] = defaultdict(int)
        self._wrappers: dict[int, object] = {}

    def _record(self, nid: int, parent: int, t0: float) -> int:
        self.name.append(nid)
        self.parent.append(parent)
        self.start.append(t0)
        self.end.append(t0)
        self.count.append(1)
        self.busy.append(0.0)
        self.untimed.append(0.0)
        return len(self.name) - 1

    def wrap(self, fn, name: str, measure=None):
        """The single traced wrapper of ``fn``, created on first request."""
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, record = self._stack, self._record
        ends, counts, busy, untimed = self.end, self.count, self.busy, self.untimed
        counters = self.counters
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            up = stack[-1]
            if up[2] < 0 and len(stack) > 1:
                up[2] = record(up[0], stack[-2][2], up[1])
            frame = [nid, 0.0, -1, None]
            stack.append(frame)
            frame[1] = t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                rec = frame[2]
                if rec >= 0:
                    ends[rec] = t1
                    busy[rec] = t1 - t0
                else:
                    leaves = up[3]
                    if leaves is None:
                        leaves = up[3] = {}
                    rec = leaves.get(nid)
                    if rec is None:
                        rec = leaves[nid] = record(nid, up[2], t0)
                        busy[rec] = t1 - t0
                    else:
                        counts[rec] += 1
                        busy[rec] += t1 - t0
                    ends[rec] = t1
            if measure is not None:
                m0 = perf()
                measure(counters, args, result)
                if up[2] >= 0:
                    untimed[up[2]] += perf() - m0
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        self._wrappers[key] = wrapper
        return wrapper

    def summary(self) -> dict:
        """Per-name calls and self time, from the recorded spans."""
        child_busy = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_busy[p] += self.busy[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            calls[self.names[nid]] += self.count[i]
            self_s[self.names[nid]] += self.busy[i] - child_busy[i] - self.untimed[i]
        root_busy = sum(b for b, p in zip(self.busy, self.parent) if p < 0)
        return {"calls": dict(calls), "self_s": dict(self_s), "root_busy_s": root_busy}

    def dump(self, path) -> None:
        """Write every span as JSON: a name table and one row per span."""
        rows = list(zip(self.name, self.parent, self.start, self.end, self.count, self.busy,
                        self.untimed))
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "count", "busy", "untimed"],
                       "names": self.names, "spans": rows}, fh)


def _home(obj) -> str | None:
    mod = getattr(obj, "__module__", None) or ""
    if not mod.startswith(PACKAGE + "."):
        return None
    return mod[len(PACKAGE) + 1:]


def _traceable(obj) -> bool:
    return (inspect.isfunction(obj) or hasattr(obj, "cache_info")) and _home(obj) is not None


def _span_name(obj) -> str:
    fn = inspect.unwrap(obj)
    return f"{_home(obj)}.{fn.__name__}"


def install(tracer: Tracer, measures: dict | None = None) -> None:
    """Wrap the package's layer boundaries in place (see module docstring)."""
    measures = measures or {}
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
    namespaces = [importlib.import_module(PACKAGE), *modules.values()]

    def wrapped(obj):
        name = _span_name(obj)
        return tracer.wrap(obj, name, measures.get(name))

    for ns in namespaces:
        here = ns.__name__[len(PACKAGE) + 1:] if ns.__name__ != PACKAGE else None
        for attr, obj in list(vars(ns).items()):
            if _traceable(obj):
                imported = _home(obj) != here
                if imported or not attr.startswith("_"):
                    setattr(ns, attr, wrapped(obj))
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if _traceable(v) and not v.__name__.startswith("<"):
                        obj[k] = wrapped(v)

    polyring = modules["polyring"]
    for cls in (polyring.EPoly, polyring.XPoly):
        for method, short in ARITHMETIC.items():
            if method not in vars(cls):
                continue
            name = f"polyring.{cls.__name__}.{short}"
            setattr(cls, method, tracer.wrap(vars(cls)[method], name, measures.get(name)))


def memo_counters(layers=LAYERS) -> dict:
    """Entries, hits and misses of every functools cache, by home module."""
    out = {}
    for layer in layers:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        entries = hits = misses = 0
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and _home(obj) == layer:
                info = obj.cache_info()
                entries += info.currsize
                hits += info.hits
                misses += info.misses
        out[layer] = {"entries": entries, "hits": hits, "misses": misses}
    return out
