"""In-memory spans around calls into qrecon, installed by rebinding names.

Each wrapped function gets exactly one wrapper, and that wrapper is bound to
every module attribute that held the original, so a call is recorded once
whichever name the caller looked it up by (`qrecon.cli.transform_columns`
and `qrecon.butterfly.transform_columns` are the same function).  Nothing is
wrapped unless `install` is called.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from contextlib import contextmanager

NO_PARENT = -1


class Tracer:
    """Spans (name, start, end, parent, request) kept in columns in memory.

    A span's id is its row.  `request` is the id of the benchmark request
    the span belongs to; `cells` and `alloc` hold per-span extras by id.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.cells: dict[int, float] = {}
        self.alloc: dict[int, int] = {}
        self.current_request = NO_PARENT
        self._stack = [NO_PARENT]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(self.name_id(name))
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, name: str, fn, count_cells: bool = False,
             trace_alloc: bool = False):
        """A wrapper that records one span per call of fn.

        `count_cells` is for kernels.apply_stages_inplace(psi, diags, n, ...):
        the span keeps the n stages of N/2 butterfly cells the call applies.
        `trace_alloc` keeps the call's tracemalloc peak.
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(nid)
            if count_cells:
                self.cells[sid] = args[2] * args[0].shape[0] / 2
            alloc = trace_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if alloc:
                    self.alloc[sid] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.close(sid)

        return traced


def install(tracer: Tracer, layers, package: str) -> list[tuple]:
    """Wrap each layer's function once and bind the wrapper to every name.

    `layers` holds objects with `name` ("<module>.<function>", relative to
    `package`), `count_cells` and `trace_alloc`.  Every module of the
    package that is already imported is searched for attributes holding the original.
    Returns the bindings replaced, for `uninstall`.
    """
    wrappers = set()
    replaced = []
    for layer in layers:
        modname, attr = layer.name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"{package}.{modname}"), attr)
        if original in wrappers:
            continue  # the same function listed under a second name
        wrapper = tracer.wrap(layer.name, original, count_cells=layer.count_cells,
                              trace_alloc=layer.trace_alloc)
        wrappers.add(wrapper)
        for mod in _package_modules(package):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    replaced.append((mod, key, original))
    return replaced


def _package_modules(package: str) -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def uninstall(replaced: list[tuple]) -> None:
    for mod, key, original in replaced:
        setattr(mod, key, original)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Overlapping children are merged first, and children are clipped to
    their parent, so no instant is subtracted twice.
    """
    children = defaultdict(list)
    for sid, p in enumerate(parent):
        if p != NO_PARENT:
            children[p].append(sid)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for k in sorted(kids, key=start.__getitem__):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out
