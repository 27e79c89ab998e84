"""Span tracing around abeltv's layer boundaries, installed from outside.

`Tracer.install` replaces a function, as the module that calls it sees it,
by a wrapper that records a span (name, start, end, parent) per call. The
spans stay in memory; `Tracer.summary` turns them into per-layer totals
and self times, and `Tracer.dump` writes them out. Nothing inside abeltv
changes: the wrappers live here, in the traced process only.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.child_time: dict[int, float] = defaultdict(float)
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self.calls: list[tuple[str, inspect.BoundArguments, object]] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(("", 0.0, 0.0, parent))
        self.stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[index] = (name, start, end, parent)
        if parent >= 0:
            self.child_time[parent] += end - start

    def wrap(self, name: str, fn, *, keep_calls: bool = False, alloc: bool = False):
        """Wrapper of `fn` recording one span per call. `keep_calls` keeps
        the arguments and the result for checks made after the run; `alloc`
        records the tracemalloc peak of the call."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    index, parent = self._open()
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(index, parent, name, start)
                    yield item

            return gen_wrapper

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if alloc:
                tracemalloc.start()
            index, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_peak[name] = max(self.alloc_peak[name], peak)
            if keep_calls:
                self.calls.append((name, signature.bind(*args, **kwargs), result))
            return result

        return wrapper

    def install(self, targets, name: str, attr: str, **opts) -> None:
        """Replace `attr` on every object in `targets` (modules or classes)
        by one traced wrapper of the first target's current value."""
        wrapped = self.wrap(name, getattr(targets[0], attr), **opts)
        for obj in targets:
            setattr(obj, attr, wrapped)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (zeros for a
        name without spans)."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - self.child_time.get(index, 0.0)
        return out

    def dump(self, path) -> None:
        """One JSON object per line: name, start, end (perf_counter seconds)
        and the index of the parent span (-1 at the top)."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")
