"""Spans recorded around the benchmark's own calls into the library.

A span is ``[name, start, end, parent, op]``: ``name`` is
``"<layer>.<function>"``, times are ``perf_counter`` seconds, ``parent``
is the index of the enclosing span (-1 at the top) and ``op`` identifies
the operation the span belongs to. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from statistics import median
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    """Untraced runs: every span is a shared no-op context."""

    op = None

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def median(self, name):
        d = self.durations(name)
        return median(d) if d else 0.0

    def self_time_by_layer(self):
        """Seconds per layer: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = {}
        for k, s in enumerate(self.spans):
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s[2] - s[1]) - child[k]
        return out

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
