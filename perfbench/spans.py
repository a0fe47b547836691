"""In-memory span recorder for the traced benchmark run.

A span is one call into an fqk layer: name, start, end, parent span and the
item it belongs to.  Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, item]
        self.counters = defaultdict(float)
        self.item = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def add(self, counter: str, n) -> None:
        self.counters[counter] += n

    def maximum(self, counter: str, n) -> None:
        self.counters[counter] = max(self.counters[counter], n)

    def self_times(self) -> dict:
        """Per span name: [calls, self seconds], where self time is the
        span's duration minus the time its child spans cover."""
        child = defaultdict(float)
        for name, start, end, parent, item in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return dict(out)

    def records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "item": it}
            for n, s, e, p, it in self.spans
        ]
