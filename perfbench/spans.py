"""In-memory span recorder for the benchmark's calls into the program.

A span holds a name, start, end, parent span and item id. The benchmark
opens one span per item and one per public call it makes inside that item,
so every call span's parent is its item span (or an enclosing call span).
Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span recorder; when disabled, `span` costs one generator frame and
    `count` nothing, so the untraced run measures the program alone."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._item = None

    @contextmanager
    def span(self, name: str, item=None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if item is not None:
            self._item = item
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self._item]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def traced_memory(self, name: str):
        """Record the tracemalloc peak (MB) of the enclosed block as a
        maximum; tracemalloc runs only inside such blocks of a traced run."""
        if not self.enabled:
            yield
            return
        tracemalloc.start()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            self.maxima[name] = max(self.maxima[name], peak)

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations.

        Calls run one at a time on one thread, so children never overlap and
        the time they cover is the sum of their durations.
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start", "end", "parent", "item"],
                "spans": self.spans,
            }, handle)
