"""Span tracing around the calls into mcskit's modules.

The tracer patches each module's public entry points with a wrapper that
records one span per call: name, start, end, parent span and op id.
Spans stay in memory until :meth:`Tracer.write` dumps them at exit. The
patches are installed only inside :meth:`Tracer.active`, so untraced
calls run the program's own code with no wrapper at all.

A span name is ``<module>.<entry>``; its layer is the module. A span's
self time is its duration minus the durations of its direct children;
calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# Span fields, stored as lists to keep the hot path cheap.
NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self, targets):
        # targets: (owner, attribute, span name, info function or None).
        # The info function maps (args, kwargs, result) to a value kept on
        # the span. It runs inside the caller's span, so it must be cheap;
        # an entry point the program no longer has is skipped.
        self.targets = targets
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def _wrap(self, orig, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    @contextmanager
    def active(self, op):
        """Trace calls made inside the block, tagged with op id ``op``."""
        saved = []
        try:
            for owner, attr, name, info in self.targets:
                orig = owner.__dict__.get(attr)
                if orig is None:
                    continue
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, info))
            self.op = op
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
            self.op = None

    @contextmanager
    def span(self, name, op):
        """A span opened by the benchmark itself, such as one whole op."""
        with self.active(op):
            idx = len(self.spans)
            self.spans.append([name, 0, 0, -1, op, None])
            self._stack.append(idx)
            self.spans[idx][START] = time.perf_counter_ns()
            try:
                yield
            finally:
                self.spans[idx][END] = time.perf_counter_ns()
                self._stack.pop()

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [s[:INFO] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[int]:
    """Per-span self time in ns: duration minus direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_self_ms(spans: list[list], keep) -> dict[str, float]:
    """Total self time per layer over the spans for which ``keep`` holds."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        if keep(s):
            totals[layer(s[NAME])] = totals.get(layer(s[NAME]), 0.0) + t / 1e6
    return totals


def median(values) -> float:
    """Median, or NaN when there are no samples."""
    vals = list(values)
    return statistics.median(vals) if vals else math.nan
