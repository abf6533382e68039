"""In-memory spans and the statistics the benchmark reports from them.

A span is ``(id, name, start, end, parent, rid, attrs)``.  Times come
from ``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC`` and
so is one clock across the load-generator and server processes; that is
what lets client and server spans of one request be compared.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

PERCENTILES = (50.0, 90.0, 95.0, 99.0)
"""Percentiles a tail latency may be reported at."""

MIN_BEYOND = 10
"""A percentile is reported only with at least this many samples above
it."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    rid: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list[Any]:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.rid, self.attrs]

    @classmethod
    def from_json(cls, row: list[Any]) -> "Span":
        return cls(row[0], row[1], row[2], row[3], row[4], row[5], row[6])


class Tracer:
    """Collects spans in memory; a per-thread stack supplies parents.

    ``list.append`` and ``next`` on an ``itertools.count`` are atomic
    under the interpreter lock, so threads record without a lock.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, rid: str | None = None) -> "_SpanContext":
        return _SpanContext(self, name, rid)

    def open(self, name: str, rid: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent=parent.id if parent else None, rid=rid)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               rid: str | None = None, **attrs: Any) -> Span:
        """A span timed elsewhere (e.g. a queue wait between threads)."""
        span = Span(next(self._ids), name, start, end, rid=rid, attrs=attrs)
        self.spans.append(span)
        return span

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_json() for s in self.spans], fh)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, rid: str | None) -> None:
        self.tracer = tracer
        self.name = name
        self.rid = rid
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.name, self.rid)
        return self.span

    def __exit__(self, *exc: object) -> None:
        assert self.span is not None
        self.tracer.close(self.span)


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span.from_json(row) for row in json.load(fh)]


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (children clipped to the parent, overlaps between
    children counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None:
            continue
        lo, hi = max(s.start, parent.start), min(s.end, parent.end)
        if hi > lo:
            children.setdefault(parent.id, []).append((lo, hi))
    return {
        s.id: s.duration - covered(children.get(s.id, ())) for s in spans
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported_percentile(n: int) -> float | None:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    best = None
    for q in PERCENTILES:
        if n * (100.0 - q) >= MIN_BEYOND * 100.0 - 1e-9:
            best = q
    return best


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` at the highest supported percentile."""
    q = supported_percentile(len(values))
    if q is None:
        raise ValueError(f"{len(values)} samples support no percentile")
    return q, percentile(values, q)

