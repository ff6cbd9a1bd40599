"""Span recorder for the traced benchmark pass.

The tracer replaces a function at the attribute its caller looks it up by
(``clonesim.protocol.evolve``, not ``clonesim.adiabatic.evolve``, because
``protocol`` imported the name) with a wrapper that records one span per
call.  Spans stay in memory until the pass ends; self time is computed
afterwards.  The program itself is not modified on disk.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at top level
    request: int


class Tracer:
    """Records spans around wrapped calls and sums counters they observe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Trace calls made through ``owner.attr`` under span ``name``.

        ``observe(tracer, result)`` runs after the call, outside the span's
        timing, and may record counters from the returned value.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.request)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, name: str, value: float = 1.0):
        self.counters[name] += value

    def peak(self, name: str, value: float):
        self.maxima[name] = max(self.maxima[name], value)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict:
    """name -> summed self time: each span's duration minus its children's cover."""
    children: dict = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
    return dict(out)


def call_counts(spans: list[Span]) -> dict:
    out: dict = defaultdict(int)
    for s in spans:
        out[s.name] += 1
    return dict(out)
