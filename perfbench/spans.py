"""In-memory span recorder for the benchmark.

Spans are recorded around calls into the package's public functions by
replacing module attributes (and two `RegionGrid` methods) with timing
wrappers for the duration of one run; nothing under `src/` changes. Each span
keeps its name, start, end and the index of the span that was open when it
began. A layer's self time is its spans' durations minus the part of each
interval that child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root


def layer_of(name: str) -> str:
    """Span names are `<module>.<function>`; the module is the layer."""
    return name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's
    intervals, clipped to the span. Children of one parent never overlap in
    single-threaded code, but the union keeps the arithmetic right if they do."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class Recorder:
    """Collects spans, per-name call counts and named counters. `on_return`
    hooks see each wrapped call's arguments and result and add to counters;
    they run after the span closes, so their cost lands in the caller's self
    time, which the traced-minus-untraced overhead figure includes."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(int))
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def call(self, name: str, fn: Callable, args, kwargs, on_return=None):
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if on_return is not None:
            on_return(self.counters, args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace `owner.attr` with a recording wrapper until `restore`.
        A missing attribute is noted in `absent` rather than raised."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_return)

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time and call count."""
        agg: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
        for s, own in zip(self.spans, self_times(self.spans)):
            agg[s.name]["self_s"] += own
            agg[s.name]["calls"] += 1
        return dict(agg)

    def by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self_times(self.spans)):
            out[layer_of(s.name)] += own
        return dict(out)

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for i, s in enumerate(self.spans)
        ]
