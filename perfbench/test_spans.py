"""Self-time arithmetic of the span recorder.

Run with: python3 -m pytest perfbench/test_spans.py
"""

import types

import pytest

from spans import Recorder, Span, self_times


def test_nested_children_are_subtracted_once():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    spans = [
        Span("pipeline.run", 0.0, 10.0, -1),
        Span("transitions.row", 1.0, 4.0, 0),
        Span("geometry.boxes", 2.0, 3.0, 1),
        Span("imdp.vi", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_count_their_union():
    spans = [
        Span("p.root", 0.0, 10.0, -1),
        Span("x.a", 1.0, 4.0, 0),
        Span("x.b", 3.0, 6.0, 0),  # overlaps a: union [1, 6]
        Span("x.c", 2.0, 5.0, 0),  # inside the union already
        Span("x.d", 8.0, 12.0, 0),  # runs past the parent: clipped to [8, 10]
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_recorder_wraps_restores_and_reports_absent_names():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    rec = Recorder()
    rec.wrap(mod, "outer", "pipeline.outer")
    rec.wrap(mod, "inner", "geometry.inner", on_return=lambda c, a, k, r: c.__setitem__("n", c["n"] + a[0]))
    rec.wrap(mod, "gone", "transitions.gone")
    assert mod.outer(3) == 8
    rec.restore()
    assert mod.inner is inner and mod.outer is outer
    assert rec.absent == ["transitions.gone"]
    assert [s.parent for s in rec.spans] == [-1, 0]
    assert rec.counters["n"] == 3
    names = rec.by_name()
    assert names["geometry.inner"]["calls"] == 1
    layers = rec.by_layer()
    total = rec.spans[0].end - rec.spans[0].start
    assert sum(layers.values()) == pytest.approx(total)
