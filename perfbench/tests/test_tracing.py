"""Self time and coverage arithmetic, and the tracer's bookkeeping."""

from __future__ import annotations

import threading
import types

import pytest

from perfbench.tracing import (
    Patcher,
    Span,
    Tracer,
    children_of,
    coverage,
    layer_totals,
    root_coverage,
    self_seconds,
    union_seconds,
)


def span(span_id, name, start, end, parent=None, thread=1):
    return Span(name, start, end, parent=parent, request=1, thread=thread, id=span_id)


def test_union_merges_overlaps_and_clips_to_the_parent():
    assert union_seconds([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_seconds([(-2, 1), (9, 12)], 0, 10) == 2
    assert union_seconds([], 0, 10) == 0
    assert union_seconds([(3, 3)], 0, 10) == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 6.0, 9.0, parent=0),
        span(3, "a.inner", 2.0, 3.0, parent=1),
    ]
    kids = children_of(spans)
    assert self_seconds(spans[0], kids) == pytest.approx(4.0)
    assert self_seconds(spans[1], kids) == pytest.approx(2.0)
    assert coverage(spans[0], kids) == pytest.approx(0.6)
    totals = layer_totals(spans)
    assert sum(t.self_seconds for t in totals.values()) == pytest.approx(10.0)


def test_overlapping_children_from_two_handler_threads_count_once():
    # Two handler threads work under one parent at the same time: the
    # parent's covered time is the union, but each layer's busy time is
    # its own span, so busy time may exceed the wall time it overlaps.
    spans = [
        span(0, "request", 0.0, 10.0),
        span(1, "store", 1.0, 6.0, parent=0, thread=1),
        span(2, "store", 3.0, 8.0, parent=0, thread=2),
    ]
    kids = children_of(spans)
    assert self_seconds(spans[0], kids) == pytest.approx(3.0)
    assert coverage(spans[0], kids) == pytest.approx(0.7)
    totals = layer_totals(spans)
    assert totals["store"].calls == 2
    assert totals["store"].seconds == pytest.approx(10.0)
    assert totals["request"].self_seconds == pytest.approx(3.0)


def test_root_coverage_aggregates_per_kind_and_keeps_the_worst():
    spans = [
        span(0, "solve", 0.0, 10.0),
        span(1, "kernel", 0.0, 10.0, parent=0),
        span(2, "solve", 20.0, 30.0),
        span(3, "kernel", 20.0, 25.0, parent=2),
        span(4, "other", 40.0, 50.0),
    ]
    kinds = root_coverage(spans, lambda s: "solve" if s.name == "solve" else None)
    aggregate, worst, roots = kinds["solve"]
    assert aggregate == pytest.approx(0.75)
    assert worst == pytest.approx(0.5)
    assert roots == 2
    assert "other" not in kinds


def test_tracer_keeps_a_parent_stack_and_request_id_per_thread():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    barrier = threading.Barrier(2)

    def handler():
        root = tracer.open("request")
        barrier.wait()  # both roots are open at once
        child = tracer.open("store")
        tracer.close(child)
        tracer.close(root)

    threads = [threading.Thread(target=handler) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    roots = [s for s in tracer.spans if s.name == "request"]
    stores = [s for s in tracer.spans if s.name == "store"]
    assert all(r.parent is None for r in roots)
    assert {r.request for r in roots} == {1, 2}
    for store in stores:
        parent = tracer.spans[store.parent]
        assert parent.name == "request"
        assert parent.thread == store.thread
        assert parent.request == store.request


def test_patcher_wraps_where_the_caller_looks_and_restores():
    module = types.SimpleNamespace(kernel=lambda x: x + 1)

    class Engine:
        def run(self, x):
            return module.kernel(x) * 2

        @classmethod
        def build(cls):
            return cls()

    tracer = Tracer()
    patch = Patcher(tracer)
    original_run = Engine.__dict__["run"]
    patch.function(module, "kernel", "kernel",
                   after=lambda s, a, k, r: s.attrs.update(result=r))
    patch.method(Engine, "run", "engine")
    patch.method(Engine, "build", "build")
    assert Engine.build().run(1) == 4
    assert [s.name for s in tracer.spans] == ["build", "engine", "kernel"]
    assert tracer.spans[2].parent == tracer.spans[1].id
    assert tracer.spans[2].attrs == {"result": 2}
    patch.restore()
    assert Engine.__dict__["run"] is original_run
    assert isinstance(Engine.__dict__["build"], classmethod)
    assert Engine().run(1) == 4
    assert len(tracer.spans) == 3
