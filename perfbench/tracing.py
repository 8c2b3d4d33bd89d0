"""In-memory span tracing installed from outside the program.

A :class:`Tracer` records one :class:`Span` per wrapped call: name,
start, end, parent (the span open on the same thread when the call
began) and a request id shared by every span under one root.  Spans
stay in memory and are written out once, when the run ends.

:class:`Patcher` swaps a name for a traced wrapper *where the caller
looks it up* (a module global, a class attribute, a cached property)
and puts every original back on :meth:`Patcher.restore`.

The arithmetic lives in :func:`self_seconds` and :func:`coverage`: a
span's self time is its duration minus the part of its interval that
the union of its children covers, so overlapping children (two handler
threads under one parent) are never counted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int = 0
    thread: int = 0
    id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [
            self.name, self.start, self.end, self.parent,
            self.request, self.thread, self.id, self.attrs,
        ]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        name, start, end, parent, request, thread, span_id, attrs = row
        return cls(name, start, end, parent, request, thread, span_id, attrs)


class Tracer:
    """Collects spans (per-thread parent stacks) and named counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent, request = stack[-1].id, stack[-1].request
        else:
            parent, request = None, next(self._requests)
        span = Span(
            name, 0.0, parent=parent, request=request,
            thread=threading.get_ident(), attrs=dict(attrs or {}),
        )
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def current(self) -> Span | None:
        """The innermost span open on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, fn, name: str, *, attrs=None, after=None):
        """A traced stand-in for ``fn``.

        ``attrs(args, kwargs)`` labels the span before the call;
        ``after(span, args, kwargs, result)`` runs once the span is
        closed, so its work is never timed.
        """

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = self.open(name, attrs(args, kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def counting(self, fn, name: str, value=None):
        """A stand-in for ``fn`` that only counts calls (or ``value(result)``)."""

        @functools.wraps(fn, updated=())
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(name, value(result) if value is not None else 1)
            return result

        return counted

    def to_json(self) -> dict:
        return {
            "spans": [span.to_json() for span in self.spans],
            "counts": dict(self.counts),
        }


class Patcher:
    """Installs traced wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap a module global (a function or a class used as a factory)."""
        self.replace(module, attr, self.tracer.wrap(getattr(module, attr), name, **hooks))

    def counter(self, owner, attr: str, name: str, value=None) -> None:
        """Count calls of a module global or a plain method, without a span."""
        self.replace(owner, attr, self.tracer.counting(getattr(owner, attr), name, value))

    def method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Wrap a plain method or a classmethod defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.tracer.wrap(raw.__func__, name, **hooks))
        else:
            wrapped = self.tracer.wrap(raw, name, **hooks)
        self.replace(cls, attr, wrapped)

    def cached_property(self, cls: type, attr: str, name: str) -> None:
        """Trace the first (computing) access of a ``functools.cached_property``."""
        raw = cls.__dict__[attr]
        prop = functools.cached_property(self.tracer.wrap(raw.func, name))
        prop.__set_name__(cls, attr)
        self.replace(cls, attr, prop)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Arithmetic over a finished span list
# ----------------------------------------------------------------------


def union_seconds(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[span.parent].append(span)
    return kids


def covered_seconds(span: Span, kids: dict[int, list[Span]]) -> float:
    """The part of ``span`` that its children's union covers."""
    return union_seconds(
        ((c.start, c.end) for c in kids.get(span.id, ())), span.start, span.end
    )


def self_seconds(span: Span, kids: dict[int, list[Span]]) -> float:
    return span.seconds - covered_seconds(span, kids)


def coverage(span: Span, kids: dict[int, list[Span]]) -> float:
    """Fraction of ``span`` covered by named children (1.0 for an empty span)."""
    if span.seconds <= 0.0:
        return 1.0
    return covered_seconds(span, kids) / span.seconds


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: call count, inclusive seconds and self seconds."""
    kids = children_of(spans)
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[span.name]
        entry.calls += 1
        entry.seconds += span.seconds
        entry.self_seconds += self_seconds(span, kids)
    return dict(totals)


def root_coverage(spans: list[Span], kind_of) -> dict[str, tuple[float, float, int]]:
    """Per root kind: (aggregate coverage, worst single root, root count).

    ``kind_of(span)`` names a root's kind, or ``None`` to skip it.  The
    aggregate is covered seconds over root seconds, summed per kind.
    """
    kids = children_of(spans)
    covered: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    worst: dict[str, float] = {}
    count: Counter = Counter()
    for span in spans:
        if span.parent is not None:
            continue
        kind = kind_of(span)
        if kind is None:
            continue
        covered[kind] += covered_seconds(span, kids)
        total[kind] += span.seconds
        worst[kind] = min(worst.get(kind, 1.0), coverage(span, kids))
        count[kind] += 1
    return {
        kind: (covered[kind] / total[kind] if total[kind] > 0 else 1.0,
               worst[kind], count[kind])
        for kind in total
    }
