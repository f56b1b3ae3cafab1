"""In-memory span tracing, self-time arithmetic and the reporting rules.

A span records a name ``<layer>.<what>``, its start and end, the span open
when it began (its parent) and the run it belongs to. Spans stay in memory
until the run ends. The benchmark opens them from its own files, around calls
into the package; nothing inside the package is changed.
"""

from __future__ import annotations

import functools
import json
import math
import re
import time
import types
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Raised by a layer as an answer, not as a failure (an empty a - b query).
EXPECTED_ERRORS = frozenset({"EmptyDifferenceError"})
# A percentile needs this many samples above it; a thinner tail is not reported.
MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """Letters, digits, ``_``, ``.`` and ``-``; starts with a letter or digit; <= 64."""
    return _METRIC_NAME.fullmatch(name) is not None


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (NumPy's default rule).

    Refuses, with ValueError, a percentile that fewer than ``MIN_BEYOND``
    samples rank above: such a tail is too thin to report.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = q / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    beyond = len(xs) - 1 - lo
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it; needs {MIN_BEYOND}"
        )
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "error", "tag")

    def __init__(self, span_id, name, parent, run, start, tag=None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = start
        self.end = start
        self.error = None
        self.tag = tag

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class NullTracer:
    """Tracing off: spans cost nothing and nothing is recorded."""

    def span(self, name, tag=None):
        return nullcontext()


class Tracer:
    """Records nested spans of one single-threaded run, plus named counters."""

    def __init__(self, run_id: str, clock=time.perf_counter, producer_of=None):
        """``producer_of(generator)`` names the span for a generator passed
        into a wrapped function, or returns None to leave it alone."""
        self.run_id = run_id
        self.clock = clock
        self.producer_of = producer_of
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item_hooks: dict = {}
        self._stack: list[Span] = []

    def open(self, name: str, tag=None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run_id, self.clock(), tag)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = self.clock()
        if error is not None:
            span.error = type(error).__name__
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str, tag=None):
        s = self.open(name, tag)
        try:
            yield s
        except BaseException as exc:
            self.close(s, exc)
            raise
        self.close(s)

    def wrap(self, fn, name: str, *, tag=None, on_result=None):
        """``fn`` inside a span called ``name``.

        ``tag(args, kwargs)`` labels the span; ``on_result(tracer, args,
        kwargs, result)`` records counts. A generator returned by ``fn``, or
        passed to it from a layer ``producer_of`` knows, is wrapped by
        :meth:`iterate`, so the time spent producing its items stays with the
        producer whoever consumes them.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.producer_of is not None:
                args = tuple(self._attribute(a) for a in args)
            s = self.open(name, tag(args, kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(s, exc)
                raise
            self.close(s)
            if isinstance(result, types.GeneratorType):
                result = self.iterate(name, result)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def _attribute(self, arg):
        if isinstance(arg, types.GeneratorType):
            name = self.producer_of(arg)
            if name is not None:
                return self.iterate(name, arg)
        return arg

    def iterate(self, name: str, iterable):
        """Yield from ``iterable``, timing each ``next()`` as a span ``name``.

        The span opens under whatever span the consumer has open, so the
        consumer's self time excludes the producer's work. Items are counted
        as ``<name>.items``; ``item_hooks[name](tracer, item)`` may count more.
        """
        on_item = self.item_hooks.get(name)
        it = iter(iterable)
        while True:
            s = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                self.close(s)
                return
            except BaseException as exc:
                self.close(s, exc)
                raise
            self.counts[f"{name}.items"] += 1
            if on_item is not None:
                on_item(self, item)
            self.close(s)
            yield item

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)


class SpanTotals:
    """Per-name and per-layer sums over a finished run's spans.

    Self time is a span's duration minus the time its direct children
    cover. Children of a span in a single-threaded run never overlap, so
    that part is the sum of their durations.
    """

    def __init__(self, spans):
        spans = list(spans)
        children = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                children[s.parent] += s.duration
        self._spans = spans
        self._by_id = {s.id: s for s in spans}
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.errors = defaultdict(int)
        self.raised = defaultdict(int)
        self.total_by_tag = defaultdict(float)
        self.root_total = 0.0
        for s in spans:
            own = s.duration - children[s.id]
            self.total[s.name] += s.duration
            self.self_time[s.name] += own
            self.calls[s.name] += 1
            self.layer_self[s.layer] += own
            if s.tag is not None:
                self.total_by_tag[(s.name, s.tag)] += s.duration
            if s.error is not None:
                self.raised[s.name] += 1
                if s.error not in EXPECTED_ERRORS:
                    self.errors[s.layer] += 1
            if s.parent is None:
                self.root_total += s.duration

    def total_outside(self, name: str, parent_name: str) -> float:
        """Summed duration of ``name`` spans not directly under a ``parent_name`` span."""
        return math.fsum(
            s.duration
            for s in self._spans
            if s.name == name
            and (s.parent is None or self._by_id[s.parent].name != parent_name)
        )
