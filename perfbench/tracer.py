"""In-memory span tracer for the benchmark's traced run.

`Tracer.wrap` replaces a function or method on the object its callers look
it up on (for example `reciteqa.pipeline.build_qa_prompt`, the name pipeline
calls) with a wrapper that records a span: id, parent id, name, start, end
and an optional value derived from the result. Nothing inside `src/` is
changed. A span's parent is the innermost open span on the same thread;
work handed to a pool thread has none there, so it takes the innermost open
span marked `ambient` instead (the dataset run for question workers, the
batch for request workers). The benchmark runs one question at a time, so
that attribution is exact.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ambient: list[int] = []
        self._next_id = 0

    def _open(self, ambient: bool) -> tuple[int, int, list]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
            if stack:
                parent = stack[-1]
            else:
                parent = self._ambient[-1] if self._ambient else 0
            if ambient:
                self._ambient.append(span_id)
        stack.append(span_id)
        return span_id, parent, stack

    def _close(self, span_id: int, stack: list, ambient: bool) -> None:
        stack.pop()
        if ambient:
            with self._lock:
                self._ambient.remove(span_id)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        ambient: bool = False,
        info: Callable[[Any], Any] | None = None,
    ) -> None:
        """Record a span per call of `owner.attr`."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id, parent, stack = tracer._open(ambient)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._close(span_id, stack, ambient)
                value = info(result) if info is not None and result is not None else None
                tracer.spans.append(Span(span_id, parent, name, start, end, value))

        setattr(owner, attr, traced)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Record one ambient span per generator run, from the call until it
        is exhausted; its info is the list of times at which it yielded."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                yield from fn(*args, **kwargs)
                return
            span_id, parent, stack = tracer._open(True)
            start = perf_counter()
            emitted: list[float] = []
            try:
                for item in fn(*args, **kwargs):
                    emitted.append(perf_counter())
                    yield item
            finally:
                end = perf_counter()
                tracer._close(span_id, stack, True)
                tracer.spans.append(Span(span_id, parent, name, start, end, emitted))

        setattr(owner, attr, traced)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of `owner.attr` without recording spans."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                with tracer._lock:
                    tracer.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def write(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            for span in self.spans:
                info = len(span.info) if isinstance(span.info, list) else span.info
                handle.write(
                    json.dumps([span.id, span.parent, span.name, span.start, span.end, info]) + "\n"
                )


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def children(spans: list[Span]) -> dict[int, list[Span]]:
    by_parent: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_parent[span.parent].append(span)
    return by_parent


def self_time(span: Span, by_parent: dict[int, list[Span]]) -> float:
    """The span's duration minus the part its child spans cover."""
    kids = by_parent.get(span.id, [])
    return span.duration - covered(
        [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
    )
