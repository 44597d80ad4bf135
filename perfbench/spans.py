"""In-memory span recorder for the traced run, and self-time arithmetic.

The benchmark records spans from its own code, around each call it makes
into a layer of the program; nothing inside the program is instrumented.
Spans stay in memory and are written out as NDJSON when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call: name, interval, parent span and request id."""

    span_id: int
    parent_id: Optional[int]
    request_id: str
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "request_id": self.request_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Recorder:
    """Records nested spans from one thread.

    ``request`` opens a root span and stamps its id on every span opened
    inside it; ``span`` nests under whatever span is open.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._requests = 0

    @contextmanager
    def request(self, kind: str, **attrs: Any) -> Iterator[Span]:
        self._requests += 1
        request_id = f"{kind}-{self._requests}"
        with self._open(f"request.{kind}", request_id, attrs) as span:
            yield span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        request_id = self._stack[-1].request_id if self._stack else ""
        with self._open(name, request_id, attrs) as span:
            yield span

    @contextmanager
    def _open(self, name: str, request_id: str, attrs: Dict[str, Any]) -> Iterator[Span]:
        span = Span(
            span_id=len(self.spans) + 1,
            parent_id=self._stack[-1].span_id if self._stack else None,
            request_id=request_id,
            name=name,
            start=self.clock(),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def to_ndjson(self) -> str:
        return "".join(json.dumps(s.to_dict(), sort_keys=True) + "\n" for s in self.spans)


class NullRecorder:
    """Takes the place of a :class:`Recorder` in an untraced pass.

    Its spans record nothing, so a pass run with it costs what the same
    calls cost without tracing.
    """

    def __init__(self) -> None:
        self._span = Span(0, None, "", "", 0.0)

    def request(self, kind: str, **attrs: Any):
        return nullcontext(self._span)

    def span(self, name: str, **attrs: Any):
        return nullcontext(self._span)


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Children may overlap each other (concurrent calls) or spill past their
    parent; neither may be subtracted twice or beyond the parent.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if min(e, end) > max(s, start)
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for s, e in clipped:
        if run_start is None or s > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_request(spans: Iterable[Span], name: str) -> List[float]:
    """Summed self time of spans called ``name``, one value per request."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if span.name == name:
            totals[span.request_id] = totals.get(span.request_id, 0.0) + own[span.span_id]
    return list(totals.values())
