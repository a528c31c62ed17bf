"""In-memory span recording for the traced run.

The benchmark records its own spans around each call it makes into a
layer (and, for calls a layer makes into another, by rebinding that
layer's public name for the length of the traced run), so the program
under ``src/`` carries no benchmark code. Spans are kept in memory and
written out once the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; each thread nests its own spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None
             ) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, time.perf_counter(), 0.0,
                    None if parent is None else parent.id, request)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def add(self, name: str, start: float, end: float,
            request: Optional[str] = None) -> Span:
        """Record a span timed elsewhere (e.g. an ask on the wire)."""
        with self._lock:
            span = Span(next(self._ids), name, start, end, None, request)
            self.spans.append(span)
        return span

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and their overlaps
    merged, so concurrent children are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


def by_name(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and self seconds."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name,
                               {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
    return table


def _traced(recorder: Recorder, name: str, fn: Callable,
            on_result: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result
    return wrapper


@contextmanager
def instrumented(recorder: Recorder, targets) -> Iterator[None]:
    """Rebind ``owner.attr`` to a span-recording wrapper for each
    ``(owner, attr, span_name[, on_result])`` target; restore on exit.

    Works for module functions, plain methods, and static methods (the
    wrapper stays static, so class-level calls keep their arguments).
    """
    with ExitStack() as stack:
        for target in targets:
            owner, attr, name = target[:3]
            on_result = target[3] if len(target) > 3 else None
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    _traced(recorder, name, raw.__func__, on_result))
            else:
                wrapped = _traced(recorder, name, raw, on_result)
            setattr(owner, attr, wrapped)
            stack.callback(setattr, owner, attr, raw)
        yield
