"""An in-memory span recorder for the traced run.

Spans are recorded by the benchmark's own code around calls into a
layer's public functions (outside-in): nothing in the program under
test is changed or patched globally.  Where a layer function calls back
into an object the benchmark handed it (a store), :meth:`Recorder.wrap`
replaces that one object's bound method, so the call shows up as a
child span of the layer call that made it.

Each span holds a name, start, end, parent span and request id; spans
stay in memory and :meth:`Recorder.write_jsonl` writes them out when
the run ends.  A span's self time is its duration minus the time its
child spans cover (spans are recorded on one thread, so children nest
strictly and never overlap).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; a disabled recorder records nothing and costs one
    attribute test per span."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[tuple[int, str | None]] = []
        self._next = 1

    @contextmanager
    def span(self, name: str, request: str | None = None):
        if not self.enabled:
            yield
            return
        sid = self._next
        self._next += 1
        parent, inherited = self._stack[-1] if self._stack else (None, None)
        request = request if request is not None else inherited
        self._stack.append((sid, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, request))

    def wrap(self, obj, method: str, name: str, *,
             materialize: bool = False, after=None) -> None:
        """Record a span around every call of ``obj.method``.  With
        *materialize*, an iterator result is drained inside the span
        (so its reads are timed) and handed on as a list.  *after*
        runs inside the span once the call returned."""
        original = getattr(obj, method)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
                if materialize:
                    result = list(result)
                if after is not None:
                    after(result)
                return result

        setattr(obj, method, traced)

    # -- derived numbers ------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return {span.id: span.duration - covered[span.id]
                for span in self.spans}

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def descendants(self, root: int) -> list[Span]:
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        found, todo = [], [root]
        while todo:
            for child in children[todo.pop()]:
                found.append(child)
                todo.append(child.id)
        return found

    def write_jsonl(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                row = asdict(span)
                row["self"] = selfs[span.id]
                handle.write(json.dumps(row) + "\n")
