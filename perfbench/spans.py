"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one call of a wrapped function: its name, start and end on
``time.perf_counter`` (CLOCK_MONOTONIC, shared by every process on the
host, so a parent can place a child's spans on its own timeline), the
index of the span that was open when it started, the run it belongs to,
and optional attributes attached when the call returns.  Nothing is
written until the caller asks for ``to_json``.

The program has no queues or worker pools, so there is no time spent
waiting for another layer to record: every span is busy time on the one
thread that runs the command.
"""
from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for the calls it wraps."""

    def __init__(self, run: int = 0, clock=time.perf_counter):
        self.run = run
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.run))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def wrap(self, fn, name, on_exit=None):
        """Return fn wrapped in a span.

        ``name`` is a string or a callable of the call's (args, kwargs)
        returning one.  ``on_exit(span, args, kwargs, result)`` may set
        attributes once the call has returned; it runs after the span's
        end is taken, so its cost lands in the enclosing span's self time.
        """
        naming = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(naming(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(index)
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, on_exit=None) -> None:
        """Replace owner.attr, where callers look it up, by a traced copy."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, on_exit))

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run, "attrs": s.attrs}
                for s in self.spans]


def spans_from_json(rows) -> list[Span]:
    return [Span(r["name"], r["start"], r["end"], r["parent"], r["run"],
                 r.get("attrs", {})) for r in rows]


def load_spans(path) -> list[Span]:
    """Spans of a file written by ``traced_cli.py``.

    The first line is the JSON list of spans; each further line is one
    span recorded after that list was written (the write itself).
    """
    first, *rest = Path(path).read_text(encoding="utf-8").splitlines()
    return spans_from_json(json.loads(first) + [json.loads(r) for r in rest])


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [s.duration - covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def untraced_time(spans: list[Span], start: float, end: float) -> float:
    """Time in [start, end] that no top-level span covers."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return (end - start) - covered(roots, start, end)
