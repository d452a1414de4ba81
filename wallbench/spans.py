"""In-memory span tracing by wrapping callables from outside the program.

A :class:`Tracer` records one span per call of every callable it wraps:
name, start, end, the span that was open when the call began (its parent)
and a request id where the caller knows one.  Nothing under ``src/`` is
edited — :class:`Patcher` swaps attributes on classes, instances and modules
and puts every original back on :meth:`Patcher.restore`.

Self time is a span's duration minus the time its child spans cover.  One
thread of control means children never overlap, so the sum of every span's
self time equals the time covered by root spans, and adding the untraced
gaps between root spans gives the run's wall time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    rid: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans (and per-span-name counters) in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        #: ``counters[name]`` — quantities recorded at the span boundaries
        #: (bytes moved, tokens, rows), summed over calls.
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, fn, name: str, on_result=None, rid_of=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``on_result(args, kwargs, result)`` runs after the span closes (so
        its cost is not charged to the layer) and may add to
        :attr:`counters`; ``rid_of(args, result)`` names the request the
        call serves, where the caller can tell.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent)
            if rid_of is not None:
                spans[idx].rid = rid_of(args, result)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def by_name(self) -> dict[str, dict]:
        """``name -> {"calls", "busy_s", "self_s", "durations"}``."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = out.setdefault(
                span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
            )
            row["calls"] += 1
            row["busy_s"] += span.duration
            row["self_s"] += own
            row["durations"].append(span.duration)
        return out

    def root_time(self) -> float:
        """Time covered by root spans (those with no parent)."""
        return sum(span.duration for span in self.spans if span.parent < 0)

    def write_chrome(self, path, origin: float) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto); timestamps are microseconds after ``origin``."""
        events = []
        for idx, span in enumerate(self.spans):
            args = {"span": idx, "parent": span.parent}
            if span.rid is not None:
                args["rid"] = span.rid
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class Patcher:
    """Replaces attributes and remembers how to put each one back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        """Set ``owner.attr = make(current)``; returns the replacement.

        ``owner`` may be a class, an instance or a module.  On a class the
        original is read from the class's own ``__dict__`` (so a method
        inherited from a base is restored by deleting the override).
        """
        own = vars(owner).get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        current = getattr(owner, attr)
        replacement = make(current)
        self._saved.append((owner, attr, own))
        setattr(owner, attr, replacement)
        return replacement

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
