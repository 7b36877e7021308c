"""Spans recorded from outside the program, around its public entry points.

:meth:`SpanRecorder.wrap` replaces one attribute of an object the benchmark
built (or of a class) with a wrapper that records a span per call: name,
start, end, parent span and request id.  Spans stay in memory and are
aggregated (or written out) when the run ends.  A layer's self time is its
span duration minus the time its child spans cover; children of one span
run on the same thread and never overlap, so that is the sum of their
durations.
"""

from __future__ import annotations

import json
import threading
from typing import Any

from smacsbench.harness import clock

# span record layout: [name, start, end, parent, request]
_NAME, _START, _END, _PARENT, _REQUEST = range(5)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.enabled = False
        #: request id stamped on spans opened from now on (set by the loop)
        self.request = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` may be an instance (the bound method is wrapped for that
        object only) or a class (its function is wrapped for every
        instance).
        """
        if isinstance(owner, type):
            function = owner.__dict__[attr]

            def wrapper(this, *args, **kwargs):
                if not self.enabled:
                    return function(this, *args, **kwargs)
                return self._call(name, function, (this, *args), kwargs)
        else:
            bound = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return bound(*args, **kwargs)
                return self._call(name, bound, args, kwargs)

        setattr(owner, attr, wrapper)

    def run(self, name: str, function: Any, *args: Any) -> Any:
        """``function(*args)``, inside a ``name`` span when recording."""
        if not self.enabled:
            return function(*args)
        return self._call(name, function, args, {})

    def _call(self, name: str, function: Any, args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        record = [name, clock(), 0.0, stack[-1] if stack else None, self.request]
        with self._lock:
            self.spans.append(record)
        stack.append(record)
        try:
            return function(*args, **kwargs)
        finally:
            record[_END] = clock()
            stack.pop()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``total`` and ``self`` seconds."""
        child_time: dict[int, float] = {}
        for record in self.spans:
            parent = record[_PARENT]
            if parent is not None:
                child_time[id(parent)] = (
                    child_time.get(id(parent), 0.0) + record[_END] - record[_START]
                )
        out: dict[str, dict[str, float]] = {}
        for record in self.spans:
            duration = record[_END] - record[_START]
            entry = out.setdefault(record[_NAME], {"count": 0, "total": 0.0, "self": 0.0})
            entry["count"] += 1
            entry["total"] += duration
            entry["self"] += duration - child_time.get(id(record), 0.0)
        return out

    def root_time(self) -> float:
        """Seconds covered by root spans (they never overlap on one thread)."""
        return sum(r[_END] - r[_START] for r in self.spans if r[_PARENT] is None)

    def dump(self, path: str) -> None:
        """Write every span out (parents as indexes into the list)."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [r[_NAME], r[_START], r[_END],
             None if r[_PARENT] is None else index[id(r[_PARENT])], r[_REQUEST]]
            for r in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


def merge(into: dict, other: dict) -> dict:
    """Add one :meth:`SpanRecorder.aggregate` result into another."""
    for name, entry in other.items():
        slot = into.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        for key in slot:
            slot[key] += entry[key]
    return into
