"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: name, start, end, parent span id and the
key of the unit of work it belongs to (a setup repetition, a scene of a
pass, an evaluation repetition).  Child spans inherit their parent's key.
Spans stay in memory and are written out once, after the run.

Calls the library makes internally are traced by temporarily replacing the
module attribute the caller looks up (for example ``pipeline.embed``) with
a wrapper; ``patched`` restores every original on exit.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: list[tuple[str, tuple, object]] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, key=None):
        parent = self._stack[-1] if self._stack else None
        if key is None and parent is not None:
            key = parent["key"]
        rec = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "name": name,
            "key": key,
            "start": time.perf_counter(),
            "end": None,
            "error": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` recorded as a span; arguments and result kept for counting."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls.append((name, args, result))
            return result

        return traced

    def take_calls(self) -> list[tuple[str, tuple, object]]:
        calls, self.calls = self.calls, []
        return calls

    @contextmanager
    def patched(self, targets):
        """Trace every ``(module, attribute, span name)`` target while active."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def children(self) -> dict[int, list[dict]]:
        out: dict[int, list[dict]] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                out.setdefault(rec["parent"], []).append(rec)
        return out


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_time(rec: dict, kids: list[dict]) -> float:
    """Span duration minus the part of it that child spans cover."""
    covered = 0.0
    cursor = rec["start"]
    for kid in sorted(kids, key=lambda k: k["start"]):
        lo = max(kid["start"], cursor)
        hi = min(kid["end"], rec["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return duration(rec) - covered
