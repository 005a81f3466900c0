"""In-memory spans around the benchmark's calls into each library layer.

A span records name, start, end, parent span and operation id.  Spans are
kept in a list and written out once, when the run ends.  The untraced
runs use ``NullTracer``, whose spans cost one attribute lookup and an
empty context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: list):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        self.tracer._stack.append(self.rec[0])
        self.rec[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans; ``op_id`` tags every span opened while it is set."""

    enabled = True

    def __init__(self):
        self.spans: list = []  # [id, name, start, end, parent, op_id]
        self._stack: list = []
        self.op_id = None

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, 0.0, 0.0, parent, self.op_id]
        self.spans.append(rec)
        return _Span(self, rec)

    def self_times(self) -> dict:
        """Self time in seconds of every span, by span id.

        A span's self time is its duration minus the union of the
        intervals its child spans cover.
        """
        children: dict = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start) - covered
        return out

    def write(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "op_id")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(fields, rec))) + "\n")


class NullTracer:
    enabled = False
    op_id = None

    def span(self, name: str):
        return _NULL


def span_cost_us(count: int = 20000) -> float:
    """Cost of opening and closing one empty span, in microseconds."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(count):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - start) / count * 1e6
