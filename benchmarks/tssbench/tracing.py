"""Spans recorded from outside the program.

The harness opens one *op* span around each call into the abstraction
layer; a :class:`RecordingRegistry` -- a ``MetricsRegistry`` subclass
injected through the public ``metrics=`` parameter of ``ClientPool`` /
``Adapter`` / ``DatabaseClient`` -- adds one child span per RPC.  The
client owns its stack and registry, so "the op in progress on this
registry" identifies the parent without thread-locals; RPCs issued by
the stack's helper threads (readahead) land on the same op.

Spans stay in memory until the run ends (``SpanBuffer.write``).
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Optional

from repro.transport.metrics import MetricsRegistry

__all__ = ["SpanBuffer", "RecordingRegistry", "self_time_ns"]

# Row layout of SpanBuffer.rows (dict keys of spans.jsonl, minus "workload").
FIELDS = ("trace", "span", "parent", "layer", "name", "start_ns", "end_ns", "bytes")


class SpanBuffer:
    """All spans of one traced replay."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list[tuple] = []  # list.append is atomic under the GIL
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as f:
            for row in self.rows:
                doc = {"workload": self.workload}
                doc.update(zip(FIELDS, row))
                f.write(json.dumps(doc) + "\n")

    def ops(self) -> list[tuple]:
        return [r for r in self.rows if r[2] is None]

    def children(self) -> dict[int, list[tuple]]:
        """RPC spans grouped by their parent op span."""
        out: dict[int, list[tuple]] = {}
        for row in self.rows:
            if row[2] is not None:
                out.setdefault(row[2], []).append(row)
        return out


class RecordingRegistry(MetricsRegistry):
    """A metrics registry that also turns every observed RPC into a span."""

    def __init__(self, spans: Optional[SpanBuffer] = None):
        super().__init__()
        self.spans = spans
        #: (trace id, op span id) of the op this registry's stack is
        #: serving; None outside the traced replay (set-up, warm-up).
        self.op: Optional[tuple[int, int]] = None

    def observe(self, verb, seconds, *, bytes_in=0, bytes_out=0, error=False, endpoint=None):
        super().observe(
            verb, seconds, bytes_in=bytes_in, bytes_out=bytes_out, error=error, endpoint=endpoint
        )
        op = self.op
        if op is None:
            return
        end = time.perf_counter_ns()
        spans = self.spans
        spans.rows.append(
            (op[0], spans.next_id(), op[1], "transport", verb,
             end - int(seconds * 1e9), end, bytes_in + bytes_out)
        )


def self_time_ns(start: int, end: int, children: list[tuple]) -> int:
    """A span's duration minus the part of it its children cover.

    Children may overlap each other (readahead runs beside a foreground
    RPC) and may outlive the parent; the union is clipped to the parent.
    """
    covered = 0
    cursor = start
    for child in sorted(children, key=lambda r: r[5]):
        lo, hi = max(child[5], cursor), min(child[6], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered
