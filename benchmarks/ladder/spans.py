"""In-memory spans for the traced run.

One span per public call the benchmark makes into a layer, recorded
from the benchmark's side only (spans *inside* ``repro`` are a later
change).  A span is ``(name, start_ns, end_ns, parent, trace)``:
``parent`` is the index of the span that caused it (``-1`` for a root)
and ``trace`` the identifier every span of one request shares
(``<workload>/r<round>/c<chunk>``).  Spans stay in a list until the
run ends; :meth:`Tracer.write` dumps them with the per-name self
times and counts.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

ROOT = -1


class Tracer:
    def __init__(self) -> None:
        # parallel lists: five appends per span keep the recording cost
        # (what bench.trace_overhead_pct reports) as low as python allows
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.traces: list[str] = []

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: int = ROOT, trace: str = "") -> int:
        self.names.append(name)
        self.starts.append(start_ns)
        self.ends.append(end_ns)
        self.parents.append(parent)
        self.traces.append(trace)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str, parent: int = ROOT,
             trace: str = "") -> Iterator[int]:
        """Time the body; the yielded index is the parent for spans
        recorded inside it."""
        index = self.add(name, time.perf_counter_ns(), 0, parent, trace)
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter_ns()

    def seconds(self, index: int) -> float:
        """Duration of a finished span."""
        return (self.ends[index] - self.starts[index]) / 1e9

    def extend(self, other: "Tracer", parent: int = ROOT) -> None:
        """Adopt spans recorded elsewhere (the SUT child ships its own
        list back); their roots hang under ``parent``."""
        offset = len(self.names)
        self.names.extend(other.names)
        self.starts.extend(other.starts)
        self.ends.extend(other.ends)
        self.traces.extend(other.traces)
        self.parents.extend(parent if p == ROOT else p + offset
                            for p in other.parents)

    def __len__(self) -> int:
        return len(self.names)

    # -- self time ---------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total duration and self time — a span's
        duration minus the part of its interval its child spans cover
        (children are clipped to the parent and their union is taken,
        so overlapping children are not subtracted twice)."""
        children: dict[int, list[tuple[int, int]]] = {}
        for index, parent in enumerate(self.parents):
            if parent != ROOT:
                children.setdefault(parent, []).append(
                    (self.starts[index], self.ends[index]))
        summary: dict[str, dict] = {}
        for index, name in enumerate(self.names):
            start, end = self.starts[index], self.ends[index]
            covered = covered_ns(start, end, children.get(index, ()))
            row = summary.setdefault(
                name, {"count": 0, "total_ns": 0, "self_ns": 0})
            row["count"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - covered
        return summary

    # -- output ------------------------------------------------------------

    def to_dict(self, **extra) -> dict:
        return {
            **extra,
            "span_fields": ["name", "start_ns", "end_ns", "parent",
                            "trace"],
            "spans": [list(row) for row in zip(
                self.names, self.starts, self.ends, self.parents,
                self.traces)],
            "self_times": self.self_times(),
        }

    def write(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(**extra)) + "\n",
                        encoding="utf-8")

    @classmethod
    def from_dict(cls, payload: dict) -> "Tracer":
        tracer = cls()
        for name, start, end, parent, trace in payload["spans"]:
            tracer.add(name, start, end, parent, trace)
        return tracer


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
