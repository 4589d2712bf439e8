"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and end time (``time.perf_counter``), the id
of the span that was open when it started, a replicate id shared by all
spans of one replicate, and an optional work count.  Spans stay in
memory and are written out once, when the run ends, so recording costs
a clock read and a list append per boundary.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, rep: str | None = None):
        """Time the enclosed block; ``rep`` defaults to the parent's."""
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "rep": rep if rep is not None or parent is None else parent["rep"],
            "count": None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def median_s(self, name: str) -> float:
        return statistics.median(s["end"] - s["start"] for s in self.named(name))

    def rate(self, name: str) -> float:
        """Counted work per second of the named spans' busy time."""
        spans = self.named(name)
        return sum(s["count"] for s in spans) / sum(s["end"] - s["start"] for s in spans)

    def median_self_s(self, name: str) -> float:
        """Median of each named span's duration minus its children's."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        return statistics.median(
            s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in self.named(name)
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
