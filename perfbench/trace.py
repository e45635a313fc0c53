"""In-memory spans for the traced run.

A span has a name, start and end (``time.perf_counter`` seconds), the index
of its parent span and the operation it belongs to, plus an optional key
(for example the grade a classification returned). Spans are kept in a list
and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, op: str | None) -> dict:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                "op": op, "key": None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def op(self, op_id: str):
        """Root span of one benchmark operation."""
        span = self._open("op", op_id)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named after the package function."""
        span = self._open(name, None)
        span["start"] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[tuple[str, str | None], list[float]]:
        """Self time of every span (duration minus its children's), by (name, key)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[tuple[str, str | None], list[float]] = defaultdict(list)
        for s, c in zip(self.spans, child):
            out[(s["name"], s["key"])].append(s["end"] - s["start"] - c)
        return out

    def last_duration(self) -> float:
        """Duration of the most recently opened span (calls do not nest)."""
        s = self.spans[-1]
        return s["end"] - s["start"]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
