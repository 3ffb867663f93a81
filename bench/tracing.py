"""In-memory spans around the benchmark's calls into the library.

A span records its name, start, end, the span that was open when it
began and the operation it belongs to.  Spans stay in memory until the
run ends, when ``write_jsonl`` saves them.  A span's self time is its
duration minus the time covered by its direct children; the calls into
the library never call back into the benchmark, so library spans have no
children and their self time is their whole duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Tracing switched off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, op=None):
        yield


class Tracer:
    """Records one span per ``call`` or ``span``, nested by a stack."""

    def __init__(self):
        # each span: [id, name, op, parent id, start, end]
        self.spans: list[list] = []
        self._open: list[list] = []

    def _begin(self, name, op):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = parent[2]
        record = [len(self.spans), name, op, parent[0] if parent else None, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record)
        return record

    def _end(self, record):
        record[5] = time.perf_counter()
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        record = self._begin(name, None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(record)

    @contextmanager
    def span(self, name, op=None):
        record = self._begin(name, op)
        try:
            yield
        finally:
            self._end(record)

    def self_times(self, roots=None, key=None) -> dict[str, float]:
        """Total self time per span name, limited to spans whose root
        span (the outermost one) is named in ``roots`` when given.
        ``key(name, op)`` replaces the name as the grouping key; spans it
        maps to None are left out."""
        child_time = defaultdict(float)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        root_of: dict[int, str] = {}
        totals: dict[str, float] = defaultdict(float)
        for sid, name, op, parent, start, end in self.spans:
            root_of[sid] = name if parent is None else root_of[parent]
            group = name if key is None else key(name, op)
            if group is not None and (roots is None or root_of[sid] in roots):
                totals[group] += end - start - child_time[sid]
        return dict(totals)

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "op", "parent", "start", "end")
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(keys, record))) + "\n")
