"""Spans and counters recorded from outside the program.

The tracer replaces module attributes of the tablink package with timing
wrappers, so nothing under ``src/`` changes. A caller looks a function up in
its own module's namespace (``tablink.tables`` calls ``cached_link`` through
``tablink.tables.cached_link``), so each boundary is wrapped where it is
called from.

Spans carry name, start, end, parent span and a request id (the table id
being linked). Functions called many times per mention (type-tier
classification, the context scorer, column voting) are counted and timed
without spans, which keeps the tracing cost and the trace file small.
Spans stay in memory and are written as JSON Lines when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path

# (module, attribute, span name, kind). kind "span" times a call; "gen"
# times a generator function by draining it inside the span (the caller then
# iterates a list, which changes nothing it computes); "count" adds calls and
# seconds to a counter; "table" is a span that also sets the request id to
# the table's id; "cache" is a span that also records whether the cache
# computed the result.
BOUNDARIES = (
    ("tablink.cli", "ingest_dump", "ingest.ingest_dump", "span"),
    ("tablink.cli", "read_records", "kb.read_records", "gen"),
    ("tablink.cli", "build_closure", "closure.build_closure", "span"),
    ("tablink.cli", "write_closure", "closure.write_closure", "span"),
    ("tablink.cli", "Index", "index.build", "span"),
    ("tablink.cli", "save_index", "index.save_index", "span"),
    ("tablink.cli", "load_index", "index.load_index", "span"),
    ("tablink.cli", "read_closure", "closure.read_closure", "span"),
    ("tablink.cli", "load_config", "kb.load_config", "span"),
    ("tablink.cli", "link_table", "tables.link_table", "table"),
    ("tablink.index", "read_records", "kb.read_records", "gen"),
    ("tablink.index", "load_index", "index.load_index", "span"),
    ("tablink.closure", "read_closure", "closure.read_closure", "span"),
    ("tablink.kb", "load_config", "kb.load_config", "span"),
    ("tablink.tables", "link_table", "tables.link_table", "table"),
    ("tablink.tables", "cached_link", "tables.cached_link", "span"),
    ("tablink.tables", "column_type_vote", "tables.column_type_vote", "count"),
    ("tablink.linker", "link", "linker.link", "span"),
    ("tablink.linker", "search", "index.search", "span"),
    ("tablink.linker", "link_from_candidates", "linker.link_from_candidates",
     "span"),
    ("tablink.linker", "classify_type_tier", "linker.classify_type_tier",
     "count"),
    ("tablink.linker", "context_similarity", "linker.context_similarity",
     "count"),
    ("tablink.linker.LinkCache", "get_or_compute", "linker.cache_get", "cache"),
)


def _resolve(path: str):
    import importlib

    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), attr)


class Tracer:
    def __init__(self, phase: str = "", request: str | None = None):
        self.phase = phase
        self.request = request
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_span: int | None = None
        self._counter_sets: list[dict] = []
        self._installed: list[tuple] = []

    # recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counters(self) -> dict:
        counters = getattr(self._local, "counters", None)
        if counters is None:
            # One dict per thread: no lost updates without a lock, and the
            # sets are merged when the trace is written.
            counters = self._local.counters = {}
            self._counter_sets.append(counters)
        return counters

    def _span(self, name: str, fn, kind: str):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Worker threads of a table start with an empty stack; their
            # spans belong to the table being linked.
            parent = stack[-1] if stack else self._request_span
            sid = next(self._ids)
            outer = (self.request, self._request_span)
            if kind == "table":
                self.request, self._request_span = args[0].table_id, sid
            extra = None
            if kind == "cache":
                computed = []
                compute = args[2] if len(args) > 2 else kwargs.pop("compute")

                def traced_compute():
                    computed.append(True)
                    return compute()
                args = args[:2] + (traced_compute,)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if kind == "gen":
                    result = iter(list(result))
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if kind == "cache":
                    extra = "miss" if computed else "hit"
                self.spans.append((sid, parent, name, start, end,
                                   self.request, extra, self.phase))
                if kind == "table":
                    self.request, self._request_span = outer
        return wrapper

    def _count(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                c = self._counters()
                key = (self.phase, name)
                calls, seconds = c.get(key, (0, 0.0))
                c[key] = (calls + 1, seconds + time.perf_counter() - start)
        return wrapper

    # installation ----------------------------------------------------------

    def install(self, boundaries=BOUNDARIES) -> None:
        for owner_path, attr, name, kind in boundaries:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            if kind == "count":
                wrapped = self._count(name, original)
            else:
                wrapped = self._span(name, original, kind)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # output ----------------------------------------------------------------

    def counters(self) -> dict[tuple[str, str], tuple[int, float]]:
        """(phase, name) -> (calls, seconds), summed over threads."""
        merged: dict[tuple[str, str], tuple[int, float]] = {}
        for c in self._counter_sets:
            for key, (calls, seconds) in c.items():
                m_calls, m_seconds = merged.get(key, (0, 0.0))
                merged[key] = (m_calls + calls, m_seconds + seconds)
        return merged

    def write(self, path: str | Path) -> None:
        """Append this process's spans and counters as JSON Lines."""
        pid = os.getpid()
        with open(path, "a", encoding="utf-8", newline="\n") as fp:
            for sid, parent, name, start, end, request, extra, phase \
                    in self.spans:
                obj = {"pid": pid, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end, "request": request,
                       "phase": phase}
                if extra:
                    obj["outcome"] = extra
                fp.write(json.dumps(obj) + "\n")
            for (phase, name), (calls, seconds) in sorted(self.counters().items()):
                fp.write(json.dumps({"pid": pid, "counter": name,
                                     "calls": calls, "seconds": seconds,
                                     "phase": phase}) + "\n")


def read_trace(path: str | Path) -> tuple[list[dict], list[dict]]:
    spans, counters = [], []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            obj = json.loads(line)
            (counters if "counter" in obj else spans).append(obj)
    return spans, counters


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]. Children on
    worker threads may overlap each other; their union is counted once."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover. Keys are (pid, span id)."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["pid"], s["parent"]), []).append(
                (s["start"], s["end"]))
    return {(s["pid"], s["id"]):
            (s["end"] - s["start"])
            - covered(children.get((s["pid"], s["id"]), []), s["start"], s["end"])
            for s in spans}
