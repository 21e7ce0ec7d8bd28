"""Evaluation against expected-annotation records and the offline-vs-online
latency benchmark.

The online backend is modeled, not run: it is the offline pipeline plus a
fixed latency per stage, so its medians follow from the measured offline ones
without touching a rate-limited public API or sleeping through its latency.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable
from pathlib import Path
from statistics import median
from typing import NamedTuple

from .closure import TypeClosure
from .errors import EmptyMention, GoldMismatch
from .index import Index, search
from .kb import (
    EntityId,
    ValidatedConfig,
    _unique_keys,
    read_lines,
    typed_field,
    write_jsonl,
)
from .linker import CELL, link_from_candidates
from .tables import CellAnnotation, TableAnnotation
from .text import normalize

SECONDS_PER_DAY = 86400.0


class GoldRecord(NamedTuple):
    """Expected annotation for one cell; header cells use row -1. expected
    None means the cell should not link (literal or no suitable entity)."""

    table_id: str
    row: int
    col: int
    expected: EntityId | None


def _gold_from_obj(obj: dict) -> GoldRecord:
    unknown = obj.keys() - GoldRecord._fields
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)}")
    expected = typed_field(obj, "expected", str, type(None), default=None)
    return GoldRecord(typed_field(obj, "table_id", str),
                      typed_field(obj, "row", int), typed_field(obj, "col", int),
                      None if expected is None else EntityId.parse(expected))


def read_gold(path: str | Path) -> list[GoldRecord]:
    """The gold lines of path. A line with a key that is not a GoldRecord
    field, or with a repeated key, is refused as read_lines() refuses a line."""
    return list(read_lines(path, lambda line: _gold_from_obj(
        json.loads(line, object_pairs_hook=_unique_keys))))


def _gold_obj(g: GoldRecord) -> dict:
    return {**g._asdict(), "expected": g.expected.raw if g.expected else None}


def write_gold(path: str | Path, gold: Iterable[GoldRecord]) -> int:
    return write_jsonl(path, map(_gold_obj, gold))


class TableScore(NamedTuple):
    cells_with_gold: int = 0
    recall_hits: int = 0
    precision_hits: int = 0
    linked_cells: int = 0


class EvalReport(NamedTuple):
    cells_with_gold: int
    linked_cells: int
    candidate_recall: float
    precision: float
    degenerate: bool
    per_table: dict[str, TableScore]

    def to_obj(self) -> dict:
        return {**self._asdict(), "per_table": {
            t: s._asdict() for t, s in sorted(self.per_table.items())}}


def evaluate(annotations: Iterable[TableAnnotation],
             gold: Iterable[GoldRecord]) -> EvalReport:
    """Candidate recall and precision over the cells with a non-null expected
    annotation.

    Recall counts the expected id anywhere in the cell's candidate list;
    precision counts the chosen link equaling it. Cells with expected null
    are excluded from both denominators; linked_cells reports how many of the
    scored cells actually got a link, since the two denominators differ.
    Two annotations of one table are refused: which one to score is not
    defined. Gold with no scorable cell gives zeros and degenerate=True.
    """
    by_table: dict[str, dict[tuple[int, int], CellAnnotation]] = {}
    for ann in annotations:
        if ann.table_id in by_table:
            raise GoldMismatch(f"two annotations of table {ann.table_id!r}")
        by_table[ann.table_id] = ann.by_coord()

    seen: set[tuple[str, int, int]] = set()
    per_table: dict[str, TableScore] = {}
    for g in gold:
        key = (g.table_id, g.row, g.col)
        if key in seen:
            raise GoldMismatch(f"duplicate gold coordinate {key}")
        seen.add(key)
        cell = by_table.get(g.table_id, {}).get((g.row, g.col))
        if cell is None:
            raise GoldMismatch(f"gold coordinate {key} absent from annotations")
        if g.expected is None:
            continue
        t = per_table.get(g.table_id, TableScore())
        entity = cell.kind == "entity"
        per_table[g.table_id] = TableScore(
            cells_with_gold=t.cells_with_gold + 1,
            recall_hits=t.recall_hits + (g.expected in cell.candidates),
            precision_hits=t.precision_hits + (entity and cell.entity_id == g.expected),
            linked_cells=t.linked_cells + entity)

    # A table is scored only once it has a cell with gold.
    if not per_table:
        return EvalReport(0, 0, 0.0, 0.0, degenerate=True, per_table={})
    total = TableScore(*map(sum, zip(*per_table.values())))
    return EvalReport(
        cells_with_gold=total.cells_with_gold,
        linked_cells=total.linked_cells,
        candidate_recall=total.recall_hits / total.cells_with_gold,
        precision=total.precision_hits / total.cells_with_gold,
        degenerate=False,
        per_table=per_table,
    )


class BackendTimes(NamedTuple):
    """One backend's median seconds per mention, per stage and in total, and
    the corpus projection at that total (None without a projection)."""

    candidate_s: float
    type_s: float
    total_s: float
    projected_days: float | None = None


class LatencyReport(NamedTuple):
    mentions_timed: int
    skipped: int
    offline: BackendTimes
    online: BackendTimes
    speedup: float

    def to_obj(self) -> dict:
        return {**self._asdict(), "offline": self.offline._asdict(),
                "online": self.online._asdict()}


def project_corpus_days(tables: int, cells_per_table: int,
                        per_mention_s: float) -> float:
    """Projected wall time, in days, to link a corpus one mention at a time."""
    return tables * cells_per_table * per_mention_s / SECONDS_PER_DAY


def bench(mentions: Iterable[str],
          index: Index,
          closure: TypeClosure,
          config: ValidatedConfig,
          online_latencies: tuple[float, float] = (12.0, 18.0),
          projection: tuple[int, int] | None = None) -> LatencyReport:
    """Time the offline pipeline per mention and model the online one.

    The online backend runs the same pipeline behind a round trip per stage:
    online_latencies are the candidate-stage and type-stage latencies in
    seconds. Since median(x + c) = median(x) + c, each online median is the
    offline median plus that stage's latency, so nothing sleeps. projection,
    (tables, cells_per_table), turns each backend's median total into corpus
    days. Raises ValueError, before anything is timed, for a latency that is
    negative or not finite, or a projection that is not two positive numbers.
    """
    d_cand, d_type = online_latencies
    if not all(0 <= d < float("inf") for d in online_latencies):
        raise ValueError("online_latencies must be finite, non-negative "
                         f"seconds, not {online_latencies!r}")
    if projection is not None and (len(projection) != 2 or min(projection) <= 0):
        raise ValueError(f"projection must be two positive numbers, not {projection!r}")
    cand_times: list[float] = []
    type_times: list[float] = []
    skipped = 0
    for mention in mentions:
        if not mention.strip():
            continue
        t0 = time.perf_counter()
        norm = normalize(mention)
        try:
            raw = search(index, mention, config.params.k, normalized=norm)
        except EmptyMention:
            skipped += 1
            continue
        t1 = time.perf_counter()
        link_from_candidates(mention, raw, CELL, None, None, closure, config,
                             normalized=norm)
        t2 = time.perf_counter()
        cand_times.append(t1 - t0)
        type_times.append(t2 - t1)
    if not cand_times:
        zero = BackendTimes(0.0, 0.0, 0.0)
        return LatencyReport(0, skipped, zero, zero, 0.0)

    def backend(candidate_s: float, type_s: float,
                total_s: float) -> BackendTimes:
        days = (project_corpus_days(*projection, total_s)
                if projection is not None else None)
        return BackendTimes(candidate_s, type_s, total_s, days)

    offline = backend(median(cand_times), median(type_times),
                      median(c + t for c, t in zip(cand_times, type_times)))
    online = backend(offline.candidate_s + d_cand, offline.type_s + d_type,
                     offline.total_s + d_cand + d_type)
    speedup = (online.total_s / offline.total_s if offline.total_s > 0
               else float("inf"))
    return LatencyReport(len(cand_times), skipped, offline, online, speedup)
