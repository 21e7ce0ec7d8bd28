"""Evaluation against expected-annotation records and the offline-vs-online
latency benchmark.

The online backend is modeled, not run: it is the offline pipeline plus a
fixed latency per stage, so its medians follow from the measured offline ones
without touching a rate-limited public API or sleeping through its latency.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from .closure import TypeClosure
from .errors import EmptyMention, GoldMismatch
from .index import Index, search
from .kb import EntityId, ValidatedConfig, read_jsonl, typed_field, write_jsonl
from .linker import CELL, link_from_candidates
from .tables import TableAnnotation

log = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class GoldRecord:
    """Expected annotation for one cell; header cells use row -1. expected
    None means the cell should not link (literal or no suitable entity)."""

    table_id: str
    row: int
    col: int
    expected: EntityId | None


def _gold_from_obj(obj: dict) -> GoldRecord:
    expected = typed_field(obj, "expected", str, type(None), default=None)
    return GoldRecord(typed_field(obj, "table_id", str),
                      typed_field(obj, "row", int), typed_field(obj, "col", int),
                      None if expected is None else EntityId.parse(expected))


def read_gold(path: str | Path) -> list[GoldRecord]:
    return list(read_jsonl(path, _gold_from_obj))


def _gold_obj(g: GoldRecord) -> dict:
    return {"table_id": g.table_id, "row": g.row, "col": g.col,
            "expected": g.expected.raw if g.expected else None}


def write_gold(path: str | Path, gold: Iterable[GoldRecord]) -> int:
    return write_jsonl(path, map(_gold_obj, gold))


@dataclass(frozen=True)
class TableScore:
    cells_with_gold: int
    recall_hits: int
    precision_hits: int
    linked_cells: int


@dataclass(frozen=True)
class EvalReport:
    cells_with_gold: int
    linked_cells: int
    candidate_recall: float
    precision: float
    degenerate: bool = False
    per_table: dict[str, TableScore] = field(default_factory=dict)

    def to_obj(self) -> dict:
        obj = dataclasses.asdict(self)
        obj["per_table"] = dict(sorted(obj["per_table"].items()))
        return obj


def evaluate(annotations: Iterable[TableAnnotation],
             gold: Iterable[GoldRecord]) -> EvalReport:
    """Candidate recall and precision over the cells with a non-null expected
    annotation.

    Recall counts the expected id anywhere in the cell's candidate list;
    precision counts the chosen link equaling it. Cells with expected null
    are excluded from both denominators; linked_cells reports how many of the
    scored cells actually got a link, since the two denominators differ.
    Two annotations of one table are refused: which one to score is not
    defined.
    """
    by_coord: dict[tuple[str, int, int], object] = {}
    tables: set[str] = set()
    for ann in annotations:
        if ann.table_id in tables:
            raise GoldMismatch(f"two annotations of table {ann.table_id!r}")
        tables.add(ann.table_id)
        for cell in ann.headers + ann.cells:
            by_coord[(ann.table_id, cell.row, cell.col)] = cell

    seen: set[tuple[str, int, int]] = set()
    per_table: dict[str, dict[str, int]] = {}
    for g in gold:
        key = (g.table_id, g.row, g.col)
        if key in seen:
            raise GoldMismatch(f"duplicate gold coordinate {key}")
        seen.add(key)
        cell = by_coord.get(key)
        if cell is None:
            raise GoldMismatch(f"gold coordinate {key} absent from annotations")
        if g.expected is None:
            continue
        t = per_table.setdefault(g.table_id, {"gold": 0, "recall": 0,
                                              "precision": 0, "linked": 0})
        t["gold"] += 1
        if g.expected in cell.candidates:
            t["recall"] += 1
        if cell.kind == "entity":
            t["linked"] += 1
            if cell.entity_id == g.expected:
                t["precision"] += 1

    cells_with_gold = sum(t["gold"] for t in per_table.values())
    recall_hits = sum(t["recall"] for t in per_table.values())
    precision_hits = sum(t["precision"] for t in per_table.values())
    linked = sum(t["linked"] for t in per_table.values())
    if cells_with_gold == 0:
        log.warning("no gold cells with expected annotations; metrics degenerate")
        return EvalReport(0, 0, 0.0, 0.0, degenerate=True)
    return EvalReport(
        cells_with_gold=cells_with_gold,
        linked_cells=linked,
        candidate_recall=recall_hits / cells_with_gold,
        precision=precision_hits / cells_with_gold,
        per_table={tid: TableScore(t["gold"], t["recall"], t["precision"],
                                   t["linked"])
                   for tid, t in per_table.items()},
    )


@dataclass(frozen=True)
class BackendTimes:
    """One backend's median seconds per mention, per stage and in total, and
    the corpus projection at that total (None without a projection)."""

    candidate_s: float
    type_s: float
    total_s: float
    projected_days: float | None = None


@dataclass(frozen=True)
class LatencyReport:
    mentions_timed: int
    skipped: int
    offline: BackendTimes
    online: BackendTimes
    speedup: float

    def to_obj(self) -> dict:
        return dataclasses.asdict(self)


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
    days.
    """
    d_cand, d_type = online_latencies
    cand_times: list[float] = []
    type_times: list[float] = []
    skipped = 0
    for mention in mentions:
        if not mention.strip():
            continue
        t0 = time.perf_counter()
        try:
            raw = search(index, mention, config.params.k)
        except EmptyMention:
            skipped += 1
            continue
        t1 = time.perf_counter()
        link_from_candidates(mention, raw, CELL, None, None, closure, config)
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
