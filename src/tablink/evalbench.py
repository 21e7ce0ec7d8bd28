"""Evaluation against expected-annotation records and the offline-vs-online
latency benchmark.

The online backend is simulated: it runs the same pipeline with injected
per-stage delays, so answer parity is checkable and speedup is measurable
without touching a rate-limited public API.
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
from .kb import EntityId, ValidatedConfig, read_jsonl, write_jsonl
from .linker import CELL, LinkResult, link_from_candidates
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
    return GoldRecord(table_id=str(obj["table_id"]), row=int(obj["row"]),
                      col=int(obj["col"]),
                      expected=(EntityId.parse(obj["expected"])
                                if obj.get("expected") else None))


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
    """
    by_coord: dict[tuple[str, int, int], object] = {}
    for ann in annotations:
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
class LatencyReport:
    mentions_timed: int
    skipped: int
    mismatches: int
    offline_candidate_s: float
    offline_type_s: float
    offline_total_s: float
    online_candidate_s: float
    online_type_s: float
    online_total_s: float
    speedup: float
    projected_days: float | None = None

    def to_obj(self) -> dict:
        return {
            "mentions_timed": self.mentions_timed,
            "skipped": self.skipped,
            "mismatches": self.mismatches,
            "offline": {"candidate_s": self.offline_candidate_s,
                        "type_s": self.offline_type_s,
                        "total_s": self.offline_total_s},
            "online": {"candidate_s": self.online_candidate_s,
                       "type_s": self.online_type_s,
                       "total_s": self.online_total_s},
            "speedup": self.speedup,
            "projected_days": self.projected_days,
        }


def project_corpus_days(tables: int, cells_per_table: int,
                        per_mention_s: float) -> float:
    """Projected wall time, in days, to link a corpus one mention at a time."""
    return tables * cells_per_table * per_mention_s / SECONDS_PER_DAY


def _run_backend(mentions: list[str], index: Index, closure: TypeClosure,
                 config: ValidatedConfig, delays: tuple[float, float]
                 ) -> tuple[list[float], list[float], list[LinkResult | None]]:
    cand_times: list[float] = []
    type_times: list[float] = []
    results: list[LinkResult | None] = []
    d_cand, d_type = delays
    for mention in mentions:
        t0 = time.perf_counter()
        if d_cand:
            time.sleep(d_cand)
        try:
            raw = search(index, mention, config.params.k)
        except EmptyMention:
            results.append(None)
            continue
        t1 = time.perf_counter()
        if d_type:
            time.sleep(d_type)
        result = link_from_candidates(mention, raw, CELL, None, None, closure,
                                      config)
        t2 = time.perf_counter()
        cand_times.append(t1 - t0)
        type_times.append(t2 - t1)
        results.append(result)
    return cand_times, type_times, results


def bench(mentions: Iterable[str],
          index: Index,
          closure: TypeClosure,
          config: ValidatedConfig,
          online_latencies: tuple[float, float] = (12.0, 18.0),
          scale: float = 1.0,
          projection: tuple[int, int, float] | None = None) -> LatencyReport:
    """Time the offline pipeline against the simulated-online one.

    online_latencies are the injected candidate-stage and type-stage delays in
    seconds, multiplied by scale. Both backends run the identical pipeline, so
    any result mismatch is reported (and means a bug).
    """
    mention_list = [m for m in mentions if m and m.strip()]
    off_cand, off_type, off_results = _run_backend(
        mention_list, index, closure, config, (0.0, 0.0))
    delays = (online_latencies[0] * scale, online_latencies[1] * scale)
    on_cand, on_type, on_results = _run_backend(
        mention_list, index, closure, config, delays)

    mismatches = sum(1 for a, b in zip(off_results, on_results) if a != b)
    skipped = sum(1 for r in off_results if r is None)
    timed = len(off_cand)
    if timed == 0:
        return LatencyReport(0, skipped, mismatches, 0.0, 0.0, 0.0,
                             0.0, 0.0, 0.0, 0.0)

    off_totals = [c + t for c, t in zip(off_cand, off_type)]
    on_totals = [c + t for c, t in zip(on_cand, on_type)]
    off_total = median(off_totals)
    on_total = median(on_totals)
    speedup = on_total / off_total if off_total > 0 else float("inf")
    projected = None
    if projection is not None:
        projected = project_corpus_days(*projection)
    return LatencyReport(
        mentions_timed=timed,
        skipped=skipped,
        mismatches=mismatches,
        offline_candidate_s=median(off_cand),
        offline_type_s=median(off_type),
        offline_total_s=off_total,
        online_candidate_s=median(on_cand),
        online_type_s=median(on_type),
        online_total_s=on_total,
        speedup=speedup,
        projected_days=projected,
    )
