"""Whole-table linking: literal detection, orientation classification, and
two-pass joint inference that nudges cells and headers toward each column's
dominant entity type.

Output annotations always use the table's original coordinates (header row
addressed as row -1) even when the table is classified vertical and processed
along its transpose.
"""

from __future__ import annotations

import json
import logging
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from pathlib import Path

from .closure import TypeClosure, has_type
from .errors import EmptyMention, ParseError
from .index import Index
from .kb import EntityId, ValidatedConfig
from .linker import (
    CELL,
    HEADER,
    LinkCache,
    LinkResult,
    ScoredCandidate,
    cached_link,
    choose,
    scored_sort_key,
)
from .text import tokenize

log = logging.getLogger(__name__)

NUMBER = "NUMBER"
PERCENT = "PERCENT"
DATE = "DATE"
SEQUENCE = "SEQUENCE"
CLINICAL_TRIAL_ID = "CLINICAL_TRIAL_ID"
EMPTY = "EMPTY"

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

HEADER_ROW = -1

_NUM = r"[+-]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|[+-]?\.\d+"
_CTID_RE = re.compile(r"^NCT\d{8}$")
_SEQ_RE = re.compile(r"^[ACGTUN]{8,}$", re.IGNORECASE)
_PERCENT_RE = re.compile(rf"^(?:{_NUM})\s*%$")
_NUMBER_RE = re.compile(rf"^(?:{_NUM})$")
_RANGE_RE = re.compile(rf"^(?:{_NUM})\s*[-–]\s*(?:{_NUM})$")
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$|^\d{4}$|^\d{2}-\d{4}$")


def detect_literal(cell: str) -> str | None:
    """Classify a cell as a literal kind, or None when it should go to the
    entity linker. The checks run in a fixed order and the first hit wins,
    so e.g. a bare year is a NUMBER, never a DATE."""
    s = cell.strip()
    if s in ("", "-", "–") or s.upper() == "N/A":
        return EMPTY
    if _CTID_RE.match(s):
        return CLINICAL_TRIAL_ID
    if _SEQ_RE.match(s):
        return SEQUENCE
    if _PERCENT_RE.match(s):
        return PERCENT
    if _NUMBER_RE.match(s) or _RANGE_RE.match(s):
        return NUMBER
    if _DATE_RE.match(s):
        return DATE
    return None


@dataclass(frozen=True)
class Table:
    table_id: str
    caption: str
    header_row: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "header_row", tuple(self.header_row))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if not self.header_row:
            raise ValueError(f"table {self.table_id}: empty header row")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.header_row):
                raise ValueError(
                    f"table {self.table_id}: row {i} has {len(row)} cells, "
                    f"header has {len(self.header_row)}")


def table_to_obj(table: Table) -> dict:
    return {"table_id": table.table_id, "caption": table.caption,
            "headers": list(table.header_row),
            "rows": [list(r) for r in table.rows]}


def _strings(value, what: str) -> list[str]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"{what} must be a list of strings")
    return value


def table_from_obj(obj: Mapping) -> Table:
    """A field of the wrong JSON type is refused with ParseError, never
    coerced."""
    try:
        table_id, headers, rows = obj["table_id"], obj["headers"], obj["rows"]
        caption = obj.get("caption", "")
        if not (isinstance(table_id, str) and isinstance(caption, str)
                and isinstance(rows, list)):
            raise TypeError("table_id and caption must be strings, rows a list")
        return Table(table_id, caption, _strings(headers, "headers"),
                     [_strings(row, f"row {i}") for i, row in enumerate(rows)])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad table document: {exc}") from exc


def read_table(path: str | Path) -> Table:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            obj = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return table_from_obj(obj)


def read_table_csv(path: str | Path, has_header: bool = True,
                   table_id: str | None = None) -> Table:
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fp:
        grid = [tuple(row) for row in csv.reader(fp)]
    if not grid:
        raise ParseError(f"{path}: empty CSV")
    width = max(len(r) for r in grid)
    grid = [r + ("",) * (width - len(r)) for r in grid]
    if has_header:
        header, rows = grid[0], grid[1:]
    else:
        header, rows = tuple(f"col{i}" for i in range(width)), grid
    return Table(table_id or Path(path).stem, "", header, tuple(rows))


def _cell_class(cell: str) -> str:
    return detect_literal(cell) or "entity"


def _mean_modal_fraction(lanes: Iterable[tuple[str, ...]]) -> float:
    fractions = []
    for lane in lanes:
        counts: dict[str, int] = {}
        for cell in lane:
            cls = _cell_class(cell)
            counts[cls] = counts.get(cls, 0) + 1
        fractions.append(max(counts.values()) / len(lane))
    return sum(fractions) / len(fractions) if fractions else 0.0


def classify_orientation(table: Table) -> str:
    """Direction whose lanes are more homogeneous in literal-kind class wins;
    ties go to horizontal."""
    if not table.rows:
        return HORIZONTAL
    columns = tuple(zip(*table.rows))
    col_mean = _mean_modal_fraction(columns)
    row_mean = _mean_modal_fraction(table.rows)
    return HORIZONTAL if col_mean >= row_mean else VERTICAL


def column_type_vote(candidate_sets: list[tuple[ScoredCandidate, ...]],
                     threshold: float) -> EntityId | None:
    """Pick a column's dominant direct type by score-weighted voting.

    Every candidate votes its final_score for each of its direct types; the
    heaviest type wins, ties to the lowest id. The winner is returned only if
    it appears (as a direct type of some candidate) in at least the threshold
    fraction of the sampled cells' candidate sets.
    """
    weights: dict[EntityId, float] = {}
    for cands in candidate_sets:
        for cand in cands:
            for t in cand.record.direct_types:
                weights[t] = weights.get(t, 0.0) + cand.final_score
    if not weights or not candidate_sets:
        return None
    winner = min(weights.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    support = sum(
        1 for cands in candidate_sets
        if any(winner in cand.record.direct_types for cand in cands))
    if support / len(candidate_sets) >= threshold:
        return winner
    return None


@dataclass(frozen=True)
class CellAnnotation:
    """One cell's outcome in original table coordinates."""

    row: int
    col: int
    mention: str
    kind: str  # "entity" | "literal" | "nil"
    entity_id: EntityId | None = None
    entity_label: str | None = None
    final_score: float | None = None
    literal: str | None = None
    candidates: tuple[EntityId, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class TableAnnotation:
    table_id: str
    orientation: str
    dominant_types: Mapping[int, EntityId | None]
    headers: tuple[CellAnnotation, ...]
    cells: tuple[CellAnnotation, ...]

    def by_coord(self) -> dict[tuple[int, int], CellAnnotation]:
        return {(a.row, a.col): a for a in self.headers + self.cells}


def _cell_obj(a: CellAnnotation) -> dict:
    outcome: dict = {"kind": a.kind}
    if a.kind == "entity":
        outcome.update(id=a.entity_id.raw, label=a.entity_label,
                       final_score=a.final_score)
    elif a.kind == "literal":
        outcome["literal"] = a.literal
    obj = {"row": a.row, "col": a.col, "mention": a.mention, "outcome": outcome,
           "candidates": [c.raw for c in a.candidates]}
    if a.note:
        obj["note"] = a.note
    return obj


def _cell_from_obj(obj: Mapping) -> CellAnnotation:
    outcome = obj["outcome"]
    kind = outcome["kind"]
    return CellAnnotation(
        row=int(obj["row"]), col=int(obj["col"]), mention=obj["mention"],
        kind=kind,
        entity_id=EntityId.parse(outcome["id"]) if kind == "entity" else None,
        entity_label=outcome.get("label") if kind == "entity" else None,
        final_score=outcome.get("final_score") if kind == "entity" else None,
        literal=outcome.get("literal") if kind == "literal" else None,
        candidates=tuple(EntityId.parse(c) for c in obj.get("candidates", ())),
        note=obj.get("note", ""),
    )


def annotation_to_obj(ann: TableAnnotation) -> dict:
    return {
        "table_id": ann.table_id,
        "orientation": ann.orientation,
        "dominant_types": {
            str(col): (t.raw if t else None)
            for col, t in sorted(ann.dominant_types.items())
        },
        "headers": [_cell_obj(a) for a in ann.headers],
        "cells": [_cell_obj(a) for a in ann.cells],
    }


def annotation_from_obj(obj: Mapping) -> TableAnnotation:
    return TableAnnotation(
        table_id=obj["table_id"],
        orientation=obj["orientation"],
        dominant_types={int(c): (EntityId.parse(t) if t else None)
                        for c, t in obj.get("dominant_types", {}).items()},
        headers=tuple(_cell_from_obj(a) for a in obj["headers"]),
        cells=tuple(_cell_from_obj(a) for a in obj["cells"]),
    )


def write_annotation(path: str | Path, ann: TableAnnotation) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        json.dump(annotation_to_obj(ann), fp, ensure_ascii=False, indent=2,
                  sort_keys=True)
        fp.write("\n")


def read_annotation(path: str | Path) -> TableAnnotation:
    with open(path, "r", encoding="utf-8") as fp:
        return annotation_from_obj(json.load(fp))


@dataclass
class _WorkCell:
    """One header or body cell in working (orientation-normalized) coords."""

    wrow: int  # HEADER_ROW for headers
    wcol: int
    row: int   # original coordinates
    col: int
    mention: str
    literal: str | None = None
    result: LinkResult | None = None
    error: str = ""

    @property
    def is_linked(self) -> bool:
        return self.result is not None


def _link_one(cell: _WorkCell, context: str | None, mode: str, index: Index,
              closure: TypeClosure, config: ValidatedConfig,
              cache: LinkCache | None) -> None:
    try:
        cell.result = cached_link(cell.mention, mode, index, closure, config,
                                  context=context, cache=cache)
    except EmptyMention as exc:
        cell.error = str(exc)


def _rerank(result: LinkResult, boosted: list[ScoredCandidate],
            min_link_score: float) -> LinkResult:
    boosted.sort(key=scored_sort_key)
    return LinkResult(
        mention=result.mention, mode=result.mode,
        chosen=choose(boosted, min_link_score), candidates=tuple(boosted),
        diagnostics=result.diagnostics)


def link_table(table: Table,
               index: Index,
               closure: TypeClosure,
               config: ValidatedConfig,
               cache: LinkCache | None = None) -> TableAnnotation:
    """Two-pass linking of one table.

    Pass 1 detects literals and links every other cell (cell mode) and header
    (header mode, context = caption plus sibling headers). Pass 2 votes a
    dominant direct type per column from up to sample_size linked cells, then
    re-ranks that column's cells and header with the configured boosts and
    re-applies the NIL threshold. Per-cell linker errors mark the cell NIL
    and never abort the table.
    """
    params = config.params
    orientation = classify_orientation(table)

    if orientation == HORIZONTAL:
        wheader = list(table.header_row)
        wrows = [list(r) for r in table.rows]

        def orig(wrow: int, wcol: int) -> tuple[int, int]:
            return wrow, wcol
    else:
        full = [list(table.header_row)] + [list(r) for r in table.rows]
        transposed = [list(t) for t in zip(*full)]
        wheader = transposed[0]
        wrows = transposed[1:]

        def orig(wrow: int, wcol: int) -> tuple[int, int]:
            if wrow == HEADER_ROW:
                return wcol - 1, 0
            return wcol - 1, wrow + 1

    headers = []
    for wc, mention in enumerate(wheader):
        row, col = orig(HEADER_ROW, wc)
        headers.append(_WorkCell(HEADER_ROW, wc, row, col, mention,
                                 literal=detect_literal(mention)))
    body = []
    for wr, wrow in enumerate(wrows):
        for wc, mention in enumerate(wrow):
            row, col = orig(wr, wc)
            body.append(_WorkCell(wr, wc, row, col, mention,
                                  literal=detect_literal(mention)))

    def header_context(wc: int) -> str:
        parts = [table.caption] + [h for j, h in enumerate(wheader) if j != wc]
        return " ".join(p for p in parts if p)

    for cell in headers:
        if cell.literal is None:
            _link_one(cell, header_context(cell.wcol), HEADER, index, closure,
                      config, cache)
    for cell in body:
        if cell.literal is None:
            _link_one(cell, None, CELL, index, closure, config, cache)

    by_col: dict[int, list[_WorkCell]] = {wc: [] for wc in range(len(wheader))}
    for cell in body:
        by_col[cell.wcol].append(cell)
    for cells in by_col.values():
        cells.sort(key=lambda c: c.wrow)

    dominant_types: dict[int, EntityId | None] = {}
    for wc, cells in by_col.items():
        sampled = [c for c in cells if c.is_linked][:params.sample_size]
        dominant = column_type_vote([c.result.candidates for c in sampled],
                                    params.support_threshold)
        dominant_types[wc] = dominant
        if dominant is None:
            continue
        boost = params.column_type_boost
        for cell in cells:
            if not cell.is_linked:
                continue
            boosted = [
                replace(c, boosts=c.boosts + boost,
                        final_score=c.weighted_base + (c.boosts + boost))
                if has_type(c.record, dominant, closure) else c
                for c in cell.result.candidates]
            cell.result = _rerank(cell.result, boosted, params.min_link_score)
        header_cell = headers[wc]
        dom_record = index.get(dominant)
        dom_tokens = frozenset(tokenize(dom_record.label)) if dom_record else frozenset()
        if header_cell.is_linked and dom_tokens:
            boost = params.header_column_boost
            boosted = []
            for c in header_cell.result.candidates:
                cand_tokens = tokenize(c.record.label + " " + c.record.description)
                if any(t in dom_tokens for t in cand_tokens):
                    c = replace(c, boosts=c.boosts + boost,
                                final_score=c.weighted_base + (c.boosts + boost))
                boosted.append(c)
            header_cell.result = _rerank(header_cell.result, boosted,
                                         params.min_link_score)

    def annotate(cell: _WorkCell) -> CellAnnotation:
        if cell.literal is not None:
            return CellAnnotation(cell.row, cell.col, cell.mention, "literal",
                                  literal=cell.literal)
        if cell.result is None:
            return CellAnnotation(cell.row, cell.col, cell.mention, "nil",
                                  note=cell.error)
        candidates = tuple(c.record.id for c in cell.result.candidates)
        chosen = cell.result.chosen
        if chosen is None:
            return CellAnnotation(cell.row, cell.col, cell.mention, "nil",
                                  candidates=candidates)
        return CellAnnotation(cell.row, cell.col, cell.mention, "entity",
                              entity_id=chosen.record.id,
                              entity_label=chosen.record.label,
                              final_score=chosen.final_score,
                              candidates=candidates)

    return TableAnnotation(
        table_id=table.table_id,
        orientation=orientation,
        dominant_types=dominant_types,
        headers=tuple(sorted((annotate(c) for c in headers),
                             key=lambda a: (a.row, a.col))),
        cells=tuple(sorted((annotate(c) for c in body),
                           key=lambda a: (a.row, a.col))),
    )
