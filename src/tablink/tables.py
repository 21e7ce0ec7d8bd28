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
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

from .closure import TypeClosure, has_type
from .errors import EmptyMention, ParseError
from .index import Index
from .kb import EntityId, ValidatedConfig, parse_id_list
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
    try:
        return table_from_obj(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


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


def _field(obj: Mapping, name: str, *types: type):
    """obj[name], refused unless its JSON type is one of types; a bool is
    never a number."""
    value = obj[name]
    if type(value) not in types:
        raise TypeError(f"{name} must be "
                        f"{' or '.join(t.__name__ for t in types)}, "
                        f"not {type(value).__name__}")
    return value


def _cell_from_obj(obj: Mapping) -> CellAnnotation:
    outcome = _field(obj, "outcome", dict)
    kind = outcome["kind"]
    fields = {}
    if kind == "entity":
        fields = dict(entity_id=EntityId.parse(outcome["id"]),
                      entity_label=_field(outcome, "label", str),
                      final_score=_field(outcome, "final_score", float, int))
    elif kind == "literal":
        fields = {"literal": _field(outcome, "literal", str)}
    elif kind != "nil":
        raise ValueError(f"unknown outcome kind {kind!r}")
    return CellAnnotation(
        _field(obj, "row", int), _field(obj, "col", int),
        _field(obj, "mention", str), kind,
        candidates=parse_id_list(_field(obj, "candidates", list)),
        note=_field(obj, "note", str) if "note" in obj else "", **fields)


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
    """A missing field or a value of the wrong JSON type is refused, never
    coerced, with the LookupError, TypeError or ValueError that
    read_annotation reports."""
    orientation = obj["orientation"]
    if orientation not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"unknown orientation {orientation!r}")
    return TableAnnotation(
        table_id=_field(obj, "table_id", str),
        orientation=orientation,
        dominant_types={
            int(c): None if t is None else EntityId.parse(t)
            for c, t in _field(obj, "dominant_types", dict).items()},
        headers=tuple(map(_cell_from_obj, _field(obj, "headers", list))),
        cells=tuple(map(_cell_from_obj, _field(obj, "cells", list))),
    )


def write_annotation(path: str | Path, ann: TableAnnotation) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        json.dump(annotation_to_obj(ann), fp, ensure_ascii=False, indent=2,
                  sort_keys=True)
        fp.write("\n")


def read_annotation(path: str | Path) -> TableAnnotation:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return annotation_from_obj(json.load(fp))
        except (LookupError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad annotation "
                             f"({type(exc).__name__}: {exc})") from exc


def _boost(result: LinkResult, hit: Callable[[ScoredCandidate], bool],
           boost: float, min_link_score: float) -> LinkResult:
    """result with boost added to every candidate hit accepts, re-ranked and
    with the NIL threshold re-applied."""
    boosted = sorted(
        (replace(c, boosts=c.boosts + boost,
                 final_score=c.weighted_base + (c.boosts + boost))
         if hit(c) else c for c in result.candidates),
        key=scored_sort_key)
    return replace(result, chosen=choose(boosted, min_link_score),
                   candidates=tuple(boosted))


def link_table(table: Table,
               index: Index,
               closure: TypeClosure,
               config: ValidatedConfig,
               cache: LinkCache | None = None) -> TableAnnotation:
    """Two-pass linking of one table.

    The table is worked as one grid, the header row followed by the rows,
    transposed when the table is vertical; grid row 0 is the working header
    row and dominant types are keyed by grid column. Pass 1 detects literals
    and links every other cell (cell mode) and header (header mode, context =
    caption plus sibling headers). Pass 2 votes a dominant direct type per
    column from up to sample_size linked cells, then re-ranks that column's
    cells and header with the configured boosts and re-applies the NIL
    threshold. Per-cell linker errors mark the cell NIL and never abort the
    table.
    """
    params = config.params
    orientation = classify_orientation(table)
    grid = [table.header_row, *table.rows]
    if orientation == VERTICAL:
        grid = list(zip(*grid))

    def coord(i: int, j: int) -> tuple[int, int]:
        """Original (row, col) of grid cell (i, j); the header row is -1."""
        return (i - 1, j) if orientation == HORIZONTAL else (j - 1, i)

    literals: dict[tuple[int, int], str] = {}
    results: dict[tuple[int, int], LinkResult] = {}
    notes: dict[tuple[int, int], str] = {}
    for i, row in enumerate(grid):
        for j, mention in enumerate(row):
            literal = detect_literal(mention)
            if literal is not None:
                literals[i, j] = literal
                continue
            context = None
            if i == 0:
                parts = [table.caption, *grid[0][:j], *grid[0][j + 1:]]
                context = " ".join(p for p in parts if p)
            try:
                results[i, j] = cached_link(
                    mention, HEADER if i == 0 else CELL, index, closure,
                    config, context=context, cache=cache)
            except EmptyMention as exc:
                notes[i, j] = str(exc)

    dominant_types: dict[int, EntityId | None] = {}
    for j in range(len(grid[0])):
        linked = [i for i in range(1, len(grid)) if (i, j) in results]
        dominant = column_type_vote(
            [results[i, j].candidates for i in linked[:params.sample_size]],
            params.support_threshold)
        dominant_types[j] = dominant
        if dominant is None:
            continue
        for i in linked:
            results[i, j] = _boost(
                results[i, j], lambda c: has_type(c.record, dominant, closure),
                params.column_type_boost, params.min_link_score)
        record = index.get(dominant)
        tokens = frozenset(tokenize(record.label)) if record else frozenset()
        if (0, j) in results and tokens:
            results[0, j] = _boost(
                results[0, j],
                lambda c: not tokens.isdisjoint(
                    tokenize(c.record.label + " " + c.record.description)),
                params.header_column_boost, params.min_link_score)

    def annotate(i: int, j: int, mention: str) -> CellAnnotation:
        row, col = coord(i, j)
        if (i, j) in literals:
            return CellAnnotation(row, col, mention, "literal",
                                  literal=literals[i, j])
        result = results.get((i, j))
        if result is None:
            return CellAnnotation(row, col, mention, "nil", note=notes[i, j])
        candidates = tuple(c.record.id for c in result.candidates)
        chosen = result.chosen
        if chosen is None:
            return CellAnnotation(row, col, mention, "nil",
                                  candidates=candidates)
        return CellAnnotation(row, col, mention, "entity",
                              entity_id=chosen.record.id,
                              entity_label=chosen.record.label,
                              final_score=chosen.final_score,
                              candidates=candidates)

    grid_annotations = [[annotate(i, j, m) for j, m in enumerate(row)]
                        for i, row in enumerate(grid)]
    by_coord = attrgetter("row", "col")
    return TableAnnotation(
        table_id=table.table_id,
        orientation=orientation,
        dominant_types=dominant_types,
        headers=tuple(sorted(grid_annotations[0], key=by_coord)),
        cells=tuple(sorted((a for row in grid_annotations[1:] for a in row),
                           key=by_coord)),
    )
