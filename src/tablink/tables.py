"""Whole-table linking: literal detection, orientation classification, and
two-pass joint inference that nudges cells and headers toward each column's
dominant entity type.

Output annotations always use the table's original coordinates (header row
addressed as row -1) even when the table is classified vertical and processed
along its transpose.

Table, CellAnnotation and TableAnnotation are typing.NamedTuples. Table is
a kb.Checked one, so its __new__, which coerces and checks its rows, runs
on every way to build one.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, compress
from functools import partial
from pathlib import Path
from typing import NamedTuple

from .closure import TypeClosure
from .errors import EmptyMention, ParseError
from .index import Index
from .kb import (
    Checked,
    EntityId,
    ValidatedConfig,
    must_be,
    parse_id_list,
    read_json,
    typed_field,
    write_json,
)
from .linker import (
    CELL,
    HEADER,
    LinkCache,
    LinkResult,
    ScoredCandidate,
    boost,
    cached_link,
)
from .text import tokenize

NUMBER = "NUMBER"
PERCENT = "PERCENT"
DATE = "DATE"
SEQUENCE = "SEQUENCE"
CLINICAL_TRIAL_ID = "CLINICAL_TRIAL_ID"
EMPTY = "EMPTY"

# The cell strings that mean "no value", matched in any case.
EMPTY_MARKERS = ("", "-", "–", "N/A")

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

_NUM = r"(?:[+-]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|[+-]?\.\d+)"
# One alternative per literal kind, named after it and tried in order; a
# number range is a NUMBER. The lookahead refuses at once a string whose
# first character can start no kind, as most entity strings are.
_LITERAL_RE = re.compile(
    r"(?=[\d+.-]|(?i:[ACGTUN]))"
    rf"(?:(?P<{CLINICAL_TRIAL_ID}>NCT\d{{8}})"
    rf"|(?P<{SEQUENCE}>(?i:[ACGTUN]{{8,}}))"
    rf"|(?P<{PERCENT}>{_NUM}\s*%)"
    rf"|(?P<{NUMBER}>{_NUM}(?:\s*[-–]\s*{_NUM})?)"
    rf"|(?P<{DATE}>\d{{4}}-\d{{2}}-\d{{2}}|\d{{4}}|\d{{2}}-\d{{4}}))")


def detect_literal(cell: str) -> str | None:
    """Classify a cell as a literal kind, or None when it should go to the
    entity linker. The kinds are tried in a fixed order and the first hit
    wins, so e.g. a bare year is a NUMBER, never a DATE."""
    s = cell.strip()
    if s.upper() in EMPTY_MARKERS:
        return EMPTY
    m = _LITERAL_RE.fullmatch(s)
    return m and m.lastgroup


class _TableFields(NamedTuple):
    table_id: str
    caption: str
    header_row: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


class Table(Checked, _TableFields):
    """A table of strings: a non-empty header row, and rows as wide."""

    __slots__ = ()

    def __new__(cls, table_id: str, caption: str, header_row: Iterable[str],
                rows: Iterable[Iterable[str]]):
        must_be(table_id, "table_id", str)
        must_be(caption, "caption", str)
        header_row = tuple(header_row)
        rows = tuple(map(tuple, rows))
        if not all(isinstance(h, str) for h in header_row):
            raise TypeError("headers must be a list of strings")
        if not header_row:
            raise ValueError(f"table {table_id}: empty header row")
        for i, row in enumerate(rows):
            if not all(isinstance(c, str) for c in row):
                raise TypeError(f"row {i} must be a list of strings")
            if len(row) != len(header_row):
                raise ValueError(
                    f"table {table_id}: row {i} has {len(row)} cells, "
                    f"header has {len(header_row)}")
        return tuple.__new__(cls, (table_id, caption, header_row, rows))


def table_to_obj(table: Table) -> dict:
    return {"table_id": table.table_id, "caption": table.caption,
            "headers": list(table.header_row),
            "rows": [list(r) for r in table.rows]}


def _strings(value, what: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list of strings")
    return value


def table_from_obj(obj: Mapping) -> Table:
    """A field of the wrong JSON type is refused, never coerced."""
    return Table(obj["table_id"], obj.get("caption", ""),
                 _strings(obj["headers"], "headers"),
                 [_strings(row, f"row {i}")
                  for i, row in enumerate(typed_field(obj, "rows", list))])


def read_table(path: str | Path) -> Table:
    return read_json(path, table_from_obj)


def read_table_csv(path: str | Path, has_header: bool = True) -> Table:
    """The table in a CSV file, with the file's stem as its id. A file that
    is not UTF-8 CSV, that is empty, or whose header row is blank raises
    ParseError naming the file. A leading byte-order mark is dropped."""
    import csv

    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fp:
            grid = [tuple(row) for row in csv.reader(fp)]
        if not grid:
            raise ValueError("empty CSV")
        if has_header and not grid[0]:
            raise ValueError("the header row is blank")
        width = max(len(r) for r in grid)
        grid = [r + ("",) * (width - len(r)) for r in grid]
        if has_header:
            header, rows = grid[0], grid[1:]
        else:
            header, rows = tuple(f"col{i}" for i in range(width)), grid
        return Table(Path(path).stem, "", header, tuple(rows))
    except (csv.Error, ValueError) as exc:
        raise ParseError(f"{path}: bad document "
                         f"({type(exc).__name__}: {exc})") from exc


def _orientation(table: Table) -> tuple[str, dict[str, str | None]]:
    """classify_orientation(table), and detect_literal() of each distinct
    cell string, the header's too."""
    kinds = {cell: detect_literal(cell)
             for cell in set(chain(table.header_row, *table.rows))}
    if not table.rows:
        return HORIZONTAL, kinds
    grid = [list(map(kinds.__getitem__, row)) for row in table.rows]
    col_mean = _mean_modal_fraction(zip(*grid))
    row_mean = _mean_modal_fraction(grid)
    return HORIZONTAL if col_mean >= row_mean else VERTICAL, kinds


def _mean_modal_fraction(lanes: Iterable[Sequence]) -> float:
    """The mean over lanes of the share of a lane's most common kind."""
    fractions = [max(map(lane.count, set(lane))) / len(lane) for lane in lanes]
    return sum(fractions) / len(fractions)


def classify_orientation(table: Table) -> str:
    """Direction whose lanes are more homogeneous in literal-kind class wins;
    ties go to horizontal."""
    return _orientation(table)[0]


def column_type_vote(candidate_sets: list[tuple[ScoredCandidate, ...]],
                     threshold: float) -> EntityId | None:
    """Pick a column's dominant direct type by score-weighted voting.

    Every candidate votes its final_score for each of its direct types; the
    heaviest type wins, ties to the lowest id. The winner is returned only if
    it appears (as a direct type of some candidate) in at least the threshold
    fraction of the sampled cells' candidate sets.
    """
    weights: dict[EntityId, float] = {}
    get = weights.get
    for cands in candidate_sets:
        for cand in cands:
            score = cand.final_score
            for t in cand.record.direct_types:
                weights[t] = get(t, 0.0) + score
    if not weights:
        return None
    # The lowest id among the types whose weight equals the largest.
    top = max(weights.values())
    winner = min(compress(weights, map(top.__eq__, weights.values())))
    support = 0
    for cands in candidate_sets:
        for cand in cands:
            if winner in cand.record.direct_types:
                support += 1
                break
    return winner if support / len(candidate_sets) >= threshold else None


class CellAnnotation(NamedTuple):
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


class TableAnnotation(NamedTuple):
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
    outcome = typed_field(obj, "outcome", dict)
    kind = outcome["kind"]
    fields = {}
    if kind == "entity":
        fields = dict(entity_id=EntityId.parse(outcome["id"]),
                      entity_label=typed_field(outcome, "label", str),
                      final_score=typed_field(outcome, "final_score", float, int))
    elif kind == "literal":
        fields = {"literal": typed_field(outcome, "literal", str)}
    elif kind != "nil":
        raise ValueError(f"unknown outcome kind {kind!r}")
    return CellAnnotation(
        typed_field(obj, "row", int), typed_field(obj, "col", int),
        typed_field(obj, "mention", str), kind,
        candidates=parse_id_list(typed_field(obj, "candidates", list)),
        note=typed_field(obj, "note", str, default=""), **fields)


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


def _column_number(key: str) -> int:
    """A dominant_types key: a column number as annotation_to_obj() writes
    it, with no sign, padding or separator."""
    if not (key.isdecimal() and str(int(key)) == key):
        raise ValueError(f"dominant_types key {key!r} is not a column number")
    return int(key)


def annotation_from_obj(obj: Mapping) -> TableAnnotation:
    """A missing field or a value of the wrong JSON type is refused, never
    coerced, and so is a (row, col) that two cells share."""
    orientation = obj["orientation"]
    if orientation not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"unknown orientation {orientation!r}")
    ann = TableAnnotation(
        table_id=typed_field(obj, "table_id", str),
        orientation=orientation,
        dominant_types={
            _column_number(c): None if t is None else EntityId.parse(t)
            for c, t in typed_field(obj, "dominant_types", dict).items()},
        headers=tuple(map(_cell_from_obj, typed_field(obj, "headers", list))),
        cells=tuple(map(_cell_from_obj, typed_field(obj, "cells", list))),
    )
    if len(ann.by_coord()) < len(ann.headers) + len(ann.cells):
        raise ValueError("two cells share one (row, col)")
    return ann


def write_annotation(path: str | Path, ann: TableAnnotation) -> None:
    write_json(path, annotation_to_obj(ann), sort_keys=True)


def read_annotation(path: str | Path) -> TableAnnotation:
    return read_json(path, annotation_from_obj)


def link_table(table: Table,
               index: Index,
               closure: TypeClosure,
               config: ValidatedConfig,
               cache: LinkCache | None = None) -> TableAnnotation:
    """Two-pass linking of one table.

    The table is worked as one grid, the header row followed by the rows,
    transposed when the table is vertical; grid row 0 is the working header
    row and dominant types are keyed by grid column. Column by column, pass
    1 links every cell that is not a literal (each distinct string is tested
    once, for the orientation too) in cell mode and the header in header
    mode (context = caption plus sibling headers); pass 2 votes a dominant
    direct type from up to sample_size linked cells, then boosts the
    column's cells and header through linker.boost(), which ranks them again
    with the NIL threshold. Per-cell linker errors mark the cell NIL and
    never abort the table. Annotations are made in output order.
    """
    params, types_of = config.params, closure.types_of
    orientation, kinds = _orientation(table)
    # The grid's columns: lane[0] is in the working header row.
    horizontal = orientation == HORIZONTAL
    lanes = (list(zip(table.header_row, *table.rows)) if horizontal
             else [table.header_row, *table.rows])
    heads = [lane[0] for lane in lanes]

    dominant_types: dict[int, EntityId | None] = {}
    annotated = []  # per grid column, its cells' annotations by grid row
    for j, lane in enumerate(lanes):
        outcomes: list = []  # per grid row: LinkResult, EmptyMention or None
        linked = []  # the grid rows below the header with a LinkResult
        context = " ".join(p for p in (table.caption, *heads[:j],
                                       *heads[j + 1:]) if p)
        for i, mention in enumerate(lane):
            outcome = None
            if kinds[mention] is None:
                try:
                    outcome = cached_link(mention, CELL if i else HEADER,
                                          index, closure, config,
                                          None if i else context, None, cache)
                    if i:
                        linked.append(i)
                except EmptyMention as exc:
                    outcome = exc
            outcomes.append(outcome)

        dominant = dominant_types[j] = column_type_vote(
            [outcomes[i].candidates for i in linked[:params.sample_size]],
            params.support_threshold)
        if dominant is not None:
            for i in linked:
                outcomes[i] = boost(
                    outcomes[i],
                    lambda c: dominant in types_of(c.record.direct_types),
                    params.column_type_boost, params.min_link_score)
            record = index.get(dominant)
            tokens = frozenset(tokenize(record.label)) if record else frozenset()
            if tokens and type(outcomes[0]) is LinkResult:
                outcomes[0] = boost(
                    outcomes[0],
                    lambda c: not tokens.isdisjoint(
                        tokenize(c.record.label + " " + c.record.description)),
                    params.header_column_boost, params.min_link_score)
        annotated.append([
            _annotate((i - 1, j) if horizontal else (j - 1, i), mention,
                      kinds[mention], outcome)
            for i, (mention, outcome) in enumerate(zip(lane, outcomes))])

    # In (row, col) order, cells below grid row 0 run along the grid's rows
    # when horizontal and along its columns when vertical.
    grid_rows = list(zip(*annotated))
    cells = grid_rows[1:] if horizontal else (lane[1:] for lane in annotated)
    return TableAnnotation(table.table_id, orientation, dominant_types,
                           grid_rows[0], tuple(chain.from_iterable(cells)))


# A CellAnnotation from its ten fields, made as linker.new_scored is.
_new_cell = partial(tuple.__new__, CellAnnotation)


def _annotate(place: tuple[int, int], mention: str, literal: str | None,
              outcome: LinkResult | EmptyMention | None) -> CellAnnotation:
    """A cell's annotation at place, its original (row, col), the header row
    -1, from its literal kind or else its pass-2 outcome."""
    if literal is not None:
        return _new_cell(place + (mention, "literal", None, None, None,
                                  literal, (), ""))
    if type(outcome) is not LinkResult:
        return _new_cell(place + (mention, "nil", None, None, None, None, (),
                                  str(outcome)))
    candidates = tuple([c.record.id for c in outcome.candidates])
    if (chosen := outcome.chosen) is None:
        return _new_cell(place + (mention, "nil", None, None, None, None,
                                  candidates, ""))
    record = chosen.record
    return _new_cell(place + (mention, "entity", record.id, record.label,
                              chosen.final_score, None, candidates, ""))
