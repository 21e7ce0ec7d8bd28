"""Searchable label/alias index that produces the initial ranked candidate
list, standing in for an online search API.

The index is built once and is immutable afterwards. Records live in rows
numbered in id order; search works on row numbers and builds an ItemRecord
only for a row it returns. Persistence is a directory holding the compiled
tables as one marshalled blob plus a manifest that pins the blob's hash and
the versions it depends on, so a loaded index always matches what was built.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import logging
import marshal
import math
import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .errors import EmptyMention, IndexUnavailable
from .kb import ITEM, PROPERTY, EntityId, ItemRecord

# Unused here; tablink.index.read_records stays a name because the
# perfbench tracer wraps it.
from .kb import read_records  # noqa: F401
from .text import NORMALIZATION_VERSION, STOPWORDS_VERSION, normalize, tokenize
from .version import FORMAT_VERSION, __version__

log = logging.getLogger(__name__)

EXACT_LABEL = "exact_label"
EXACT_ALIAS = "exact_alias"
PARTIAL = "partial"

# Position of each match tier in the ranking, best first.
_TIER_ORDER = {EXACT_LABEL: 0, EXACT_ALIAS: 1, PARTIAL: 2}

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "index.marshal"

# marshal format 2 writes every value in full: no back-references, whose
# presence depends on reference counts, and no interned-string flags. The
# blob is then a pure function of the tables' values.
_MARSHAL_FORMAT = 2

# Versions the tables were derived under; stored in the blob, so the
# build_id changes with them.
_HEADER = (FORMAT_VERSION, NORMALIZATION_VERSION, STOPWORDS_VERSION)


@dataclass(frozen=True)
class RawCandidate:
    """One search hit: the record plus how the mention matched it."""

    record: ItemRecord
    match_tier: str
    token_overlap: float


class _Tables(NamedTuple):
    """Everything an Index holds, as primitives. Row r is the r-th record in
    EntityId order; the maps' keys are in sorted order and their row tuples
    ascend."""

    header: tuple[int, str, str]
    duplicate_ids: int
    ids: tuple[str, ...]                           # raw ids
    labels: tuple[str, ...]
    aliases: tuple[tuple[str, ...], ...]
    descriptions: tuple[str, ...]
    direct_types: tuple[tuple[int, ...], ...]      # item numbers
    sitelinks: tuple[int, ...]
    flagged_props: tuple[tuple[int, ...], ...]     # property numbers, sorted
    rows: dict[str, int]                           # raw id -> row
    by_label: dict[str, tuple[int, ...]]           # normalized label -> rows
    by_alias: dict[str, tuple[int, ...]]           # normalized alias -> rows
    postings: dict[str, tuple[int, ...]]           # label/alias token -> rows


def _compile(records: list[ItemRecord], duplicate_ids: int) -> _Tables:
    """The tables of records, which are sorted by id and distinct."""
    by_label: dict[str, list[int]] = {}
    by_alias: dict[str, list[int]] = {}
    postings: dict[str, list[int]] = {}
    for row, record in enumerate(records):
        by_label.setdefault(normalize(record.label), []).append(row)
        # Aliases are already distinct by normalized form (ItemRecord sees
        # to it).
        for alias in record.aliases:
            by_alias.setdefault(normalize(alias), []).append(row)
        tokens = set(tokenize(record.label))
        for alias in record.aliases:
            tokens.update(tokenize(alias))
        for token in tokens:
            postings.setdefault(token, []).append(row)

    def frozen(rows_of: dict[str, list[int]]) -> dict[str, tuple[int, ...]]:
        return {key: tuple(rows_of[key]) for key in sorted(rows_of)}

    ids = tuple(r.id.raw for r in records)
    return _Tables(
        header=_HEADER,
        duplicate_ids=duplicate_ids,
        ids=ids,
        labels=tuple(r.label for r in records),
        aliases=tuple(r.aliases for r in records),
        descriptions=tuple(r.description for r in records),
        direct_types=tuple(tuple(t.num for t in r.direct_types) for r in records),
        sitelinks=tuple(r.sitelinks_count for r in records),
        flagged_props=tuple(tuple(sorted(p.num for p in r.flagged_props))
                            for r in records),
        rows=dict(sorted((raw, row) for row, raw in enumerate(ids))),
        by_label=frozen(by_label),
        by_alias=frozen(by_alias),
        postings=frozen(postings),
    )


def _dump(tables: _Tables) -> bytes:
    return marshal.dumps(tuple(tables), _MARSHAL_FORMAT)


class _RecordsView(Mapping):
    """Read-only EntityId -> ItemRecord view of an index, in id order."""

    def __init__(self, index: Index):
        self._index = index

    def __getitem__(self, eid: EntityId) -> ItemRecord:
        if not isinstance(eid, EntityId):
            raise KeyError(eid)
        return self._index.record(eid.raw)

    def __iter__(self) -> Iterator[EntityId]:
        return map(EntityId.parse, self._index._tables.ids)

    def __len__(self) -> int:
        return len(self._index._tables.ids)


class Index:
    """Search structures over one record set.

    `Index(records)` builds them in memory; `load_index` builds the same
    object from a saved blob. An ItemRecord is made from its row the first
    time it is asked for and memoized, so each row is decoded at most once
    per Index. Searches may run concurrently: two that decode the same row
    at once both store an equal record.
    """

    def __init__(self, records: Iterable[ItemRecord]):
        by_id: dict[EntityId, ItemRecord] = {}
        duplicate_ids = 0
        for record in records:
            if record.id in by_id:
                duplicate_ids += 1
                log.warning("duplicate record id %s: last one wins", record.id)
            by_id[record.id] = record
        ordered = [by_id[eid] for eid in sorted(by_id)]
        tables = _compile(ordered, duplicate_ids)
        self._adopt(tables, hashlib.sha256(_dump(tables)).hexdigest())
        self._memo.update(enumerate(ordered))

    @classmethod
    def _from_tables(cls, tables: _Tables, build_id: str) -> Index:
        index = cls.__new__(cls)
        index._adopt(tables, build_id)
        return index

    def _adopt(self, tables: _Tables, build_id: str) -> None:
        self._tables = tables
        self._memo: dict[int, ItemRecord] = {}
        self.build_id = build_id
        self.duplicate_ids = tables.duplicate_ids
        self.records_by_id: Mapping[EntityId, ItemRecord] = _RecordsView(self)

    def __len__(self) -> int:
        return len(self._tables.ids)

    def record_at(self, row: int) -> ItemRecord:
        """The record in row, made on first use."""
        record = self._memo.get(row)
        if record is None:
            t = self._tables
            record = ItemRecord(
                id=EntityId.parse(t.ids[row]),
                label=t.labels[row],
                aliases=t.aliases[row],
                description=t.descriptions[row],
                direct_types=tuple(EntityId(ITEM, n) for n in t.direct_types[row]),
                sitelinks_count=t.sitelinks[row],
                flagged_props=frozenset(EntityId(PROPERTY, n)
                                        for n in t.flagged_props[row]))
            self._memo[row] = record
        return record

    def record(self, raw_id: str) -> ItemRecord:
        """The record with this raw id; KeyError when there is none."""
        return self.record_at(self._tables.rows[raw_id])

    def get(self, eid: EntityId) -> ItemRecord | None:
        return self.records_by_id.get(eid)

    def exact_label(self, norm_mention: str) -> tuple[int, ...]:
        return self._tables.by_label.get(norm_mention, ())

    def exact_alias(self, norm_mention: str) -> tuple[int, ...]:
        return self._tables.by_alias.get(norm_mention, ())

    def postings(self, token: str) -> tuple[int, ...]:
        return self._tables.postings.get(token, ())


def search(index: Index, mention: str, k: int) -> list[RawCandidate]:
    """Ranked candidates for a mention, at most k.

    Pool = exact label matches, exact alias matches, and partial matches
    (records whose label/alias tokens cover at least half of the mention's
    non-stopword tokens, rounded up). Each record enters at its best tier.
    Ordering: match tier, then token overlap, then sitelinks count, then
    ascending id. Fully deterministic.
    """
    norm = normalize(mention)
    tokens = tokenize(mention)
    if not norm or not tokens:
        raise EmptyMention(f"mention {mention!r} normalizes to nothing linkable")

    distinct = list(dict.fromkeys(tokens))
    needed = math.ceil(len(distinct) / 2)

    # row -> (tier, overlap), filled worst tier first so a better one
    # overwrites.
    pool: dict[int, tuple[str, float]] = {}
    counts = Counter(chain.from_iterable(map(index.postings, distinct)))
    for row, covered in counts.items():
        if covered >= needed:
            pool[row] = (PARTIAL, covered / len(distinct))
    for row in index.exact_alias(norm):
        pool[row] = (EXACT_ALIAS, 1.0)
    for row in index.exact_label(norm):
        pool[row] = (EXACT_LABEL, 1.0)

    sitelinks = index._tables.sitelinks

    # Rows are in id order, so the row breaks ties as the id would.
    def rank(item: tuple[int, tuple[str, float]]) -> tuple:
        row, (tier, overlap) = item
        return (_TIER_ORDER[tier], -overlap, -sitelinks[row], row)

    return [RawCandidate(index.record_at(row), tier, overlap)
            for row, (tier, overlap) in heapq.nsmallest(k, pool.items(), key=rank)]


def _pins() -> dict:
    """Manifest fields a loader must match exactly: the versions the tables
    were derived under, and the Python minor version and marshal version
    the blob was written by."""
    return {
        "format_version": FORMAT_VERSION,
        "normalization_version": NORMALIZATION_VERSION,
        "stopwords_version": STOPWORDS_VERSION,
        "python_version": "%d.%d" % sys.version_info[:2],
        "marshal_version": marshal.version,
    }


def save_index(index: Index, out_dir: str | Path) -> None:
    """Persist as the marshalled tables plus a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / BLOB_NAME).write_bytes(_dump(index._tables))
    manifest = {
        "artifact_version": __version__,
        **_pins(),
        "build_id": index.build_id,
        "record_count": len(index),
        "duplicate_ids": index.duplicate_ids,
    }
    with open(out / MANIFEST_NAME, "w", encoding="utf-8", newline="\n") as fp:
        json.dump(manifest, fp, ensure_ascii=False, indent=2, sort_keys=True)
        fp.write("\n")


def _loads(blob: bytes):
    """marshal.loads with the cyclic GC paused: the loader allocates
    hundreds of thousands of tuples, none of them in a cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return marshal.loads(blob)
    finally:
        if enabled:
            gc.enable()


def _checked(data, record_count) -> _Tables | None:
    """data as _Tables if it has their shape and record_count rows, else
    None."""
    if not (type(data) is tuple and len(data) == len(_Tables._fields)):
        return None
    t = _Tables._make(data)
    columns = (t.ids, t.labels, t.aliases, t.descriptions, t.direct_types,
               t.sitelinks, t.flagged_props)
    maps = (t.rows, t.by_label, t.by_alias, t.postings)
    if (t.header != _HEADER or type(t.duplicate_ids) is not int
            or not all(type(c) is tuple and len(c) == record_count
                       for c in columns)
            or not all(type(m) is dict for m in maps)
            or len(t.rows) != record_count):
        return None
    return t


def load_index(index_dir: str | Path) -> Index:
    """The index saved in index_dir. Checks the manifest's version pins,
    then the blob's hash against the build_id, then the loaded tables'
    shape; any failure raises IndexUnavailable."""
    path = Path(index_dir)
    manifest_path = path / MANIFEST_NAME
    blob_path = path / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise IndexUnavailable(f"{path} is not an index directory")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fp:
            manifest = json.load(fp)
    except ValueError as exc:
        raise IndexUnavailable(
            f"index {path}: {MANIFEST_NAME} is not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise IndexUnavailable(f"index {path}: {MANIFEST_NAME} is not a JSON object")
    for key, current in _pins().items():
        if manifest.get(key) != current:
            raise IndexUnavailable(
                f"index {path} was built with {key}={manifest.get(key)!r}, "
                f"this build uses {current!r}; rebuild the index")
    blob = blob_path.read_bytes()
    build_id = hashlib.sha256(blob).hexdigest()
    if manifest.get("build_id") != build_id:
        raise IndexUnavailable(f"index {path} does not match its manifest; rebuild")
    try:
        tables = _checked(_loads(blob), manifest.get("record_count"))
    except (EOFError, TypeError, ValueError):
        tables = None
    if tables is None:
        raise IndexUnavailable(f"index {path}: {BLOB_NAME} is malformed; rebuild")
    return Index._from_tables(tables, build_id)
