"""Searchable label/alias index that produces the initial ranked candidate
list, standing in for an online search API.

The index is built once and is immutable afterwards. Records live in rows
numbered in rank order (sitelinks count descending, then id), the order in
which search breaks ties; search works on row numbers and builds an
ItemRecord only for a row it returns. Persistence is a directory holding
the compiled tables as one marshalled blob plus a manifest that pins the
blob's hash and the versions it depends on, so a loaded index always
matches what was built.
"""

from __future__ import annotations

import gc
import hashlib
import logging
import marshal
import math
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterable
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import NamedTuple, TypeVar

from .errors import EmptyMention, IndexUnavailable, ParseError
from .kb import ITEM, PROPERTY, EntityId, ItemRecord, read_json, write_json

# Unused here; tablink.index.read_records stays a name because the
# perfbench tracer wraps it.
from .kb import read_records  # noqa: F401
from .text import NORMALIZATION_VERSION, STOPWORDS_VERSION, normalize, split_tokens
from .version import FORMAT_VERSION, __version__

log = logging.getLogger(__name__)

EXACT_LABEL = "exact_label"
EXACT_ALIAS = "exact_alias"
PARTIAL = "partial"

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "index.marshal"

# marshal format 2 writes every value in full: no back-references, whose
# presence depends on reference counts, and no interned-string flags. The
# blob is then a pure function of the tables' values.
_MARSHAL_FORMAT = 2

# Versions the tables were derived under; stored in the blob, so the
# build_id changes with them.
_HEADER = (FORMAT_VERSION, NORMALIZATION_VERSION, STOPWORDS_VERSION)

T = TypeVar("T")


class RawCandidate(NamedTuple):
    """One search hit: the record plus how the mention matched it."""

    record: ItemRecord
    match_tier: str
    token_overlap: float


class _Tables(NamedTuple):
    """Everything an Index holds, as primitives. Row r is the r-th record in
    rank order: sitelinks count descending, then EntityId. The maps' keys
    are in sorted order and their row tuples ascend, so every row tuple
    lists its records best-ranked first."""

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
    """The tables of records, which are in rank order and distinct."""
    by_label: dict[str, list[int]] = {}
    by_alias: dict[str, list[int]] = {}
    postings: dict[str, list[int]] = {}
    for row, record in enumerate(records):
        # Aliases are already distinct by normalized form (ItemRecord sees
        # to it).
        label, *aliases = record.surfaces
        by_label.setdefault(label, []).append(row)
        tokens = set(split_tokens(label))
        for alias in aliases:
            by_alias.setdefault(alias, []).append(row)
            tokens.update(split_tokens(alias))
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


def _build(records: Iterable[ItemRecord]) -> _Tables:
    """The tables of the distinct records in rank order; of records with
    one id the last wins."""
    by_id: dict[EntityId, ItemRecord] = {}
    duplicate_ids = 0
    for record in records:
        if record.id in by_id:
            duplicate_ids += 1
            log.warning("duplicate record id %s: last one wins", record.id)
        by_id[record.id] = record
    ordered = sorted(by_id.values(), key=lambda r: (-r.sitelinks_count, r.id))
    return _compile(ordered, duplicate_ids)


def _dump(tables: _Tables) -> bytes:
    return marshal.dumps(tuple(tables), _MARSHAL_FORMAT)


def _without_gc(fn: Callable[..., T], *args) -> T:
    """fn(*args) with the cyclic GC paused. Reading records, compiling
    tables and loading a blob allocate hundreds of thousands of tuples and
    records, none of them in a cycle, and the GC would walk them all again
    and again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(*args)
    finally:
        if enabled:
            gc.enable()


class Index:
    """Search structures over one record set.

    `Index(records)` builds them in memory and keeps no record it was
    given; `load_index` builds the same object from a saved blob. Either
    way every ItemRecord the index hands out is decoded from its row by
    record_at, the first time it is asked for, and memoized, so each row is
    decoded at most once per Index and equals the record it was built
    from. Searches may run concurrently: two that decode the same row at
    once both store an equal record.
    """

    def __init__(self, records: Iterable[ItemRecord]):
        tables = _without_gc(_build, records)
        # Kept for save_index, so a build marshals its tables once.
        blob = _dump(tables)
        self._adopt(tables, hashlib.sha256(blob).hexdigest(), blob)

    @classmethod
    def _from_tables(cls, tables: _Tables, build_id: str) -> Index:
        index = cls.__new__(cls)
        index._adopt(tables, build_id, None)
        return index

    def _adopt(self, tables: _Tables, build_id: str,
               blob: bytes | None) -> None:
        self._tables = tables
        self._blob = blob
        self._memo: dict[int, ItemRecord] = {}
        self.build_id = build_id
        self.duplicate_ids = tables.duplicate_ids

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

    @cached_property
    def records_by_id(self) -> dict[EntityId, ItemRecord]:
        """Every record by id, in id order; every row is decoded on first
        use."""
        rows = self._tables.rows
        return {eid: self.record_at(rows[eid.raw])
                for eid in sorted(map(EntityId.parse, rows))}

    def get(self, eid: EntityId) -> ItemRecord | None:
        row = self._tables.rows.get(eid.raw)
        return None if row is None else self.record_at(row)

    def postings(self, token: str) -> tuple[int, ...]:
        return self._tables.postings.get(token, ())


def search(index: Index, mention: str, k: int) -> list[RawCandidate]:
    """Ranked candidates for a mention, at most k.

    Candidates are exact label matches, then exact alias matches, then
    partial matches: records whose label/alias tokens cover at least half of
    the mention's distinct non-stopword tokens, rounded up, ordered by token
    overlap. Each record enters at its best tier. Ties go to the record with
    more sitelinks, then to the lower id; that is row order, so each tier is
    read only until k rows are chosen. Fully deterministic.
    """
    norm = normalize(mention)
    tokens = split_tokens(norm)
    if not norm or not tokens:
        raise EmptyMention(f"mention {mention!r} normalizes to nothing linkable")

    t = index._tables
    labels = t.by_label.get(norm, ())[:max(k, 0)]
    aliases = [row for row in t.by_alias.get(norm, ())
               if row not in labels][:k - len(labels)]
    hits = ([(row, EXACT_LABEL, 1.0) for row in labels]
            + [(row, EXACT_ALIAS, 1.0) for row in aliases])
    if len(hits) < k:
        distinct = list(dict.fromkeys(tokens))
        hits += [(row, PARTIAL, covered / len(distinct)) for row, covered
                 in _partial(t.postings, distinct, {*labels, *aliases},
                             k - len(hits))]
    return [RawCandidate(index.record_at(row), tier, overlap)
            for row, tier, overlap in hits]


def _holds(rows: tuple[int, ...], row: int) -> bool:
    i = bisect_left(rows, row)
    return i < len(rows) and rows[i] == row


def _partial(postings: dict[str, tuple[int, ...]], tokens: list[str],
             taken: set[int], want: int) -> list[tuple[int, int]]:
    """The best `want` (row, tokens covered) pairs of the partial tier,
    leaving out the rows in taken: rows covering at least ceil(n/2) of the
    n distinct tokens, more coverage first, then row order. Only the
    shortest posting lists are read whole; the others are read up to their
    head or probed by bisection."""
    if len(tokens) == 1:
        rows = postings.get(tokens[0], ())
        return [(row, 1) for row in rows[:want + len(taken)]
                if row not in taken][:want]
    lists = sorted([postings.get(token, ()) for token in tokens], key=len)
    if len(lists) == 2:
        # Either token reaches the bar. Rows holding both come first, then
        # the rest of the union in row order, whose first m rows outside
        # skip lie within the first m + len(skip) rows of each list.
        short, long = lists
        both = [row for row in short if row not in taken and _holds(long, row)]
        m = want - len(both)
        if m <= 0:
            return [(row, 2) for row in both[:want]]
        skip = taken.union(both)
        head = set(short[:m + len(skip)]).union(long[:m + len(skip)])
        return ([(row, 2) for row in both]
                + [(row, 1) for row in sorted(head - skip)[:m]])
    # Prefix filter: a row covering c tokens is missing from n - c lists, so
    # it sits in at least one of the n - c + 1 shortest. Gather rows from
    # those at the bar and probe the longer lists for the rest of the count.
    needed = math.ceil(len(lists) / 2)
    prefix = len(lists) - needed + 1
    counts = Counter(chain.from_iterable(lists[:prefix]))
    for longer in lists[prefix:]:
        for row in counts:
            counts[row] += _holds(longer, row)
    best = sorted((-covered, row) for row, covered in counts.items()
                  if covered >= needed and row not in taken)
    return [(row, -negated) for negated, row in best[:want]]


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
    blob = index._blob if index._blob is not None else _dump(index._tables)
    (out / BLOB_NAME).write_bytes(blob)
    manifest = {
        "artifact_version": __version__,
        **_pins(),
        "build_id": index.build_id,
        "record_count": len(index),
        "duplicate_ids": index.duplicate_ids,
    }
    write_json(out / MANIFEST_NAME, manifest, sort_keys=True)


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


def _json_object(obj: object) -> dict:
    if type(obj) is not dict:
        raise TypeError("the document is not an object")
    return obj


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
        manifest = read_json(manifest_path, _json_object)
    except ParseError as exc:
        raise IndexUnavailable(
            f"index {path}: {MANIFEST_NAME} is not a valid JSON object ({exc})") from exc
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
        tables = _checked(_without_gc(marshal.loads, blob),
                          manifest.get("record_count"))
    except (EOFError, TypeError, ValueError):
        tables = None
    if tables is None:
        raise IndexUnavailable(f"index {path}: {BLOB_NAME} is malformed; rebuild")
    return Index._from_tables(tables, build_id)
