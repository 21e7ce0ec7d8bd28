"""Searchable label/alias index that produces the initial ranked candidate
list, standing in for an online search API.

The index is built once and is immutable afterwards. Records live in rows
numbered in rank order (sitelinks count descending, then id), the order in
which search breaks ties; search works on row numbers and builds an
ItemRecord only for a row it returns. Every table is a tuple: one sorted
vocabulary of normalized labels, aliases and tokens with a row tuple per
key and kind, probed by bisection, and one marshalled bytes object per
row, decoded on first use. Loading therefore builds no hash table, and
no record until one is asked for. Persistence is a directory holding the tables as one
marshalled blob plus a manifest that pins the blob's hash and the versions
it depends on, so a loaded index always matches what was built.
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
    rank order: sitelinks count descending, then EntityId. keys ascend
    strictly, and key i's rows of each kind are entry i of label_rows,
    alias_rows and token_rows, () where the key is not of that kind. Row
    tuples ascend, so each lists its records best-ranked first."""

    header: tuple[int, str, str]
    duplicate_ids: int
    ids: tuple[str, ...]                           # raw id of each row
    id_order: tuple[int, ...]                      # rows sorted by raw id
    # Each row's label, aliases, description, direct type numbers,
    # sitelinks count and sorted flagged property numbers, marshalled.
    records: tuple[bytes, ...]
    keys: tuple[str, ...]                          # labels, aliases, tokens
    label_rows: tuple[tuple[int, ...], ...]        # normalized label -> rows
    alias_rows: tuple[tuple[int, ...], ...]        # normalized alias -> rows
    token_rows: tuple[tuple[int, ...], ...]        # label/alias token -> rows


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

    keys = tuple(sorted(by_label.keys() | by_alias.keys() | postings.keys()))

    def column(rows_of: dict[str, list[int]]) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(rows_of.get(key, ())) for key in keys)

    ids = tuple(r.id.raw for r in records)
    return _Tables(
        header=_HEADER,
        duplicate_ids=duplicate_ids,
        ids=ids,
        id_order=tuple(sorted(range(len(ids)), key=ids.__getitem__)),
        records=tuple(marshal.dumps(
            (r.label, r.aliases, r.description,
             tuple(t.num for t in r.direct_types), r.sitelinks_count,
             tuple(sorted(p.num for p in r.flagged_props))), _MARSHAL_FORMAT)
            for r in records),
        keys=keys,
        label_rows=column(by_label),
        alias_rows=column(by_alias),
        token_rows=column(postings),
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
    given; `load_index` builds the same object from a saved blob. The
    tables are tuples only: a label, alias, token or id is found by
    bisection, so a load makes no dict or other per-key structure. Every
    ItemRecord the index hands out is decoded from its row's bytes by
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
            label, aliases, description, types, sitelinks, flagged = \
                marshal.loads(t.records[row])
            record = ItemRecord(
                id=EntityId.parse(t.ids[row]),
                label=label,
                aliases=aliases,
                description=description,
                direct_types=tuple(EntityId(ITEM, n) for n in types),
                sitelinks_count=sitelinks,
                flagged_props=frozenset(EntityId(PROPERTY, n) for n in flagged))
            self._memo[row] = record
        return record

    @cached_property
    def records_by_id(self) -> dict[EntityId, ItemRecord]:
        """Every record by id, in id order; every row is decoded on first
        use."""
        return {eid: self.record_at(row) for eid, row
                in sorted((EntityId.parse(raw), row)
                          for row, raw in enumerate(self._tables.ids))}

    def get(self, eid: EntityId) -> ItemRecord | None:
        t = self._tables
        raw = eid.raw
        i = bisect_left(t.id_order, raw, key=t.ids.__getitem__)
        if i < len(t.id_order) and t.ids[t.id_order[i]] == raw:
            return self.record_at(t.id_order[i])
        return None

    def postings(self, token: str) -> tuple[int, ...]:
        return _rows(self._tables.token_rows, _find(self._tables.keys, token))


def _find(keys: tuple[str, ...], key: str) -> int | None:
    """The position of key in the ascending keys, or None."""
    i = bisect_left(keys, key)
    return i if i < len(keys) and keys[i] == key else None


def _rows(column: tuple[tuple[int, ...], ...], at: int | None) -> tuple[int, ...]:
    return () if at is None else column[at]


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
    at = _find(t.keys, norm)
    labels = _rows(t.label_rows, at)[:max(k, 0)]
    aliases = [row for row in _rows(t.alias_rows, at)
               if row not in labels][:k - len(labels)]
    hits = ([(row, EXACT_LABEL, 1.0) for row in labels]
            + [(row, EXACT_ALIAS, 1.0) for row in aliases])
    if len(hits) < k:
        distinct = list(dict.fromkeys(tokens))
        # A one-token mention is its own token: its probe is reused.
        spots = [at] if distinct == [norm] else [_find(t.keys, token)
                                                 for token in distinct]
        lists = [_rows(t.token_rows, spot) for spot in spots]
        hits += [(row, PARTIAL, covered / len(distinct)) for row, covered
                 in _partial(lists, {*labels, *aliases}, k - len(hits))]
    return [RawCandidate(index.record_at(row), tier, overlap)
            for row, tier, overlap in hits]


def _holds(rows: tuple[int, ...], row: int) -> bool:
    i = bisect_left(rows, row)
    return i < len(rows) and rows[i] == row


def _partial(lists: list[tuple[int, ...]], taken: set[int],
             want: int) -> list[tuple[int, int]]:
    """The best `want` (row, tokens covered) pairs of the partial tier,
    given the posting lists of the n distinct tokens and leaving out the
    rows in taken: rows covering at least ceil(n/2) tokens, more coverage
    first, then row order. Only the shortest posting lists are read whole;
    the others are read up to their head or probed by bisection."""
    if len(lists) == 1:
        return [(row, 1) for row in lists[0][:want + len(taken)]
                if row not in taken][:want]
    lists = sorted(lists, key=len)
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
    """data as _Tables if it has their shape, record_count rows and one
    entry per key in each key column, else None."""
    if not (type(data) is tuple and len(data) == len(_Tables._fields)):
        return None
    t = _Tables._make(data)
    by_row = (t.ids, t.id_order, t.records)
    by_key = (t.keys, t.label_rows, t.alias_rows, t.token_rows)
    if (t.header != _HEADER or type(t.duplicate_ids) is not int
            or not all(type(c) is tuple and len(c) == record_count
                       for c in by_row)
            or not all(type(c) is tuple and len(c) == len(t.keys)
                       for c in by_key)):
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
