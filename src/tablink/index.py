"""Searchable label/alias index that produces the initial ranked candidate
list, standing in for an online search API.

The index is built once and is immutable afterwards. Records live in rows
numbered in rank order (sitelinks count descending, then id), the order in
which search breaks ties; search works on row numbers and builds an
ItemRecord only for a row it returns. The ids and one sorted vocabulary of
normalized labels, aliases and tokens are tuples of strings, probed by
bisection; every list of rows is a slice of a flat uint32 column, and each
row's fields a slice of one bytes column, decoded on first use. Loading
therefore builds no hash table, no per-key container and no record until
one is asked for; searches then keep each key and record they read, so a
repeated probe costs a dict lookup. Persistence is a directory holding the
tables as one marshalled blob plus a manifest that pins the blob's hash and
what it depends on, so a loaded index always matches what was built.
"""

from __future__ import annotations

import gc
import hashlib
import marshal
import math
import operator
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cached_property, partial
from itertools import accumulate, chain, islice
from pathlib import Path
from typing import NamedTuple

from .errors import EmptyMention, IndexUnavailable, ParseError
from .kb import ITEM, PROPERTY, EntityId, ItemRecord, must_be, read_json, write_json

# Unused here; tablink.index.read_records stays a name because the
# perfbench tracer wraps it.
from .kb import read_records  # noqa: F401
from .text import NORMALIZATION_VERSION, STOPWORDS_VERSION, normalize, split_tokens
from .version import FORMAT_VERSION, __version__

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

# Item type of the row and end columns: native unsigned int, so no row
# number is negative. Its size and the byte order are manifest pins.
_UINT = "I"


class RawCandidate(NamedTuple):
    """One search hit: the record plus how the mention matched it."""

    record: ItemRecord
    match_tier: str
    token_overlap: float


# A RawCandidate from the tuple of its fields, without the Python-level
# __new__ that NamedTuple generates: search makes one per hit.
new_raw = partial(tuple.__new__, RawCandidate)


class _Tables(NamedTuple):
    """Everything an Index holds: strings, ints and memoryviews, which
    marshal writes as bytes. Row r is the r-th record in rank order:
    sitelinks count descending, then EntityId. keys ascend strictly. A flat
    column X is cut into entries by X_ends: entry i is X[ends[i - 1]:ends[i]],
    from 0 for entry 0. Row r's fields are entry r of records, and key i's
    rows of each kind are entry i of label_rows, alias_rows and token_rows,
    empty where the key is not of that kind. No row is in both a key's label
    and alias entries, as ItemRecord keeps no alias that normalizes to its
    label. Each entry's rows ascend strictly, so it lists its records
    best-ranked first. Every view but records is uint32."""

    header: tuple[int, str, str]
    duplicate_ids: int
    ids: tuple[str, ...]                           # raw id of each row
    keys: tuple[str, ...]                          # labels, aliases, tokens
    # Each row's label, aliases, description, direct type numbers,
    # sitelinks count and sorted flagged property numbers, marshalled.
    records: memoryview
    id_order: memoryview                           # rows sorted by raw id
    record_ends: memoryview
    label_rows: memoryview                         # normalized label -> rows
    label_ends: memoryview
    alias_rows: memoryview                         # normalized alias -> rows
    alias_ends: memoryview
    token_rows: memoryview                         # label/alias token -> rows
    token_ends: memoryview


# The types of a row's marshalled fields: label, aliases, description,
# direct type numbers, sitelinks count, flagged property numbers.
_ROW_TYPES = (str, tuple, str, tuple, int, tuple)


def _cast(data: bytes) -> memoryview:
    """data as a read-only uint32 view; TypeError unless it is whole items."""
    return memoryview(data).cast(_UINT)


def _uints(values: Iterable[int]) -> memoryview:
    return _cast(array(_UINT, values).tobytes())


def _malformed(what: str) -> IndexUnavailable:
    return IndexUnavailable(f"index {what} is malformed; rebuild the index")


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

    def ends(entries: list) -> memoryview:
        return _uints(accumulate(map(len, entries)))

    def column(rows_of: dict[str, list[int]]) -> tuple[memoryview, memoryview]:
        lists = [rows_of.get(key, ()) for key in keys]
        return _uints(chain.from_iterable(lists)), ends(lists)

    ids = tuple(r.id.raw for r in records)
    blobs = [marshal.dumps(
        (r.label, r.aliases, r.description,
         tuple(t.num for t in r.direct_types), r.sitelinks_count,
         tuple(sorted(p.num for p in r.flagged_props))), _MARSHAL_FORMAT)
        for r in records]
    return _Tables(
        _HEADER, duplicate_ids, ids, keys, memoryview(b"".join(blobs)),
        _uints(sorted(range(len(ids)), key=ids.__getitem__)), ends(blobs),
        *column(by_label), *column(by_alias), *column(postings))


def _build(records: Iterable[ItemRecord]) -> _Tables:
    """The tables of the distinct records in rank order; of records with
    one id the last wins, and Index.duplicate_ids counts the others."""
    by_id: dict[EntityId, ItemRecord] = {}
    duplicate_ids = 0
    for record in records:
        if record.id in by_id:
            duplicate_ids += 1
        by_id[record.id] = record
    ordered = sorted(by_id.values(), key=lambda r: (-r.sitelinks_count, r.id))
    return _compile(ordered, duplicate_ids)


def _dump(tables: _Tables) -> bytes:
    return marshal.dumps(tuple(tables), _MARSHAL_FORMAT)


class Index:
    """Search structures over one record set.

    `Index(records)` builds them in memory and keeps no record it was
    given, nor the blob its build_id hashes; `load_index` builds the same
    object from a saved blob, and save_index marshals either again. A label,
    alias, token or id is found by bisection, and each list of rows is a
    read-only slice of a flat uint32 column, so a load makes no dict and no
    per-key container. `_found` keeps each key a search or postings finds,
    as the index's own string, with its label, alias and token rows as
    tuples: at most one entry per key, as a string that is no key is
    bisected on each probe and never kept. `_memo` keeps each ItemRecord
    record_at decodes from its row's bytes, so a row is decoded at most
    once per Index and equals the record it was built from. Each entry is
    checked when first read and refused, unkept, if malformed; a key's rows
    must ascend strictly. Concurrent searches store equal entries.
    """

    def __init__(self, records: Iterable[ItemRecord]):
        # Reading records and compiling tables allocate hundreds of thousands
        # of tuples and records, none of them in a cycle, and the cyclic GC
        # would walk them all again and again.
        enabled = gc.isenabled()
        gc.disable()
        try:
            tables = _build(records)
        finally:
            if enabled:
                gc.enable()
        self._adopt(tables, hashlib.sha256(_dump(tables)).hexdigest())

    def _adopt(self, tables: _Tables, build_id: str) -> Index:
        self._tables = tables
        self._found: dict[str, tuple[tuple[int, ...], ...]] = {}
        self._memo: dict[int, ItemRecord] = {}
        self.build_id = build_id
        self.duplicate_ids = tables.duplicate_ids
        return self

    def __len__(self) -> int:
        return len(self._tables.ids)

    def record_at(self, row: int) -> ItemRecord:
        """The record in row, made on first use. A row whose bytes are not
        the six fields of a record ItemRecord accepts is refused."""
        record = self._memo.get(row)
        if record is None:
            t = self._tables
            if row >= len(t.ids):
                raise _malformed(f"row {row}")
            data = _entry(t.records, t.record_ends, row)
            try:
                fields = marshal.loads(data)
                if tuple(map(type, fields)) != _ROW_TYPES or not all(
                        type(n) is int and n >= 0
                        for n in fields[3] + fields[5]):
                    raise TypeError("not a row")
                label, aliases, description, types, sitelinks, flagged = fields
                record = ItemRecord(
                    id=EntityId.parse(t.ids[row]),
                    label=label,
                    aliases=aliases,
                    description=description,
                    direct_types=tuple(EntityId(ITEM, n) for n in types),
                    sitelinks_count=sitelinks,
                    flagged_props=frozenset(EntityId(PROPERTY, n)
                                            for n in flagged))
            except (EOFError, TypeError, ValueError):
                raise _malformed(f"row {row}") from None
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
        found = i < len(t.id_order) and t.ids[t.id_order[i]] == raw
        return self.record_at(t.id_order[i]) if found else None

    def postings(self, token: str) -> tuple[int, ...]:
        return self._rows(token)[2]

    def found(self, key: str) -> tuple[tuple[int, ...], ...] | None:
        """key's kept rows if a search or postings found it, else None."""
        return self._found.get(key)

    def _rows(self, key: str) -> tuple[tuple[int, ...], ...]:
        """key's label, alias and token rows; all empty if it is no key."""
        rows = self._found.get(key)
        if rows is None:
            t = self._tables
            at = bisect_left(t.keys, key)
            if at == len(t.keys) or t.keys[at] != key:
                return ((), (), ())
            rows = tuple(tuple(_entry(flat, ends, at)) for flat, ends in (
                (t.label_rows, t.label_ends), (t.alias_rows, t.alias_ends),
                (t.token_rows, t.token_ends)))
            if not all(map(_ascends, rows)):
                raise _malformed(f"column entry {at}")
            self._found[t.keys[at]] = rows
        return rows


def _entry(flat: memoryview, ends: memoryview, at: int) -> Sequence[int]:
    """Entry at of flat; refused unless its ends lie within flat."""
    start = ends[at - 1] if at else 0
    end = ends[at]
    if start <= end <= len(flat):
        return flat[start:end]
    raise _malformed(f"column entry {at}")


def search(index: Index, mention: str, k: int, *,
           normalized: str | None = None) -> list[RawCandidate]:
    """Ranked candidates for a mention, at most k.

    Candidates are exact label matches, then exact alias matches, then
    partial matches: records whose label/alias tokens cover at least half of
    the mention's distinct non-stopword tokens, rounded up, ordered by token
    overlap. Each record enters at its best tier. Ties go to the record with
    more sitelinks, then to the lower id; that is row order, so each tier is
    read only until k rows are chosen. Fully deterministic. normalized,
    when given, is normalize(mention), already computed.
    """
    norm = normalize(mention) if normalized is None else normalized
    tokens = split_tokens(norm)
    if not tokens:
        raise EmptyMention(f"mention {mention!r} normalizes to nothing linkable")

    if k < 1:
        return []
    label_rows, alias_rows, own_rows = index._rows(norm)
    labels = label_rows[:k]
    aliases = alias_rows[:k - len(labels)]
    memo, record_at, new = index._memo, index.record_at, new_raw
    found = []
    for tier, rows in ((EXACT_LABEL, labels), (EXACT_ALIAS, aliases)):
        for row in rows:
            found.append(new((memo.get(row) or record_at(row), tier, 1.0)))
    if len(found) < k:
        # A one-token mention is its own token: its probe is reused.
        lists = [own_rows] if tokens == [norm] else sorted(
            [index._rows(token)[2] for token in dict.fromkeys(tokens)],
            key=len)
        taken = {*labels, *aliases}
        if _settled(lists, taken):
            return found
        n = len(lists)
        for row, covered in _partial(lists, taken, k - len(found)):
            found.append(new((memo.get(row) or record_at(row), PARTIAL,
                              covered / n)))
    return found


def _settled(lists: list[Sequence[int]], taken: set[int]) -> bool:
    """Whether the partial tier is proved empty without building it, given
    the posting lists of the n distinct tokens in ascending length: a row
    covering ceil(n/2) tokens is in one of any n - ceil(n/2) + 1 of the
    lists, so none is left if the shortest that many lie within taken."""
    return all(len(rows) <= len(taken) and taken.issuperset(rows)
               for rows in lists[:len(lists) // 2 + 1])


def _holds(rows: Sequence[int], row: int) -> bool:
    i = bisect_left(rows, row)
    return i < len(rows) and rows[i] == row


def _partial(lists: list[Sequence[int]], taken: set[int],
             want: int) -> list[tuple[int, int]]:
    """The best `want` (row, tokens covered) pairs of the partial tier,
    given the n distinct tokens' posting lists, shortest first, and leaving
    out the rows in taken: rows covering at least ceil(n/2) tokens, more
    coverage first, then row order. Only the shortest posting lists are
    read whole; the others are read up to their head or probed by bisection."""
    if len(lists) == 1:
        return [(row, 1) for row in lists[0][:want + len(taken)]
                if row not in taken][:want]
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
    were derived under, the Python minor version and marshal version the
    blob was written by, and the byte order and size of its uint32 items."""
    return {
        "format_version": FORMAT_VERSION,
        "normalization_version": NORMALIZATION_VERSION,
        "stopwords_version": STOPWORDS_VERSION,
        "python_version": "%d.%d" % sys.version_info[:2],
        "marshal_version": marshal.version,
        "byteorder": sys.byteorder,
        "uint_size": array(_UINT).itemsize,
    }


def save_index(index: Index, out_dir: str | Path) -> None:
    """Persist as the marshalled tables, whose sha256 is the build_id, plus
    a manifest. A built index and a loaded one marshal to the same bytes."""
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
    write_json(out / MANIFEST_NAME, manifest, sort_keys=True)


def _ascends(values: Sequence) -> bool:
    return all(map(operator.lt, values, islice(values, 1, None)))


def _checked(data, record_count) -> _Tables:
    """data as _Tables, its bytes as views. TypeError, ValueError or
    IndexError unless it has their shape, record_count rows, one end per key
    in each key column, uint32 columns of whole items, and keys and ids in
    id_order ascending strictly, as bisecting them needs."""
    t = _Tables._make(data)
    t = _Tables(*t[:4], memoryview(t.records), *map(_cast, t[5:]))
    if not (t.header == _HEADER and type(t.duplicate_ids) is int
            and type(t.ids) is tuple and type(t.keys) is tuple
            and len(t.ids) == len(t.id_order) == len(t.record_ends)
            == record_count
            and len(t.keys) == len(t.label_ends) == len(t.alias_ends)
            == len(t.token_ends)
            and _ascends(t.keys)
            and _ascends([t.ids[row] for row in t.id_order])):
        raise ValueError("the blob is not this format's tables")
    return t


def load_index(index_dir: str | Path) -> Index:
    """The index saved in index_dir. Checks the manifest's version pins,
    then the blob's hash against the build_id, then the loaded tables'
    shape and order; any failure raises IndexUnavailable."""
    path = Path(index_dir)
    manifest_path = path / MANIFEST_NAME
    blob_path = path / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise IndexUnavailable(f"{path} is not an index directory")
    try:
        manifest = read_json(manifest_path, lambda obj: must_be(obj, "manifest", dict))
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
        tables = _checked(marshal.loads(blob), manifest.get("record_count"))
    except (EOFError, IndexError, TypeError, ValueError):
        raise IndexUnavailable(
            f"index {path}: {BLOB_NAME} is malformed; rebuild") from None
    return Index.__new__(Index)._adopt(tables, build_id)
