"""Searchable label/alias index that produces the initial ranked candidate
list, standing in for an online search API.

The index is built once, is immutable afterwards, and is safe for concurrent
searches. Persistence is a directory holding the records plus a manifest that
pins the build parameters, so a loaded index always matches what was built.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .errors import EmptyMention, IndexUnavailable
from .kb import (
    EntityId,
    ItemRecord,
    dump_json_line,
    read_records,
    record_to_obj,
    write_records,
)
from .text import NORMALIZATION_VERSION, STOPWORDS_VERSION, normalize, tokenize
from .version import FORMAT_VERSION, __version__

log = logging.getLogger(__name__)

EXACT_LABEL = "exact_label"
EXACT_ALIAS = "exact_alias"
PARTIAL = "partial"

# Position of each match tier in the ranking, best first.
_TIER_ORDER = {EXACT_LABEL: 0, EXACT_ALIAS: 1, PARTIAL: 2}

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"


@dataclass(frozen=True)
class RawCandidate:
    """One search hit: the record plus how the mention matched it."""

    record: ItemRecord
    match_tier: str
    token_overlap: float


class Index:
    """In-memory search structures over one record set."""

    def __init__(self, records: Iterable[ItemRecord]):
        self.records_by_id: dict[EntityId, ItemRecord] = {}
        self.duplicate_ids = 0
        for record in records:
            if record.id in self.records_by_id:
                self.duplicate_ids += 1
                log.warning("duplicate record id %s: last one wins", record.id)
            self.records_by_id[record.id] = record

        self._by_label: dict[str, list[EntityId]] = {}
        self._by_alias: dict[str, list[EntityId]] = {}
        self._postings: dict[str, list[EntityId]] = {}
        digest = hashlib.sha256()
        digest.update(f"{FORMAT_VERSION}|{NORMALIZATION_VERSION}|{STOPWORDS_VERSION}\n"
                      .encode("utf-8"))
        # Insertion over sorted ids keeps every bucket deterministically
        # ordered no matter how the records file was ordered. Aliases are
        # already distinct by normalized form (ItemRecord sees to it).
        for eid in sorted(self.records_by_id):
            record = self.records_by_id[eid]
            digest.update(dump_json_line(record_to_obj(record)).encode("utf-8"))
            self._by_label.setdefault(normalize(record.label), []).append(eid)
            for alias in record.aliases:
                self._by_alias.setdefault(normalize(alias), []).append(eid)
            tokens = set(tokenize(record.label))
            for alias in record.aliases:
                tokens.update(tokenize(alias))
            for token in tokens:
                self._postings.setdefault(token, []).append(eid)
        self.build_id = digest.hexdigest()

    def __len__(self) -> int:
        return len(self.records_by_id)

    def get(self, eid: EntityId) -> ItemRecord | None:
        return self.records_by_id.get(eid)

    def exact_label(self, norm_mention: str) -> list[EntityId]:
        return self._by_label.get(norm_mention, [])

    def exact_alias(self, norm_mention: str) -> list[EntityId]:
        return self._by_alias.get(norm_mention, [])

    def postings(self, token: str) -> list[EntityId]:
        return self._postings.get(token, [])


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

    # id -> (tier, overlap), filled worst tier first so a better one overwrites.
    pool: dict[EntityId, tuple[str, float]] = {}
    counts = Counter(chain.from_iterable(map(index.postings, distinct)))
    for eid, covered in counts.items():
        if covered >= needed:
            pool[eid] = (PARTIAL, covered / len(distinct))
    for eid in index.exact_alias(norm):
        pool[eid] = (EXACT_ALIAS, 1.0)
    for eid in index.exact_label(norm):
        pool[eid] = (EXACT_LABEL, 1.0)

    records = index.records_by_id

    def rank(item: tuple[EntityId, tuple[str, float]]) -> tuple:
        eid, (tier, overlap) = item
        return (_TIER_ORDER[tier], -overlap, -records[eid].sitelinks_count, eid)

    return [RawCandidate(records[eid], tier, overlap)
            for eid, (tier, overlap) in heapq.nsmallest(k, pool.items(), key=rank)]


def save_index(index: Index, out_dir: str | Path) -> None:
    """Persist as records + manifest. Loading rebuilds the in-memory
    structures, which are deterministic functions of the records."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_records(out / RECORDS_NAME,
                  (index.records_by_id[eid]
                   for eid in sorted(index.records_by_id)))
    manifest = {
        "artifact_version": __version__,
        "format_version": FORMAT_VERSION,
        "normalization_version": NORMALIZATION_VERSION,
        "stopwords_version": STOPWORDS_VERSION,
        "build_id": index.build_id,
        "record_count": len(index),
        "duplicate_ids": index.duplicate_ids,
    }
    with open(out / MANIFEST_NAME, "w", encoding="utf-8", newline="\n") as fp:
        json.dump(manifest, fp, ensure_ascii=False, indent=2, sort_keys=True)
        fp.write("\n")


def load_index(index_dir: str | Path) -> Index:
    path = Path(index_dir)
    manifest_path = path / MANIFEST_NAME
    records_path = path / RECORDS_NAME
    if not manifest_path.is_file() or not records_path.is_file():
        raise IndexUnavailable(f"{path} is not an index directory")
    with open(manifest_path, "r", encoding="utf-8") as fp:
        manifest = json.load(fp)
    for key, current in (("format_version", FORMAT_VERSION),
                         ("normalization_version", NORMALIZATION_VERSION),
                         ("stopwords_version", STOPWORDS_VERSION)):
        if manifest.get(key) != current:
            raise IndexUnavailable(
                f"index {path} was built with {key}={manifest.get(key)!r}, "
                f"this build uses {current!r}; rebuild the index")
    index = Index(read_records(records_path))
    if manifest.get("build_id") != index.build_id:
        raise IndexUnavailable(f"index {path} does not match its manifest; rebuild")
    return index
