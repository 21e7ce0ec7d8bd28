"""Per-mention linking pipeline: retrieve candidates, analyze their types
against the configured tier lists, score, and pick the best link or NIL.

All scoring inputs are normalized text, so results are a function of the
normalized mention/context only. LinkResult.mention therefore holds the
normalized mention, which keeps the memoizing cache exactly transparent.
normalize() is not idempotent, so a link normalizes its mention once and
hands that string on: link(), link_from_candidates() and index.search()
take it as normalized=, which must be normalize(mention).
LinkResult, ScoredCandidate and Diagnostics are typing.NamedTuples.
closure.memo keeps the linker's tables, one holding the context-free
LinkResult of each key the index has found, per mode, so such a link repeats
at dict cost. Concurrent links store equal entries.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterable
from functools import lru_cache, partial
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .closure import TypeClosure
from .index import (
    EXACT_ALIAS,
    EXACT_LABEL,
    PARTIAL,
    Index,
    RawCandidate,
    search,
)
from .kb import (
    InferenceRule,
    ItemRecord,
    ValidatedConfig,
    record_to_obj,
)
from .text import counts_cosine, normalize, term_counts, tokenize

CELL = "cell"
HEADER = "header"

TARGET = "TARGET"
NEAR_MISS = "NEAR_MISS"
GOOD = "GOOD"
OK = "OK"
UNKNOWN = "UNKNOWN"
BAD = "BAD"

TIER_SCORES = {TARGET: 1.0, NEAR_MISS: 0.8, GOOD: 0.6, OK: 0.4, UNKNOWN: 0.2}

_MATCH_SCORES = {EXACT_LABEL: 1.0, EXACT_ALIAS: 0.8}


def infer_domain_types(record: ItemRecord,
                       rules: Iterable[InferenceRule]) -> frozenset[str]:
    """Type names implied by the record's watched properties."""
    return frozenset(r.then_type_name for r in rules
                     if r.if_property in record.flagged_props)


def classify_type_tier(record: ItemRecord,
                       config: ValidatedConfig,
                       closure: TypeClosure,
                       expected_types: Iterable[str] | None = None, *,
                       inferred: frozenset[str] | None = None) -> str:
    """Place a candidate on the tier ladder by the types it has, its direct
    types plus every ancestor of one; each tier is one test against them.

    BAD is absolute and tested first. TARGET/NEAR_MISS need expected_types;
    GOOD and OK match either the tier's ids or an inferred domain type name
    listed in that tier; inferred, when given, is infer_domain_types()'s.
    Every name resolves through config.resolve_names() on each call;
    link_from_candidates() calls it once per memo entry, not per hit.
    """
    types = closure.types_of(record.direct_types)
    if not types.isdisjoint(config.resolve_names(config.tiers["bad"])):
        return BAD
    if expected_types:
        expected = tuple(expected_types)
        if not types.isdisjoint(config.resolve_names(expected)):
            return TARGET
        if any(not types.isdisjoint(config.resolve_names(
                config.near_miss_map.get(name, ()))) for name in expected):
            return NEAR_MISS
    if inferred is None:
        inferred = infer_domain_types(record, config.property_inference)
    for tier, label in (("good", GOOD), ("ok", OK)):
        if not (types.isdisjoint(config.resolve_names(config.tiers[tier]))
                and inferred.isdisjoint(config.tiers[tier])):
            return label
    return UNKNOWN


def record_terms(record: ItemRecord) -> tuple[dict, int]:
    """term_counts() of the record's label, description, and aliases."""
    return term_counts(tokenize(
        " ".join([record.label, record.description, *record.aliases])))


def context_similarity(context: str | None, record: ItemRecord, *,
                       counts: tuple[dict, int] | None = None,
                       terms: tuple[dict, int] | None = None) -> float:
    """Term-frequency cosine between the context and the record's label,
    description, and aliases. counts, when given, is
    term_counts(tokenize(context)), and terms is record_terms(record)."""
    if counts is None:
        counts = term_counts(tokenize(context) if context else ())
    return counts_cosine(counts, record_terms(record) if terms is None else terms)


class ScoredCandidate(NamedTuple):
    record: ItemRecord
    match_tier: str
    type_tier: str
    inferred_type_names: frozenset[str]
    token_overlap: float
    type_score: float
    match_score: float
    prominence: float
    context_sim: float
    boosts: float
    weighted_base: float
    final_score: float


# A ScoredCandidate from the tuple of its fields, without the Python-level
# __new__ that NamedTuple generates: the linker makes one per candidate.
new_scored = partial(tuple.__new__, ScoredCandidate)


def scored_sort_key(c: ScoredCandidate) -> tuple:
    return (-c.final_score, -c.record.sitelinks_count, c.record.id)


# A ranking entry's parts: sort key, below min_link_score, ScoredCandidate.
_SORT_KEY, _BELOW, _SCORED = map(itemgetter, range(3))


def _entry(c: ScoredCandidate, min_link_score: float) -> tuple:
    return scored_sort_key(c), c.final_score < min_link_score, c


def _expected_key(expected_types: Iterable[str] | None) -> tuple[str, ...]:
    return tuple(sorted(set(expected_types))) if expected_types else ()


def _tables(closure: TypeClosure, config: ValidatedConfig,
            expected: tuple[str, ...]) -> tuple[dict, dict, dict, dict]:
    """closure.memo's tier, scored, terms and ranked tables, made on first use."""
    if (tables := closure.memo.get(key := (config.content_hash, expected))) is None:
        tables = closure.memo[key] = ({}, {}, {}, {})
    return tables


class Diagnostics(NamedTuple):
    retrieved: int = 0
    rejected_bad: int = 0
    below_threshold: int = 0


class LinkResult(NamedTuple):
    mention: str
    mode: str
    chosen: ScoredCandidate | None
    candidates: tuple[ScoredCandidate, ...]
    diagnostics: Diagnostics = Diagnostics()


def _ranked(entries: list, mention: str, mode: str, retrieved: int,
            rejected_bad: int) -> LinkResult:
    """Rank entries stably by key, then NIL if the head is below threshold."""
    if len(entries) > 1:
        entries.sort(key=_SORT_KEY)
    chosen = entries[0][2] if entries and not entries[0][1] else None
    # Both made from their fields, as new_scored makes a ScoredCandidate.
    diagnostics = tuple.__new__(Diagnostics, (retrieved, rejected_bad,
                                              sum(map(_BELOW, entries))))
    return tuple.__new__(LinkResult, (mention, mode, chosen,
                                      tuple(map(_SCORED, entries)), diagnostics))


def link_from_candidates(mention: str,
                         raw_candidates: list[RawCandidate],
                         mode: str,
                         context: str | None,
                         expected_types: Iterable[str] | None,
                         closure: TypeClosure,
                         config: ValidatedConfig, *,
                         normalized: str | None = None) -> LinkResult:
    """Score an already-retrieved candidate list and select the link.

    Split out from link() so the benchmark can time the ranking phase on its
    own. closure.memo keeps its tables per (config content_hash, sorted
    expected types), which equal configs share: (type tier, inferred names,
    tier score) by (direct_types, flagged_props), and again with the record
    by id(record); context-free ranking entries by (pool sitelinks maximum,
    mode), then (id(record), match tier, overlap); and record_terms() by
    id(record); link() keeps each context-free LinkResult by
    (id(index.found(normalized)), mode), at most one per found key and mode.
    An identity-keyed entry holds its record or rows, and no memo probe
    hashes a record's fields. Concurrent links store equal entries. Ranking
    is a stable sort by scored_sort_key. Raises ValueError for a mode other
    than CELL and HEADER.
    """
    if mode not in (CELL, HEADER):
        raise ValueError(f"mode must be {CELL!r} or {HEADER!r}, not {mode!r}")
    expected = _expected_key(expected_types)
    tiers, scored, terms, _ = _tables(closure, config, expected)
    survivors, s_max = [], 0
    for cand in raw_candidates:
        record = cand.record
        # Keyed by identity as well: the entry holds the record, so no other
        # object can take its id while the entry lives.
        if (tiered := tiers.get(id(record))) is None:
            key = (record.direct_types, record.flagged_props)
            if (tiered := tiers.get(key)) is None:
                names = infer_domain_types(record, config.property_inference)
                tier = classify_type_tier(record, config, closure, expected,
                                          inferred=names)
                tiered = tiers[key] = (tier, names, TIER_SCORES.get(tier))
            tiered = tiers[id(record)] = (*tiered, record)
        if tiered[0] != BAD:
            survivors.append((cand, tiered))
            if record.sitelinks_count > s_max:
                s_max = record.sitelinks_count

    w_type, w_match, w_prom, w_ctx = config.weights
    params = config.params
    # 0.0 + keeps a configured -0.0 boost at 0.0.
    header_boost = 0.0 + params.header_property_boost if mode == HEADER else 0.0
    ctx_tokens = tokenize(context) if context and survivors else None
    if ctx_tokens:
        memo = {}  # entries scored against a context live for this call only
        counts = term_counts(ctx_tokens)
    elif (memo := scored.get((s_max, mode))) is None:
        memo = scored[s_max, mode] = {}
    entries = []
    for cand, tiered in survivors:
        record, match_tier, overlap = cand
        # The entry holds the record, as the tier entry does.
        if (entry := memo.get(key := (id(record), match_tier, overlap))) is None:
            tier, inferred, type_score, _ = tiered
            match_score = (0.4 * overlap if match_tier == PARTIAL
                           else _MATCH_SCORES[match_tier])
            prominence = record.sitelinks_count / s_max if s_max else 0.0
            context_sim = 0.0
            if ctx_tokens:
                if (kept := terms.get(id(record))) is None:
                    kept = terms[id(record)] = (record_terms(record), record)
                context_sim = context_similarity(context, record, counts=counts,
                                                 terms=kept[0])
            boosts = header_boost if record.id.is_property else 0.0
            base = (w_type * type_score + w_match * match_score
                    + w_prom * prominence + w_ctx * context_sim)
            c = new_scored((record, match_tier, tier, inferred, overlap,
                            type_score, match_score, prominence, context_sim,
                            boosts, base, base + boosts))
            entry = memo[key] = _entry(c, params.min_link_score)
        entries.append(entry)
    return _ranked(entries,
                   normalize(mention) if normalized is None else normalized,
                   mode, len(raw_candidates), len(raw_candidates) - len(survivors))


def boost(result: LinkResult, hit: Callable[[ScoredCandidate], bool],
          amount: float, min_link_score: float) -> LinkResult:
    """result with amount added to the boosts of the candidates hit accepts,
    ranked again; result itself when hit accepts none."""
    hits = list(map(hit, result.candidates))
    if not any(hits):
        return result
    entries = []
    for c, h in zip(result.candidates, hits):
        if h:  # c[:9] is every field before boosts
            c = new_scored((*c[:9], b := c.boosts + amount, c.weighted_base,
                            c.weighted_base + b))
        entries.append(_entry(c, min_link_score))
    return _ranked(entries, result.mention, result.mode, *result.diagnostics[:2])


def link(mention: str,
         mode: str,
         index: Index,
         closure: TypeClosure,
         config: ValidatedConfig,
         context: str | None = None,
         expected_types: Iterable[str] | None = None,
         normalized: str | None = None) -> LinkResult:
    """Full pipeline for one mention. Raises EmptyMention when the mention
    normalizes to nothing searchable; returns NIL when nothing scores above
    min_link_score."""
    norm = normalize(mention) if normalized is None else normalized
    expected = _expected_key(expected_types)
    # A context-free link of a found key keeps its result, by its rows' id.
    rows = None if context else index.found(norm)
    if rows is not None and (tables := closure.memo.get(
            (config.content_hash, expected))) and (
            kept := tables[3].get((id(rows), mode))):
        return kept[1]
    raw = search(index, mention, config.params.k, normalized=norm)
    result = link_from_candidates(mention, raw, mode, context, expected,
                                  closure, config, normalized=norm)
    if not context and (rows := index.found(norm)) is not None:
        _tables(closure, config, expected)[3][id(rows), mode] = (rows, result)
    return result


# Every field of ScoredCandidate except the record, in declaration order.
_SCALAR_FIELDS = ScoredCandidate._fields[1:]


def _json_value(value):
    return sorted(value) if isinstance(value, frozenset) else value


def candidate_to_obj(c: ScoredCandidate) -> dict:
    return {"record": record_to_obj(c.record),
            **{name: _json_value(getattr(c, name)) for name in _SCALAR_FIELDS}}


def result_to_obj(result: LinkResult) -> dict:
    return {
        "mention": result.mention,
        "mode": result.mode,
        "chosen": candidate_to_obj(result.chosen) if result.chosen else None,
        "candidates": [candidate_to_obj(c) for c in result.candidates],
        "diagnostics": result.diagnostics._asdict(),
    }


class LinkCache:
    """Memoizes link results in memory, for one thread.

    Keys cover everything the result depends on, so a hit is always safe to
    return verbatim. A cache normalizes each distinct raw string once.
    cache_dir, when given, is created if it can be and nothing is ever
    written to it: results are kept in memory only.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        if cache_dir:
            with contextlib.suppress(OSError):
                Path(cache_dir).mkdir(parents=True, exist_ok=True)
        self._memory: dict[tuple, LinkResult] = {}
        self._normalize = lru_cache(maxsize=None)(normalize)
        self.hits = 0
        self.misses = 0

    def key(self, mention: str, mode: str, context: str | None,
            expected_types: Iterable[str] | None, config: ValidatedConfig,
            build_id: str, closure: TypeClosure) -> tuple:
        norm = self._normalize
        return (norm(mention), mode, norm(context) if context else "",
                _expected_key(expected_types), config.content_hash, build_id,
                closure.digest)

    def get_or_compute(self, key: tuple,
                       compute: Callable[[], LinkResult]) -> LinkResult:
        """The cached result for key, else compute()'s, which is kept."""
        if (cached := self._memory.get(key)) is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self._memory[key] = compute()
        return result


def cached_link(mention: str,
                mode: str,
                index: Index,
                closure: TypeClosure,
                config: ValidatedConfig,
                context: str | None = None,
                expected_types: Iterable[str] | None = None,
                cache: LinkCache | None = None) -> LinkResult:
    """link() behind the memoizing cache. Exactly equivalent to link() for
    every input; without a cache it simply computes."""
    if cache is None:
        return link(mention, mode, index, closure, config, context,
                    expected_types)
    # link() gets the key's normalize(mention) and its one read of expected_types.
    key = cache.key(mention, mode, context, expected_types, config,
                    index.build_id, closure)
    return cache.get_or_compute(key, partial(
        link, mention, mode, index, closure, config, context, key[3], key[0]))
