"""Per-mention linking pipeline: retrieve candidates, analyze their types
against the configured tier lists, score, and pick the best link or NIL.

All scoring inputs are normalized text, so results are a function of the
normalized mention/context only. LinkResult.mention therefore holds the
normalized mention, which keeps the memoizing cache exactly transparent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import tempfile
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .closure import TypeClosure, has_type
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
from .text import normalize, tf_cosine, tokenize

log = logging.getLogger(__name__)

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
                       expected_types: Iterable[str] | None = None) -> str:
    """Place a candidate on the tier ladder using direct plus inherited types.

    BAD is absolute and checked first. TARGET/NEAR_MISS need expected_types;
    GOOD and OK match either the tier's ids or an inferred domain type name
    listed in that tier.
    """
    for bad in config.bad_ids:
        if has_type(record, bad, closure):
            return BAD

    expected = tuple(expected_types) if expected_types else ()
    if expected:
        for tid in config.resolve_names(expected):
            if has_type(record, tid, closure):
                return TARGET
        for name in expected:
            for tid in config.near_miss_ids.get(name, ()):
                if has_type(record, tid, closure):
                    return NEAR_MISS

    inferred = infer_domain_types(record, config.property_inference)
    for tier_ids, tier_names, tier in ((config.good_ids, config.good_names, GOOD),
                                       (config.ok_ids, config.ok_names, OK)):
        if any(name in tier_names for name in inferred):
            return tier
        for tid in tier_ids:
            if has_type(record, tid, closure):
                return tier
    return UNKNOWN


def context_similarity(context: str | None, record: ItemRecord) -> float:
    """Term-frequency cosine between the context and the record's label,
    description, and aliases."""
    if not context:
        return 0.0
    ctx_tokens = tokenize(context)
    if not ctx_tokens:
        return 0.0
    rec_tokens = tokenize(" ".join([record.label, record.description, *record.aliases]))
    return tf_cosine(ctx_tokens, rec_tokens)


@dataclass(frozen=True)
class ScoredCandidate:
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


def scored_sort_key(c: ScoredCandidate) -> tuple:
    return (-c.final_score, -c.record.sitelinks_count, c.record.id)


@dataclass(frozen=True)
class Diagnostics:
    retrieved: int = 0
    rejected_bad: int = 0
    below_threshold: int = 0


@dataclass(frozen=True)
class LinkResult:
    mention: str
    mode: str
    chosen: ScoredCandidate | None
    candidates: tuple[ScoredCandidate, ...]
    diagnostics: Diagnostics = field(default_factory=Diagnostics)


def _match_score(candidate: RawCandidate) -> float:
    if candidate.match_tier == PARTIAL:
        return 0.4 * candidate.token_overlap
    return _MATCH_SCORES[candidate.match_tier]


def choose(candidates: list[ScoredCandidate],
           min_link_score: float) -> ScoredCandidate | None:
    if not candidates:
        return None
    top = min(candidates, key=scored_sort_key)
    return top if top.final_score >= min_link_score else None


def link_from_candidates(mention: str,
                         raw_candidates: list[RawCandidate],
                         mode: str,
                         context: str | None,
                         expected_types: Iterable[str] | None,
                         closure: TypeClosure,
                         config: ValidatedConfig) -> LinkResult:
    """Score an already-retrieved candidate list and select the link.

    Split out from link() so the benchmark can time the ranking phase on its
    own.
    """
    expected = tuple(sorted(set(expected_types))) if expected_types else ()
    w = config.weights
    params = config.params

    survivors = []
    rejected_bad = 0
    for cand in raw_candidates:
        tier = classify_type_tier(cand.record, config, closure, expected or None)
        if tier == BAD:
            rejected_bad += 1
            continue
        survivors.append((cand, tier))

    s_max = max((c.record.sitelinks_count for c, _ in survivors), default=0)
    scored = []
    for cand, tier in survivors:
        record = cand.record
        type_score = TIER_SCORES[tier]
        match_score = _match_score(cand)
        prominence = record.sitelinks_count / s_max if s_max else 0.0
        context_sim = context_similarity(context, record)
        boosts = 0.0
        if mode == HEADER and record.id.is_property:
            boosts += params.header_property_boost
        base = (w.w_type * type_score + w.w_match * match_score
                + w.w_prom * prominence + w.w_ctx * context_sim)
        scored.append(ScoredCandidate(
            record=record, match_tier=cand.match_tier, type_tier=tier,
            inferred_type_names=infer_domain_types(record, config.property_inference),
            token_overlap=cand.token_overlap, type_score=type_score,
            match_score=match_score, prominence=prominence,
            context_sim=context_sim, boosts=boosts, weighted_base=base,
            final_score=base + boosts))

    scored.sort(key=scored_sort_key)
    chosen = choose(scored, params.min_link_score)
    diagnostics = Diagnostics(
        retrieved=len(raw_candidates),
        rejected_bad=rejected_bad,
        below_threshold=sum(1 for c in scored if c.final_score < params.min_link_score))
    return LinkResult(mention=normalize(mention), mode=mode, chosen=chosen,
                      candidates=tuple(scored), diagnostics=diagnostics)


def link(mention: str,
         mode: str,
         index: Index,
         closure: TypeClosure,
         config: ValidatedConfig,
         context: str | None = None,
         expected_types: Iterable[str] | None = None) -> LinkResult:
    """Full pipeline for one mention. Raises EmptyMention when the mention
    normalizes to nothing searchable; returns NIL when nothing scores above
    min_link_score."""
    raw = search(index, mention, config.params.k)
    return link_from_candidates(mention, raw, mode, context, expected_types,
                                closure, config)


# Every field of ScoredCandidate except the record, in declaration order.
_SCALAR_FIELDS = tuple(f.name for f in dataclasses.fields(ScoredCandidate)
                       if f.name != "record")


def _scalar_obj(c: ScoredCandidate) -> dict:
    obj = {}
    for name in _SCALAR_FIELDS:
        value = getattr(c, name)
        obj[name] = sorted(value) if isinstance(value, frozenset) else value
    return obj


def candidate_to_obj(c: ScoredCandidate) -> dict:
    return {"record": record_to_obj(c.record), **_scalar_obj(c)}


def result_to_obj(result: LinkResult) -> dict:
    return {
        "mention": result.mention,
        "mode": result.mode,
        "chosen": candidate_to_obj(result.chosen) if result.chosen else None,
        "candidates": [candidate_to_obj(c) for c in result.candidates],
        "diagnostics": dataclasses.asdict(result.diagnostics),
    }


def _entry_obj(result: LinkResult) -> dict:
    """A disk cache entry: result_to_obj() with each record reduced to its
    id, rehydrated from the index the key names, and the chosen candidate
    given by position."""
    return {
        "mention": result.mention,
        "mode": result.mode,
        "chosen": (None if result.chosen is None
                   else result.candidates.index(result.chosen)),
        "candidates": [{"id": c.record.id.raw, **_scalar_obj(c)}
                       for c in result.candidates],
        "diagnostics": dataclasses.asdict(result.diagnostics),
    }


def _entry_result(obj: dict, index: Index) -> LinkResult:
    """Raises KeyError when a candidate id is not in the index."""
    candidates = []
    for c in obj["candidates"]:
        fields = {name: c[name] for name in _SCALAR_FIELDS}
        fields["inferred_type_names"] = frozenset(fields["inferred_type_names"])
        record = index.record(c["id"])
        candidates.append(ScoredCandidate(record=record, **fields))
    chosen = obj["chosen"]
    return LinkResult(
        mention=obj["mention"], mode=obj["mode"],
        chosen=None if chosen is None else candidates[chosen],
        candidates=tuple(candidates),
        diagnostics=Diagnostics(**obj["diagnostics"]))


class LinkCache:
    """Memoizes link results in memory and optionally on disk.

    Keys cover everything the result depends on, so a hit is always safe to
    return verbatim. Any disk trouble, including an entry naming an id the
    index lacks, degrades to plain computation; the cache can slow things
    down when broken but never change an answer.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._memory: dict[str, LinkResult] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if self.cache_dir is not None:
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                log.warning("cache dir %s unusable (%s); caching in memory only",
                            self.cache_dir, exc)
                self.cache_dir = None

    @staticmethod
    def key(mention: str, mode: str, context: str | None,
            expected_types: Iterable[str] | None,
            config: ValidatedConfig, build_id: str,
            closure: TypeClosure) -> str:
        doc = {
            "mention": normalize(mention),
            "mode": mode,
            "context": normalize(context) if context else "",
            "expected_types": sorted(set(expected_types)) if expected_types else [],
            "config": config.content_hash,
            "index": build_id,
            "closure": closure.digest,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _disk_path(self, key: str) -> Path:
        return self.cache_dir / (key + ".json")

    def _disk_get(self, key: str, index: Index) -> LinkResult | None:
        if self.cache_dir is None:
            return None
        try:
            with open(self._disk_path(key), "r", encoding="utf-8") as fp:
                return _entry_result(json.load(fp), index)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            log.debug("cache read failed for %s: %s", key, exc)
            return None

    def _disk_put(self, key: str, result: LinkResult) -> None:
        if self.cache_dir is None:
            return
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fp:
                json.dump(_entry_obj(result), fp, ensure_ascii=False,
                          separators=(",", ":"))
            os.replace(tmp, self._disk_path(key))
        except OSError as exc:
            log.debug("cache write failed for %s: %s", key, exc)

    def get_or_compute(self, key: str, compute: Callable[[], LinkResult], *,
                       index: Index) -> LinkResult:
        """The cached result for key, else compute()'s. index must be the one
        the key names; disk entries rehydrate their records from it."""
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self.hits += 1
                return cached
        cached = self._disk_get(key, index)
        if cached is not None:
            with self._lock:
                self.hits += 1
                self._memory[key] = cached
            return cached
        with self._lock:
            self.misses += 1
        result = compute()
        with self._lock:
            self._memory[key] = result
        self._disk_put(key, result)
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
    key = LinkCache.key(mention, mode, context, expected_types, config,
                        index.build_id, closure)
    return cache.get_or_compute(
        key, lambda: link(mention, mode, index, closure, config, context,
                          expected_types), index=index)
