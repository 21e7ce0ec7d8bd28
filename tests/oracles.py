"""Independent reference implementations used to cross-check the package.

Everything here is written from the documented behavior, not from the package
internals: search is a linear scan over all records (o_search_all scans
once for a pool of mentions, o_search once per mention), closure is matrix
reachability, and the end-to-end link oracle rebuilds the scoring formula
step by step. Only data (the stopword list) and plain value types (EntityId,
ItemRecord, config objects) are shared with the package. Four references
are earlier versions of package functions kept as written: o_read_closure;
o_link_from_candidates, which classifies each hit on its own;
o_detect_literal, which tries six patterns in turn; and o_link_table, the
table pass that counts lanes with Counter and re-sorts every result in
pass 2.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import re
import unicodedata
from collections import Counter
from collections.abc import Callable, Iterable
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np

from tablink import EmptyMention, EntityId, ParseError
from tablink.linker import (
    BAD,
    CELL,
    HEADER,
    PARTIAL,
    TIER_SCORES as LINKER_TIER_SCORES,
    Diagnostics,
    LinkResult,
    ScoredCandidate,
    cached_link,
    classify_type_tier,
    context_similarity,
    infer_domain_types,
    scored_sort_key,
)
from tablink.tables import (
    CLINICAL_TRIAL_ID,
    DATE,
    EMPTY,
    HORIZONTAL,
    NUMBER,
    PERCENT,
    SEQUENCE,
    VERTICAL,
    CellAnnotation,
    TableAnnotation,
    column_type_vote,
)
from tablink.text import STOPWORDS, normalize, tokenize

TIER_SCORES = {"TARGET": 1.0, "NEAR_MISS": 0.8, "GOOD": 0.6, "OK": 0.4,
               "UNKNOWN": 0.2}
MATCH_RANK = {"exact_label": 2, "exact_alias": 1, "partial": 0}


def o_normalize(text: str) -> str:
    return " ".join(unicodedata.normalize("NFC", text).lower().split())


def o_tokens(text: str) -> list[str]:
    return [t for t in o_normalize(text).split(" ")
            if t and t not in STOPWORDS]


def o_id_key(eid: EntityId) -> tuple[int, int]:
    return (0 if eid.kind == "item" else 1, eid.num)


class OracleKB:
    """Precomputed per-record text views for the linear-scan comparators."""

    def __init__(self, records):
        self.records = list(records)
        self.labels = []
        self.alias_sets = []
        self.token_sets = []
        for r in self.records:
            self.labels.append(o_normalize(r.label))
            self.alias_sets.append(frozenset(o_normalize(a) for a in r.aliases))
            toks = set(o_tokens(r.label))
            for a in r.aliases:
                toks.update(o_tokens(a))
            self.token_sets.append(frozenset(toks))


def _o_query(mention: str):
    """(normalized mention, its distinct tokens in order), or None when the
    mention is empty after normalization."""
    norm = o_normalize(mention)
    toks: list[str] = []
    for t in o_tokens(mention):
        if t not in toks:
            toks.append(t)
    return (norm, toks) if norm and toks else None


def _o_rank(kb: OracleKB, norm: str, toks: list[str], hits: Iterable[int],
            k: int):
    """The ranked (record, tier, overlap) triples of the records numbered
    hits, ascending, that the query matches, cut at k."""
    needed = math.ceil(len(toks) / 2)
    tokset = frozenset(toks)
    out = []
    records = kb.records
    for i in hits:
        if norm == kb.labels[i]:
            out.append((records[i], "exact_label", 1.0))
        elif norm in kb.alias_sets[i]:
            out.append((records[i], "exact_alias", 1.0))
        else:
            covered = len(tokset & kb.token_sets[i])
            if covered >= needed:
                out.append((records[i], "partial", covered / len(toks)))
    out.sort(key=lambda h: (-MATCH_RANK[h[1]], -h[2], -h[0].sitelinks_count,
                            o_id_key(h[0].id)))
    return out[:k]


def o_search(kb: OracleKB, mention: str, k: int):
    """Linear scan over every record; returns ranked (record, tier, overlap)
    triples, or None when the mention is empty after normalization."""
    query = _o_query(mention)
    if query is None:
        return None
    norm, toks = query
    tokset = frozenset(toks)
    hits = [i for i, (label, aliases, tset)
            in enumerate(zip(kb.labels, kb.alias_sets, kb.token_sets))
            if norm == label or norm in aliases or not tokset.isdisjoint(tset)]
    return _o_rank(kb, norm, toks, hits, k)


def o_search_all(kb: OracleKB, mentions: Iterable[str], k: int) -> list:
    """[o_search(kb, m, k) for m in mentions], from one scan over every
    record: each record's tokens look up the mentions they hit in a map
    from the mentions' tokens. A mention equal to a record's label or alias
    has that text's tokens, at least one, so the tokens find every hit."""
    queries = list(map(_o_query, mentions))
    by_token: dict[str, list[int]] = {}
    for n, query in enumerate(queries):
        for t in query[1] if query else ():
            by_token.setdefault(t, []).append(n)
    hits: list[list[int]] = [[] for _ in queries]
    for i, tset in enumerate(kb.token_sets):
        found = set()
        for t in tset:
            found.update(by_token.get(t, ()))
        for n in found:
            hits[n].append(i)
    return [None if query is None else _o_rank(kb, *query, rows, k)
            for query, rows in zip(queries, hits)]


def warshall_ancestors(n: int, edge_pairs) -> list[set[int]]:
    """Transitive closure by the Floyd-Warshall boolean recurrence, diagonal
    (self-reachability) removed."""
    m = np.zeros((n, n), dtype=bool)
    for a, b in edge_pairs:
        m[a, b] = True
    for mid in range(n):
        m |= np.outer(m[:, mid], m[mid, :])
    np.fill_diagonal(m, False)
    return [set(np.nonzero(m[i])[0]) for i in range(n)]


def squaring_ancestors(nodes, edge_pairs) -> dict:
    """Transitive closure by repeated boolean matrix squaring; same contract
    as warshall_ancestors but scales to a few thousand nodes."""
    order = sorted(nodes, key=o_id_key)
    pos = {node: i for i, node in enumerate(order)}
    n = len(order)
    m = np.zeros((n, n), dtype=np.float32)
    for a, b in edge_pairs:
        m[pos[a], pos[b]] = 1.0
    reach = m.copy()
    while True:
        nxt = np.minimum(reach + reach @ reach, 1.0)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    np.fill_diagonal(reach, 0.0)
    return {node: frozenset(order[j] for j in np.nonzero(reach[i])[0])
            for node, i in pos.items()}


def o_read_closure(path) -> tuple[dict, str]:
    """The closure file at path as (ancestors by node, sha256 of its bytes),
    read line by line with every token parsed through a cached
    EntityId.parse, each check as read_closure documents it. A refusal is
    the ParseError read_closure raises, with the same message."""
    data = Path(path).read_bytes()
    ancestors: dict = {}
    parse = functools.cache(EntityId.parse)
    for lineno, raw in enumerate(io.BytesIO(data), 1):
        try:
            line = raw.rstrip(b"\r\n").decode("utf-8")
            if not line.strip():
                continue
            node, *rest = map(parse, line.split())
            if node in ancestors:
                raise ValueError(f"{node} already has a line")
            if node in rest:
                raise ValueError(f"{node} is listed as its own ancestor")
            if any(a.kind != node.kind for a in rest):
                raise ValueError(f"{node} has an ancestor of the other kind")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad line "
                             f"({type(exc).__name__}: {exc})") from exc
        ancestors[node] = frozenset(rest)
    for node, own in ancestors.items():
        closed = own | {node}
        unclosed = [a for a in own
                    if not ancestors.get(a, frozenset()) <= closed]
        if unclosed:
            raise ParseError(f"{path}: closure is not transitive: {node} lists "
                             f"{min(unclosed)} but not all of its ancestors")
    return ancestors, hashlib.sha256(data).hexdigest()


def o_has_type(record, type_id: EntityId, ancestors: dict) -> bool:
    return any(d == type_id or type_id in ancestors.get(d, frozenset())
               for d in record.direct_types)


def o_ids(config, names: Iterable[str]) -> set[EntityId]:
    """The ids the type names stand for, read from the config's dictionary."""
    return {i for name in names for i in config.type_dictionary.get(name, ())}


def o_tier(record, config, ancestors: dict, expected) -> str:
    if any(o_has_type(record, b, ancestors)
           for b in o_ids(config, config.tiers["bad"])):
        return "BAD"
    if expected:
        if any(o_has_type(record, t, ancestors)
               for t in config.resolve_names(expected)):
            return "TARGET"
        for name in expected:
            if any(o_has_type(record, t, ancestors)
                   for t in o_ids(config, config.near_miss_map.get(name, ()))):
                return "NEAR_MISS"
    inferred = {r.then_type_name for r in config.property_inference
                if r.if_property in record.flagged_props}
    for tier in ("good", "ok"):
        if (inferred & set(config.tiers[tier])
                or any(o_has_type(record, t, ancestors)
                       for t in o_ids(config, config.tiers[tier]))):
            return tier.upper()
    return "UNKNOWN"


def o_context_sim(context, record) -> float:
    if not context:
        return 0.0
    a = Counter(o_tokens(context))
    if not a:
        return 0.0
    b = Counter(o_tokens(" ".join([record.label, record.description,
                                   *record.aliases])))
    if not b:
        return 0.0
    dot = sum(n * b[t] for t, n in a.items())
    if dot == 0:
        return 0.0
    na = sum(n * n for n in a.values())
    nb = sum(n * n for n in b.values())
    return min(1.0, dot / math.sqrt(na * nb))


def o_link(raw, ancestors: dict, config, mode: str, context=None,
           expected=None):
    """Brute-force pipeline: tier classification, scoring, argmax with
    documented tie-breaks, NIL threshold, over raw, the mention's linear-scan
    retrieval: o_search(kb, mention, config.params.k), or its entry in
    o_search_all's answer.

    Returns the chosen record id (or None for NIL), or the string "EMPTY"
    when the mention has no searchable content.
    """
    if raw is None:
        return "EMPTY"
    expected = tuple(sorted(set(expected))) if expected else ()
    w = config.weights

    survivors = []
    for record, tier_name, overlap in raw:
        tier = o_tier(record, config, ancestors, expected)
        if tier == "BAD":
            continue
        survivors.append((record, tier_name, overlap, tier))
    s_max = max((r.sitelinks_count for r, _, _, _ in survivors), default=0)

    scored = []
    for record, match_tier, overlap, tier in survivors:
        type_score = TIER_SCORES[tier]
        if match_tier == "exact_label":
            match_score = 1.0
        elif match_tier == "exact_alias":
            match_score = 0.8
        else:
            match_score = 0.4 * overlap
        prominence = record.sitelinks_count / s_max if s_max else 0.0
        context_sim = o_context_sim(context, record)
        boosts = 0.0
        if mode == "header" and record.id.kind == "property":
            boosts += config.params.header_property_boost
        final = (w.w_type * type_score + w.w_match * match_score
                 + w.w_prom * prominence + w.w_ctx * context_sim) + boosts
        scored.append((record, final))

    if not scored:
        return None
    best = min(scored, key=lambda s: (-s[1], -s[0].sitelinks_count,
                                      o_id_key(s[0].id)))
    if best[1] >= config.params.min_link_score:
        return best[0].id
    return None


def o_link_from_candidates(mention: str, raw_candidates, mode: str, context,
                           expected_types, closure, config) -> LinkResult:
    """link_from_candidates as it was before the tier memo: every hit is
    classified and inferred on its own, every candidate's context similarity
    is computed, the choice is a min() pass over the scored list and the
    below-threshold count a pass of its own. Uses the package's
    per-candidate functions, which the memo left unchanged."""
    expected = tuple(sorted(set(expected_types))) if expected_types else ()
    w = config.weights
    params = config.params

    rules = config.property_inference
    names = [infer_domain_types(c.record, rules) for c in raw_candidates]
    tiers = [classify_type_tier(c.record, config, closure, expected, inferred=n)
             for c, n in zip(raw_candidates, names)]
    survivors = [(c, t, n) for c, t, n in zip(raw_candidates, tiers, names)
                 if t != BAD]

    s_max = max((c.record.sitelinks_count for c, _, _ in survivors), default=0)
    scored = []
    for cand, tier, inferred in survivors:
        record = cand.record
        type_score = LINKER_TIER_SCORES[tier]
        match_score = (0.4 * cand.token_overlap if cand.match_tier == PARTIAL
                       else {"exact_label": 1.0, "exact_alias": 0.8}[cand.match_tier])
        prominence = record.sitelinks_count / s_max if s_max else 0.0
        context_sim = context_similarity(context, record)
        boosts = 0.0
        if mode == HEADER and record.id.is_property:
            boosts += params.header_property_boost
        base = (w.w_type * type_score + w.w_match * match_score
                + w.w_prom * prominence + w.w_ctx * context_sim)
        scored.append(ScoredCandidate(
            record, cand.match_tier, tier, inferred, cand.token_overlap,
            type_score, match_score, prominence, context_sim, boosts, base,
            base + boosts))

    scored.sort(key=scored_sort_key)
    top = min(scored, key=scored_sort_key) if scored else None
    chosen = top if top is not None and top.final_score >= params.min_link_score \
        else None
    diagnostics = Diagnostics(
        retrieved=len(raw_candidates),
        rejected_bad=len(raw_candidates) - len(survivors),
        below_threshold=sum(1 for c in scored
                            if c.final_score < params.min_link_score))
    return LinkResult(mention=normalize(mention), mode=mode, chosen=chosen,
                      candidates=tuple(scored), diagnostics=diagnostics)


# --------------------------------------------------------------------------
# The table pass before it was cut for speed, kept as written: literal
# detection tries six patterns in turn, the orientation vote counts each
# lane with Counter, and pass 2 re-sorts and copies every result it boosts,
# hit or not.

_NUM = r"[+-]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|[+-]?\.\d+"
_CTID_RE = re.compile(r"^NCT\d{8}$")
_SEQ_RE = re.compile(r"^[ACGTUN]{8,}$", re.IGNORECASE)
_PERCENT_RE = re.compile(rf"^(?:{_NUM})\s*%$")
_NUMBER_RE = re.compile(rf"^(?:{_NUM})$")
_RANGE_RE = re.compile(rf"^(?:{_NUM})\s*[-–]\s*(?:{_NUM})$")
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$|^\d{4}$|^\d{2}-\d{4}$")


def o_detect_literal(cell: str) -> str | None:
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


def _o_orientation(table) -> tuple[str, dict[str, str | None]]:
    """classify_orientation(table), and detect_literal() of each distinct
    cell string, the header's too."""
    kinds = {cell: o_detect_literal(cell)
             for cell in set(chain(table.header_row, *table.rows))}

    def mean_modal_fraction(lanes: Iterable[tuple[str, ...]]) -> float:
        fractions = [max(Counter(kinds[cell] or "entity" for cell in lane).values())
                     / len(lane) for lane in lanes]
        return sum(fractions) / len(fractions)

    if not table.rows:
        return HORIZONTAL, kinds
    col_mean = mean_modal_fraction(zip(*table.rows))
    row_mean = mean_modal_fraction(table.rows)
    return HORIZONTAL if col_mean >= row_mean else VERTICAL, kinds


def _o_boost(result: LinkResult, hit: Callable[[ScoredCandidate], bool],
             boost: float, min_link_score: float) -> LinkResult:
    """result with boost added to every candidate hit accepts, re-ranked and
    with the NIL threshold re-applied to the new head."""
    boosted = sorted(
        (c._replace(boosts=c.boosts + boost,
                    final_score=c.weighted_base + (c.boosts + boost))
         if hit(c) else c for c in result.candidates),
        key=scored_sort_key)
    chosen = (boosted[0] if boosted and boosted[0].final_score >= min_link_score
              else None)
    return result._replace(chosen=chosen, candidates=tuple(boosted))


def o_link_table(table, index, closure, config, cache=None) -> TableAnnotation:
    """Two-pass linking of one table, as link_table did it; calls the
    package's linker through cached_link."""
    params = config.params
    orientation, kinds = _o_orientation(table)
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
            literal = kinds[mention]
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
            results[i, j] = _o_boost(
                results[i, j],
                lambda c: dominant in closure.types_of(c.record.direct_types),
                params.column_type_boost, params.min_link_score)
        record = index.get(dominant)
        tokens = frozenset(tokenize(record.label)) if record else frozenset()
        if (0, j) in results and tokens:
            results[0, j] = _o_boost(
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
