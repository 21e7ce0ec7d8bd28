import contextlib
import json
import pickle
import random
from collections import Counter

import pytest

import tablink.index
import tablink.linker
import tablink.text
from tablink import (
    EmptyMention,
    EntityId,
    Index,
    ItemRecord,
    TypeEdge,
    Weights,
    build_closure,
    classify_type_tier,
    context_similarity,
    infer_domain_types,
    link,
    link_from_candidates,
    load_config,
    parse_config_obj,
)
from tablink.index import RawCandidate, search
from tablink.linker import (
    Diagnostics,
    LinkCache,
    LinkResult,
    ScoredCandidate,
    boost,
    cached_link,
    scored_sort_key,
)

from fixture_kb import near_miss_fixture, prevalence_fixture, virus_fixture
from oracles import o_link_from_candidates

q = EntityId.parse


def rec(eid, label, aliases=(), description="", types=(), sitelinks=0,
        flagged=()):
    return ItemRecord(id=q(eid), label=label, aliases=tuple(aliases),
                      description=description,
                      direct_types=tuple(q(t) for t in types),
                      sitelinks_count=sitelinks,
                      flagged_props=frozenset(q(p) for p in flagged))


def cfg(obj):
    return parse_config_obj(obj)


TIER_CFG = cfg({
    "type_dictionary": {
        "target-type": ["Q100"],
        "miss-type": ["Q110"],
        "good-type": ["Q120"],
        "ok-type": ["Q130"],
        "bad-type": ["Q140"],
        "good-marker": ["Q150"],
        "ok-marker": ["Q160"],
    },
    "tiers": {
        "good": ["good-type", "good-marker"],
        "ok": ["ok-type", "ok-marker"],
        "bad": ["bad-type"],
    },
    "near_miss_map": {"target-type": ["miss-type"]},
    "property_inference": [
        {"if_property": "P900", "then_type_name": "good-marker"},
        {"if_property": "P901", "then_type_name": "ok-marker"},
    ],
})

EMPTY_CLOSURE = build_closure([])


class TestClassifyTypeTier:
    def test_ladder_without_expected(self):
        cases = [
            (rec("Q1", "x", types=["Q140"]), "BAD"),
            (rec("Q1", "x", types=["Q120"]), "GOOD"),
            (rec("Q1", "x", types=["Q130"]), "OK"),
            (rec("Q1", "x", types=["Q100"]), "UNKNOWN"),  # target needs expected
            (rec("Q1", "x", types=["Q110"]), "UNKNOWN"),
            (rec("Q1", "x"), "UNKNOWN"),
        ]
        for record, want in cases:
            assert classify_type_tier(record, TIER_CFG, EMPTY_CLOSURE) == want

    def test_expected_enables_target_and_near_miss(self):
        target = rec("Q1", "x", types=["Q100"])
        miss = rec("Q2", "x", types=["Q110"])
        expected = ["target-type"]
        assert classify_type_tier(target, TIER_CFG, EMPTY_CLOSURE, expected) == "TARGET"
        assert classify_type_tier(miss, TIER_CFG, EMPTY_CLOSURE, expected) == "NEAR_MISS"

    def test_bad_is_absolute(self):
        both = rec("Q1", "x", types=["Q100", "Q140"])
        assert classify_type_tier(both, TIER_CFG, EMPTY_CLOSURE,
                                  ["target-type"]) == "BAD"
        flagged_bad = rec("Q2", "x", types=["Q140"], flagged=["P900"])
        assert classify_type_tier(flagged_bad, TIER_CFG, EMPTY_CLOSURE) == "BAD"

    def test_inherited_types_count(self):
        closure = build_closure([TypeEdge(q("Q500"), q("Q120"), "subclass_of")])
        record = rec("Q1", "x", types=["Q500"])
        assert classify_type_tier(record, TIER_CFG, closure) == "GOOD"

    def test_inferred_names_reach_good_and_ok(self):
        good = rec("Q1", "x", flagged=["P900"])
        ok = rec("Q2", "x", flagged=["P901"])
        neither = rec("Q3", "x", flagged=["P999"])
        assert classify_type_tier(good, TIER_CFG, EMPTY_CLOSURE) == "GOOD"
        assert classify_type_tier(ok, TIER_CFG, EMPTY_CLOSURE) == "OK"
        assert classify_type_tier(neither, TIER_CFG, EMPTY_CLOSURE) == "UNKNOWN"

    def test_target_beats_good_when_expected(self):
        record = rec("Q1", "x", types=["Q100", "Q120"])
        assert classify_type_tier(record, TIER_CFG, EMPTY_CLOSURE,
                                  ["target-type"]) == "TARGET"
        assert classify_type_tier(record, TIER_CFG, EMPTY_CLOSURE) == "GOOD"

    def test_unknown_expected_name_resolves_to_nothing(self):
        record = rec("Q1", "x", types=["Q100"])
        assert classify_type_tier(record, TIER_CFG, EMPTY_CLOSURE,
                                  ["no-such-name"]) == "UNKNOWN"


def test_infer_domain_types():
    rules = TIER_CFG.property_inference
    assert infer_domain_types(rec("Q1", "x", flagged=["P900"]), rules) == {"good-marker"}
    assert infer_domain_types(rec("Q1", "x", flagged=["P900", "P901"]), rules) \
        == {"good-marker", "ok-marker"}
    assert infer_domain_types(rec("Q1", "x"), rules) == frozenset()


def test_context_similarity_values():
    record = rec("Q1", "alpha", description="greek letter")
    assert context_similarity(None, record) == 0.0
    assert context_similarity("", record) == 0.0
    assert context_similarity("of the", record) == 0.0
    assert context_similarity("greek letter", record) == pytest.approx(2 / 6 ** 0.5)
    assert context_similarity("zulu words only", record) == 0.0


def test_memoized_context_scores_equal_a_fresh_cosine():
    """Header links through one closure keep each record's term counts;
    every context_sim must still equal tf_cosine of freshly tokenized text,
    exactly."""
    rng = random.Random(36)
    words = ["alpha", "beta", "gamma", "delta", "virus", "strain", "Café",
             "cafe\u0301", "CAFÉ", "Ærø", "ærø"]
    stop = ["the", "of", "and", "in"]

    def text(n):
        return " ".join(rng.choice(words + stop) for _ in range(n))

    records = [
        # Repeated tokens in the label, the description and the aliases.
        rec("Q1", "alpha alpha", ["beta alpha", "ALPHA  beta"],
            "alpha of the alpha"),
        # One label, two descriptions: each record keeps its own counts.
        rec("Q2", "gamma", description="virus strain"),
        rec("Q3", "gamma", description="delta delta delta"),
        # Case and NFC variants of one word.
        rec("Q4", "Café", ["cafe\u0301 delta"], "CAFÉ strain"),
        *(rec(f"Q{10 + i}", text(rng.randint(1, 3)), [text(2)], text(4))
          for i in range(12)),
    ]
    index = Index(records)
    closure = build_closure([])
    contexts = ["", "the of and", "in the", "alpha alpha alpha",
                "CAFE\u0301 café Café", "gamma virus", "ÆRØ ærø"]
    contexts += [text(rng.randint(1, 8)) for _ in range(40)]
    mentions = sorted({r.label for r in records})
    checked = set()
    for context in contexts:
        for mention in mentions:
            result = link(mention, "header", index, closure, SCORE_CFG,
                          context=context)
            for c in result.candidates:
                r = c.record
                assert c.context_sim == tablink.text.tf_cosine(
                    tablink.text.tokenize(context), tablink.text.tokenize(
                        r.label + " " + r.description + " "
                        + " ".join(r.aliases))), (context, r.id)
                checked.add(r.id)
    assert {q("Q1"), q("Q2"), q("Q3"), q("Q4")} <= checked
    # The counts were kept, once per record, by the closure's linker tables,
    # keyed by the record's identity, each entry holding its record.
    (terms,) = [tables[2] for tables in closure.memo.values()]
    records = [index.get(eid) for eid in checked]
    assert set(terms) == {id(r) for r in records}
    assert all(terms[id(r)][1] is r for r in records)


SCORE_CFG = cfg({
    "type_dictionary": {"good-type": ["Q100"]},
    "tiers": {"good": ["good-type"]},
})


def test_score_composition_exact():
    index = Index([
        rec("Q1", "alpha", types=["Q100"], sitelinks=10),
        rec("Q2", "alpha", sitelinks=5, description="greek letter"),
    ])
    result = link("alpha", "cell", index, EMPTY_CLOSURE, SCORE_CFG)
    by_id = {c.record.id.raw: c for c in result.candidates}
    c1, c2 = by_id["Q1"], by_id["Q2"]
    assert c1.type_score == 0.6 and c1.match_score == 1.0
    assert c1.prominence == 1.0 and c1.context_sim == 0.0
    assert c1.final_score == pytest.approx(0.45 * 0.6 + 0.25 * 1.0 + 0.15 * 1.0)
    assert c2.prominence == pytest.approx(0.5)
    assert c2.final_score == pytest.approx(0.45 * 0.2 + 0.25 * 1.0 + 0.15 * 0.5)
    assert result.chosen is c1
    assert list(result.candidates) == sorted(
        result.candidates, key=lambda c: (-c.final_score,
                                          -c.record.sitelinks_count,
                                          c.record.id))


def test_context_term_feeds_final_score():
    index = Index([
        rec("Q2", "alpha", sitelinks=5, description="greek letter"),
    ])
    plain = link("alpha", "cell", index, EMPTY_CLOSURE, SCORE_CFG)
    with_ctx = link("alpha", "cell", index, EMPTY_CLOSURE, SCORE_CFG,
                    context="greek letter")
    sim = with_ctx.candidates[0].context_sim
    assert sim == pytest.approx(2 / 6 ** 0.5)
    assert with_ctx.candidates[0].final_score == pytest.approx(
        plain.candidates[0].final_score + 0.15 * sim)


def test_prominence_uses_surviving_candidates_only():
    # The bad-typed record has the highest sitelinks count; it must not set
    # the prominence scale after rejection.
    config = cfg({
        "type_dictionary": {"bad-type": ["Q140"]},
        "tiers": {"bad": ["bad-type"]},
    })
    index = Index([
        rec("Q1", "alpha", types=["Q140"], sitelinks=200),
        rec("Q2", "alpha", sitelinks=50),
        rec("Q3", "alpha", sitelinks=25),
    ])
    result = link("alpha", "cell", index, EMPTY_CLOSURE, config)
    by_id = {c.record.id.raw: c for c in result.candidates}
    assert "Q1" not in by_id
    assert by_id["Q2"].prominence == 1.0
    assert by_id["Q3"].prominence == pytest.approx(0.5)
    assert result.diagnostics.rejected_bad == 1
    assert result.diagnostics.retrieved == 3


def test_zero_sitelinks_pool_scores_zero_prominence():
    index = Index([rec("Q1", "alpha"), rec("Q2", "alpha")])
    result = link("alpha", "cell", index, EMPTY_CLOSURE, SCORE_CFG)
    assert all(c.prominence == 0.0 for c in result.candidates)


def test_header_property_boost_mode_and_kind_gated():
    index = Index([
        rec("Q1", "duration"),
        rec("P2047", "duration"),
    ])
    as_cell = link("duration", "cell", index, EMPTY_CLOSURE, SCORE_CFG)
    as_header = link("duration", "header", index, EMPTY_CLOSURE, SCORE_CFG)
    cell_by = {c.record.id.raw: c for c in as_cell.candidates}
    head_by = {c.record.id.raw: c for c in as_header.candidates}
    assert cell_by["P2047"].boosts == 0.0
    assert head_by["P2047"].boosts == pytest.approx(0.10)
    assert head_by["Q1"].boosts == 0.0
    assert as_cell.chosen.record.id.raw == "Q1"      # item wins the id tie-break
    assert as_header.chosen.record.id.raw == "P2047"  # boost flips it


@pytest.mark.parametrize("mode", ["foo", "Cell", "", None])
def test_an_unknown_mode_is_refused(mode):
    index = Index([rec("Q1", "duration")])
    closure = build_closure([])
    with pytest.raises(ValueError, match="mode must be 'cell' or 'header'"):
        link("duration", mode, index, closure, SCORE_CFG)
    with pytest.raises(ValueError, match="mode must be 'cell' or 'header'"):
        link_from_candidates("duration", search(index, "duration", 5), mode,
                             None, None, closure, SCORE_CFG)
    assert closure.memo == {}


def test_nil_below_threshold():
    index = Index([rec("Q1", "gamma delta")])
    result = link("gamma epsilon", "cell", index, EMPTY_CLOSURE, SCORE_CFG)
    # Partial match at overlap 1/2: 0.45*0.2 + 0.25*(0.4*0.5) = 0.14 < 0.25.
    assert result.chosen is None
    assert len(result.candidates) == 1
    assert result.candidates[0].final_score == pytest.approx(0.14)
    assert result.diagnostics.below_threshold == 1


def test_empty_mention_raises(small_kb):
    with pytest.raises(EmptyMention):
        link("   ", "cell", small_kb.index, small_kb.closure, small_kb.config)


def test_mention_is_stored_normalized():
    index = Index([rec("Q1", "alpha")])
    result = link("  ALPHA  ", "cell", index, EMPTY_CLOSURE, SCORE_CFG)
    assert result.mention == "alpha"
    assert result.chosen.record.id.raw == "Q1"


def _hand_candidate(eid, final, sitelinks):
    record = rec(eid, "x", sitelinks=sitelinks)
    return ScoredCandidate(
        record=record, match_tier="exact_label", type_tier="UNKNOWN",
        inferred_type_names=frozenset(), token_overlap=1.0, type_score=0.2,
        match_score=1.0, prominence=0.0, context_sim=0.0, boosts=0.0,
        weighted_base=final, final_score=final)


def _head(candidates, min_link_score):
    """The link the linker picks from a candidate list: the head in
    scored_sort_key order, or None when it scores below min_link_score."""
    ranked = sorted(candidates, key=scored_sort_key)
    return ranked[0] if ranked and ranked[0].final_score >= min_link_score else None


def test_sort_key_tie_breaks():
    by_score = [_hand_candidate("Q1", 0.5, 0), _hand_candidate("Q2", 0.6, 0)]
    assert _head(by_score, 0.25).record.id.raw == "Q2"
    by_sitelinks = [_hand_candidate("Q1", 0.5, 3), _hand_candidate("Q2", 0.5, 9)]
    assert _head(by_sitelinks, 0.25).record.id.raw == "Q2"
    by_id = [_hand_candidate("Q8", 0.5, 3), _hand_candidate("Q2", 0.5, 3)]
    assert _head(by_id, 0.25).record.id.raw == "Q2"
    item_before_property = [_hand_candidate("P1", 0.5, 3),
                            _hand_candidate("Q9", 0.5, 3)]
    assert _head(item_before_property, 0.25).record.id.raw == "Q9"
    assert _head([], 0.25) is None
    assert _head([_hand_candidate("Q1", 0.2, 0)], 0.25) is None


def _pass1_result(*candidates, min_link_score=0.25):
    """A LinkResult as link_from_candidates() returns it for candidates,
    with 7 retrieved and 2 rejected as BAD."""
    ranked = tuple(sorted(candidates, key=scored_sort_key))
    below = sum(c.final_score < min_link_score for c in ranked)
    return LinkResult("x", "header", _head(ranked, min_link_score), ranked,
                      Diagnostics(7, 2, below))


def _ids(result):
    return [c.record.id.raw for c in result.candidates]


def test_boost_that_hits_no_candidate_returns_the_result_itself():
    result = _pass1_result(_hand_candidate("Q1", 0.5, 0),
                           _hand_candidate("Q2", 0.1, 0))
    assert boost(result, lambda c: False, 0.2, 0.25) is result


def test_boost_counts_below_threshold_again():
    result = _pass1_result(_hand_candidate("Q1", 0.5, 0),
                           _hand_candidate("Q2", 0.125, 0),
                           _hand_candidate("Q3", 0.0625, 0))
    assert result.diagnostics == Diagnostics(7, 2, 2)
    boosted = boost(result, lambda c: c.record.id.raw == "Q2", 0.25, 0.25)
    assert boosted.diagnostics == Diagnostics(7, 2, 1)
    assert (boosted.mention, boosted.mode) == ("x", "header")
    assert boosted.chosen.record.id.raw == "Q1"
    q2 = boosted.candidates[1]
    assert (q2.record.id.raw, q2.boosts, q2.weighted_base, q2.final_score) \
        == ("Q2", 0.25, 0.125, 0.375)


def test_boost_lifting_the_head_over_min_link_score_chooses_it():
    result = _pass1_result(_hand_candidate("Q1", 0.2, 0),
                           _hand_candidate("Q2", 0.125, 0))
    assert result.chosen is None
    boosted = boost(result, lambda c: c.record.id.raw == "Q2", 0.25, 0.25)
    assert _ids(boosted) == ["Q2", "Q1"]
    assert boosted.chosen is boosted.candidates[0]
    assert boosted.chosen.final_score == 0.375
    assert boosted.diagnostics == Diagnostics(7, 2, 1)
    # Boosted below min_link_score, the head stays NIL.
    assert boost(result, lambda c: True, 0.03125, 0.25).chosen is None


def test_boost_keeps_exact_ties_in_sort_key_order():
    # Q9 and P1 are boosted from 0.25 to exactly the 0.5 of the others.
    result = _pass1_result(_hand_candidate("Q8", 0.5, 3),
                           _hand_candidate("Q2", 0.5, 3),
                           _hand_candidate("Q5", 0.5, 9),
                           _hand_candidate("Q9", 0.25, 3),
                           _hand_candidate("P1", 0.25, 3))
    boosted = boost(result, lambda c: c.final_score == 0.25, 0.25, 0.25)
    assert {c.final_score for c in boosted.candidates} == {0.5}
    assert _ids(boosted) == ["Q5", "Q2", "Q8", "Q9", "P1"]
    assert list(boosted.candidates) == sorted(boosted.candidates,
                                              key=scored_sort_key)


@pytest.mark.parametrize("weights", [None, Weights(0.6, 0.25, 0.0, 0.15)])
def test_boost_ranks_as_link_from_candidates_does(small_kb, weights):
    # A zero boost to every candidate rebuilds and ranks again each result
    # link() gives, which must then come back equal, in the same order. With
    # no prominence weight, equal scores fall to the sitelinks tie-break.
    index, closure, config = small_kb.index, small_kb.closure, small_kb.config
    if weights:
        config = config._replace(weights=weights)
    results = []
    for mention in small_kb.mentions:
        for mode in ("cell", "header"):
            try:
                results.append(link(mention, mode, index, closure, config))
            except EmptyMention:
                pass
    assert sum(len(r.candidates) > 1 for r in results) >= 50
    for result in results:
        boosted = boost(result, lambda c: True, 0.0, config.params.min_link_score)
        assert boosted == result
        assert _ids(boosted) == _ids(result)
        assert boosted.chosen == result.chosen


def test_virus_disambiguation():
    records, closure, config = virus_fixture()
    index = Index(records)
    result = link("virus", "cell", index, closure, config,
                  context="infectious disease outbreak")
    assert result.chosen.record.id.raw == "Q808"
    assert result.chosen.type_tier == "UNKNOWN"
    assert result.diagnostics.rejected_bad >= 10
    assert all(c.record.id.raw != "Q808" or c is result.chosen
               for c in result.candidates)


def test_each_link_normalizes_its_mention_once(monkeypatch):
    # normalize is not idempotent on "J" + combining caron: its lower-cased
    # form composes to one code point under a second NFC. So the search, the
    # result and the cache key must all use the one normalize(mention).
    index = Index([rec("Q1", "J\u030c"), rec("Q2", "\u01f0")])
    calls = []
    real = tablink.text.normalize
    counting = lambda text: calls.append(text) or real(text)  # noqa: E731
    monkeypatch.setattr(tablink.linker, "normalize", counting)
    monkeypatch.setattr(tablink.index, "normalize", counting)
    cache = LinkCache()
    for run in (lambda: link("J\u030c", "cell", index, EMPTY_CLOSURE,
                             SCORE_CFG),
                lambda: cached_link("J\u030c", "cell", index, EMPTY_CLOSURE,
                                    SCORE_CFG, cache=cache)):
        result = run()
        assert calls == ["J\u030c"]
        calls.clear()
        assert result.mention == "j\u030c"
        assert [c.record.id.raw for c in result.candidates] == ["Q1"]
    assert cache.misses == 1


def test_link_classifies_and_infers_once_per_type_fields(monkeypatch):
    records, closure, config = virus_fixture()
    index = Index(records)
    hits = search(index, "virus", config.params.k)
    want = link("virus", "cell", index, closure, config,
                context="infectious disease outbreak")
    tiered, inferred = [], []
    classify = tablink.linker.classify_type_tier
    infer = tablink.linker.infer_domain_types
    monkeypatch.setattr(tablink.linker, "classify_type_tier",
                        lambda record, *a, **kw: tiered.append(record.id)
                        or classify(record, *a, **kw))
    monkeypatch.setattr(tablink.linker, "infer_domain_types",
                        lambda record, rules: inferred.append(record.id)
                        or infer(record, rules))
    fresh = virus_fixture()[1]
    got = link("virus", "cell", index, fresh, config,
               context="infectious disease outbreak")
    assert got == want
    assert got.diagnostics.rejected_bad > 0 and len(got.candidates) > 1
    by_id = {hit.record.id: hit.record for hit in hits}
    fields = Counter((by_id[i].direct_types, by_id[i].flagged_props)
                     for i in tiered)
    distinct = {(hit.record.direct_types, hit.record.flagged_props)
                for hit in hits}
    assert fields == Counter(distinct)
    assert len(distinct) < len(hits)
    assert not Counter(inferred) - Counter(tiered)
    tiered.clear()
    inferred.clear()
    again = link("virus", "cell", index, fresh, config,
                 context="infectious disease outbreak")
    assert again == want
    assert tiered == [] and inferred == []


MEMO_CFG = cfg({
    "type_dictionary": {"target-type": ["Q100"], "miss-type": ["Q110"],
                        "good-type": ["Q120"], "bad-type": ["Q140"]},
    "tiers": {"good": ["good-type"], "bad": ["bad-type"]},
    "near_miss_map": {"miss-type": ["target-type"]},
})


def test_tier_memo_keeps_configs_expected_types_and_closures_apart():
    # Every record is labeled "alpha", so one search returns them all.
    index = Index([
        rec("Q1", "alpha", types=["Q100"], sitelinks=10),
        rec("Q2", "alpha", types=["Q110"], sitelinks=9),
        rec("Q3", "alpha", types=["Q500"], sitelinks=8),
        rec("Q4", "alpha", types=["Q120"], flagged=["P900"], sitelinks=7),
        rec("Q5", "alpha", types=["Q600"], sitelinks=6),
    ])

    def closure_a():
        return build_closure([TypeEdge(q("Q500"), q("Q120"), "subclass_of"),
                              TypeEdge(q("Q600"), q("Q140"), "subclass_of")])

    def closure_b():
        return build_closure([TypeEdge(q("Q500"), q("Q140"), "subclass_of"),
                              TypeEdge(q("Q600"), q("Q120"), "subclass_of")])

    twin = MEMO_CFG._replace(type_dictionary={**MEMO_CFG.type_dictionary,
                                              "bad-type": (q("Q100"),)})
    copy = MEMO_CFG._replace()
    assert copy == MEMO_CFG and copy is not MEMO_CFG
    second = cfg({"type_dictionary": {"good-type": ["Q120"], "bad-type": ["Q110"]},
                  "tiers": {"ok": ["good-type"], "bad": ["bad-type"]}})
    cases = [(MEMO_CFG, None), (twin, None), (second, None), (copy, None),
             (MEMO_CFG, ["target-type"]), (MEMO_CFG, ["miss-type"])]
    shared = closure_a()
    assert shared.memo == {}
    seen = []
    for pass_number in range(2):
        for config, expected in cases:
            got = link("alpha", "cell", index, shared, config,
                       expected_types=expected)
            want = link("alpha", "cell", index, closure_a(), config,
                        expected_types=expected)
            assert got == want
            seen.append(got)
        if pass_number == 0:
            first_tables = dict(shared.memo)
    # The linker keeps its tables by (content_hash, sorted expected types):
    # an equal copy shares the original's, the _replace twin and the second
    # config each get their own, and a repeat finds the same tables.
    assert shared.memo.keys() == {
        (MEMO_CFG.content_hash, ()), (twin.content_hash, ()),
        (second.content_hash, ()), (MEMO_CFG.content_hash, ("target-type",)),
        (MEMO_CFG.content_hash, ("miss-type",))}
    assert copy.content_hash == MEMO_CFG.content_hash
    assert len({id(shared.memo[c.content_hash, ()])
                for c in (MEMO_CFG, twin, second)}) == 3
    assert all(shared.memo[key] is tables
               for key, tables in first_tables.items())
    tiers = [{c.record.id.raw: c.type_tier for c in r.candidates}
             for r in seen[:len(cases)]]
    assert tiers[0] != tiers[1] != tiers[2] != tiers[0] == tiers[3]
    assert tiers[4]["Q1"] == "TARGET" and tiers[5]["Q1"] == "NEAR_MISS"

    other = closure_b()
    assert other.memo == {}
    got = link("alpha", "cell", index, other, MEMO_CFG)
    assert got == link("alpha", "cell", index, closure_b(), MEMO_CFG)
    assert got != seen[0]
    key = (MEMO_CFG.content_hash, ())
    assert other.memo.keys() == {key}
    assert other.memo[key] is not shared.memo[key]


def test_configs_loaded_twice_from_one_file_share_one_tier_table(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MEMO_CFG.to_obj()), encoding="utf-8")
    first, again = load_config(path), load_config(path)
    assert first is not again and first.content_hash == again.content_hash
    index = Index([rec("Q1", "alpha", types=["Q100"], sitelinks=10),
                   rec("Q2", "alpha", types=["Q140"], sitelinks=9),
                   rec("Q3", "alpha", types=["Q500"], sitelinks=8)])
    edges = [TypeEdge(q("Q500"), q("Q120"), "subclass_of")]
    shared = build_closure(edges)
    for expected in (None, ["target-type"]):
        got = [link("alpha", "cell", index, shared, config,
                    expected_types=expected) for config in (first, again)]
        fresh = link("alpha", "cell", index, build_closure(edges), again,
                     expected_types=expected)
        assert got == [fresh, fresh]
    # Both loads key one table per expected types.
    assert shared.memo.keys() == {(first.content_hash, ()),
                                  (again.content_hash, ("target-type",))}


def test_a_config_copy_gets_its_own_hash_and_cached_links():
    index = Index([rec("Q1", "alpha", types=["Q100"], sitelinks=10),
                   rec("Q2", "alpha", types=["Q110"], sitelinks=9)])
    closure = build_closure([])
    twin = MEMO_CFG._replace(type_dictionary={**MEMO_CFG.type_dictionary,
                                              "bad-type": (q("Q100"),)})
    assert twin.resolve_names(twin.tiers["bad"]) == {q("Q100")}
    assert twin.content_hash == cfg(twin.to_obj()).content_hash
    assert twin.content_hash != MEMO_CFG.content_hash
    assert pickle.loads(pickle.dumps(twin)) == twin
    cache = LinkCache()
    for _ in range(2):
        for config, want in ((MEMO_CFG, "Q1"), (twin, "Q2")):
            got = cached_link("alpha", "cell", index, closure, config,
                              cache=cache)
            assert got == link("alpha", "cell", index, closure, config)
            assert got.chosen.record.id.raw == want
    assert (cache.hits, cache.misses) == (2, 2)
    with pytest.raises(ValueError, match="derived field.* content_hash"):
        MEMO_CFG._replace(content_hash="")


# The scored-candidate memo: each test below fails against a memo whose key
# lacks one part of what a context-free ScoredCandidate is computed from.

def _fresh_link(mention, mode, index, config):
    """link() through a closure of its own, whose memos start empty."""
    return link(mention, mode, index, build_closure([]), config)


def test_scored_memo_keeps_the_records_of_each_index_apart():
    # Row 0 is Q2 and row 1 is Q1 in every index; Q1's fields, or the pool's
    # sitelinks maximum, differ from the first index's.
    def index(q1_types=("Q120",), q1_sitelinks=10, q2_sitelinks=20):
        return Index([rec("Q1", "alpha", types=q1_types, sitelinks=q1_sitelinks),
                      rec("Q2", "alpha", sitelinks=q2_sitelinks)])

    shared = build_closure([])
    indexes = [index(), index(q1_sitelinks=12), index(q1_types=()),
               index(q2_sitelinks=40), index()]
    got = [link("alpha", "cell", i, shared, MEMO_CFG) for i in indexes]
    assert got == [_fresh_link("alpha", "cell", i, MEMO_CFG) for i in indexes]
    q1 = [{c.record.id.raw: c for c in r.candidates}["Q1"] for r in got]
    assert len({(c.prominence, c.type_tier) for c in q1[:4]}) == 4
    # The memo keys a record by identity: an equal record from another
    # index gets an equal entry of its own, which holds that index's record.
    assert q1[4] == q1[0] and q1[4] is not q1[0]
    assert q1[4].record is indexes[4].get(q("Q1"))


def test_scored_memo_keeps_configs_differing_in_one_weight_or_boost_apart():
    index = Index([rec("Q1", "duration", sitelinks=10),
                   rec("P2047", "duration", sitelinks=4)])
    base = SCORE_CFG.to_obj()
    prom = cfg({**base, "weights": {**base["weights"], "w_prom": 0.25,
                                    "w_ctx": 0.05}})
    boost = cfg({**base, "params": {**base["params"],
                                    "header_property_boost": 0.3}})
    shared = build_closure([])
    for _ in range(2):
        got = [link("duration", "header", index, shared, c)
               for c in (SCORE_CFG, prom, boost)]
        assert got == [_fresh_link("duration", "header", index, c)
                       for c in (SCORE_CFG, prom, boost)]
        finals = [{c.record.id.raw: c.final_score for c in r.candidates}
                  for r in got]
        assert finals[0]["Q1"] != finals[1]["Q1"]
        assert finals[0]["P2047"] != finals[2]["P2047"]


def test_scored_memo_keeps_cell_and_header_mode_apart():
    index = Index([rec("P2047", "duration", sitelinks=3)])
    shared = build_closure([])
    for mode in ("cell", "header", "cell", "header"):
        got = link("duration", mode, index, shared, SCORE_CFG)
        assert got == _fresh_link("duration", mode, index, SCORE_CFG)
        assert got.chosen.boosts == (0.10 if mode == "header" else 0.0)


def test_scored_memo_keys_hand_built_candidates_by_every_field():
    alpha = rec("Q1", "alpha", types=["Q120"], sitelinks=5)
    other = rec("Q1", "alpha", sitelinks=5)
    pools = [[RawCandidate(alpha, "exact_label", 1.0)],
             [RawCandidate(alpha, "exact_alias", 1.0)],
             [RawCandidate(alpha, "partial", 0.5)],
             [RawCandidate(alpha, "partial", 1.0)],
             [RawCandidate(other, "exact_label", 1.0)],
             [RawCandidate(other, "partial", 0.5),
              RawCandidate(alpha, "exact_alias", 1.0),
              RawCandidate(rec("Q2", "alpha", sitelinks=9), "exact_label", 1.0)]]
    shared = build_closure([])
    results = []
    for _ in range(2):
        for pool in pools:
            got = link_from_candidates(" Alpha ", pool, "cell", None, None,
                                       shared, MEMO_CFG)
            assert got == o_link_from_candidates(" Alpha ", pool, "cell", None,
                                                 None, build_closure([]),
                                                 MEMO_CFG)
            results.append(got)
    assert len({r.candidates[0].final_score for r in results[:5]}) == 5
    assert results[6:] == results[:6]


def test_terms_memo_keeps_the_records_of_each_index_apart():
    # Two indexes hold equal Q1 records; header links with a context score
    # both through one closure.
    indexes = [Index([rec("Q1", "alpha", description="greek letter")])
               for _ in range(2)]
    shared = build_closure([])
    got = [link("alpha", "header", i, shared, SCORE_CFG,
                context="greek letter") for i in indexes]
    records = [i.get(q("Q1")) for i in indexes]
    assert records[0] == records[1] and records[0] is not records[1]
    assert got[0] == got[1] and got[0].chosen.context_sim > 0
    # The memo keys a record by identity: the equal record gets an entry of
    # its own, which holds that index's record.
    (terms,) = [tables[2] for tables in shared.memo.values()]
    assert set(terms) == {id(r) for r in records}
    assert all(terms[id(r)][1] is r for r in records)


# The ranked memo: link() keeps the context-free LinkResult of each key the
# index has found, per mode, in the fourth of the closure's linker tables.

def _ranked(closure):
    """Every ranked-memo entry of closure, over all configs and types."""
    return {key: entry for tables in closure.memo.values()
            for key, entry in tables[3].items()}


def _closure_of(kb):
    return build_closure(kb.edges, extra_nodes=sorted(
        {t for r in kb.records for t in r.direct_types}))


def _link_pool(kb, index, closure, mentions, **kw):
    """link() of each mention in cell and header mode, by (mention, mode);
    a mention that normalizes to nothing is left out."""
    got = {}
    for mention in mentions:
        for mode in ("cell", "header"):
            with contextlib.suppress(EmptyMention):
                got[mention, mode] = link(mention, mode, index, closure,
                                          kb.config, **kw)
    return got


@pytest.mark.parametrize("typed", [False, True])
def test_ranked_memo_serves_each_repeat_equal_to_a_fresh_link(
        small_kb, monkeypatch, typed):
    expected = sorted(small_kb.config.type_dictionary)[:3] if typed else None
    index, shared = Index(small_kb.records), _closure_of(small_kb)
    first = _link_pool(small_kb, index, shared, small_kb.mentions,
                       expected_types=expected)
    searched = []
    monkeypatch.setattr(tablink.linker, "search",
                        lambda i, m, *a, **kw: searched.append(m)
                        or search(i, m, *a, **kw))
    second = _link_pool(small_kb, index, shared, small_kb.mentions,
                        expected_types=expected)
    monkeypatch.undo()
    ranked, fresh, kept = _ranked(shared), _closure_of(small_kb), set()
    for (mention, mode), got in second.items():
        fresh.memo.clear()
        assert got == link(mention, mode, index, fresh, small_kb.config,
                           expected_types=expected), (mention, mode)
        if (rows := index.found(tablink.text.normalize(mention))) is not None:
            # Served from the table: the first pass's result, kept there.
            assert got is first[mention, mode]
            assert ranked[id(rows), mode] == (rows, got)
            kept.add(mention)
    # Only mentions that are no key were searched again.
    assert len(kept) > 800 and set(searched) == set(small_kb.mentions) - kept
    assert len(searched) == 2 * len(set(searched))


def test_link_reads_one_shot_expected_types_once():
    index = Index([rec("Q1", "alpha", types=["Q110"], sitelinks=10),
                   rec("Q2", "alpha", types=["Q100"], sitelinks=9)])
    want = link("alpha", "cell", index, build_closure([]), MEMO_CFG,
                expected_types=["target-type"])
    assert want.chosen.record.id.raw == "Q2"
    assert want.chosen.type_tier == "TARGET"
    shared = build_closure([])
    cold = link("alpha", "cell", index, shared, MEMO_CFG,
                expected_types=iter(["target-type"]))
    warm = link("alpha", "cell", index, shared, MEMO_CFG,
                expected_types=iter(["target-type"]))
    assert cold == want and warm == want and warm is cold


def test_ranked_memo_keeps_the_results_of_each_index_apart():
    # Q1's types differ between the first two indexes; the third equals the
    # first.
    def index(q1_types=("Q120",)):
        return Index([rec("Q1", "alpha", types=q1_types, sitelinks=10),
                      rec("Q2", "alpha", sitelinks=20)])

    indexes = [index(), index(q1_types=()), index()]
    shared = build_closure([])
    for _ in range(2):
        got = [link("alpha", "cell", i, shared, MEMO_CFG) for i in indexes]
        assert got == [_fresh_link("alpha", "cell", i, MEMO_CFG)
                       for i in indexes]
    assert got[0] != got[1] and got[2] == got[0]
    # Each index's result holds that index's records.
    assert all(c.record is i.get(c.record.id)
               for r, i in zip(got, indexes) for c in r.candidates)
    assert len(_ranked(shared)) == 3


def test_ranked_memo_holds_only_found_keys_linked_without_a_context(small_kb):
    index, shared = Index(small_kb.records), _closure_of(small_kb)
    mentions = small_kb.mentions
    # Every fourth mention is linked with a context only; each mention also
    # gets a word that is no key, which makes it a partial-tier search.
    alone, with_context = mentions[1::4], mentions[::4]
    _link_pool(small_kb, index, shared, [m for m in mentions
                                         if m not in set(with_context)])
    _link_pool(small_kb, index, shared, with_context, context="dokelo foli")
    _link_pool(small_kb, index, shared, [m + " zzqx" for m in alone])
    found = list(index._found.values())
    ranked = _ranked(shared)
    assert len(ranked) > 1000
    for (rows_id, mode), (rows, result) in ranked.items():
        assert rows_id == id(rows) and any(rows is f for f in found)
        assert index.found(result.mention) is rows and result.mode == mode
    keys = {result.mention for _, result in ranked.values()}
    normalize = tablink.text.normalize
    assert not keys & {normalize(m) for m in with_context} - {
        normalize(m) for m in mentions if m not in set(with_context)}
    assert not keys & {normalize(m + " zzqx") for m in alone}


def test_link_from_candidates_matches_the_oracle_twice_on_a_tie_heavy_kb():
    # Labels share a handful of tokens and sitelinks take three values, so
    # pools are long, ties are common and the second pass is served from
    # the memo.
    rng = random.Random(28)
    words = ["virus", "protein", "strain", "gene", "alpha", "beta"]
    types = ["Q100", "Q110", "Q120", "Q140", "Q500", "Q600"]
    records = [rec(("P" if i % 7 == 0 else "Q") + str(i + 1),
                   " ".join(rng.sample(words, rng.randint(1, 3))),
                   [" ".join(rng.sample(words, 2))] if i % 5 == 0 else [],
                   description=rng.choice(["", "greek letter", "virus strain"]),
                   types=rng.sample(types, rng.randint(0, 2)),
                   sitelinks=rng.choice((0, 3, 3, 8)),
                   flagged=["P900"] if i % 4 == 0 else [])
               for i in range(300)]
    index = Index(records)
    edges = [TypeEdge(q("Q500"), q("Q120"), "subclass_of"),
             TypeEdge(q("Q600"), q("Q140"), "subclass_of")]
    shared = build_closure(edges)
    cases = [(" ".join(rng.sample(words, rng.randint(1, 3))),
              rng.choice(("cell", "header")),
              rng.choice((None, None, "greek letter")),
              rng.choice((None, None, ["target-type"], ["miss-type"])))
             for _ in range(150)]
    memo_hits = 0
    for second in (False, True):
        for mention, mode, context, expected in cases:
            raw = search(index, mention, TIER_CFG.params.k)
            for config in (TIER_CFG, MEMO_CFG):
                got = link_from_candidates(mention, raw, mode, context,
                                           expected, shared, config)
                want = o_link_from_candidates(mention, raw, mode, context,
                                              expected, build_closure(edges),
                                              config)
                assert got == want, (mention, mode, context, expected)
                if second and context is None:
                    again = link_from_candidates(mention, raw, mode, None,
                                                 expected, shared, config)
                    memo_hits += len(raw) > 1 and all(
                        a is b for a, b in zip(again.candidates, got.candidates))
    assert memo_hits > 50


def test_prevalence_header_vs_cell():
    records, closure, config = prevalence_fixture()
    index = Index(records)
    as_cell = link("Prevalence", "cell", index, closure, config)
    assert as_cell.chosen.record.id.raw == "Q719602"
    as_header = link("Prevalence", "header", index, closure, config)
    assert as_header.chosen.record.id.raw == "P1193"
    assert as_header.chosen.boosts == pytest.approx(0.10)


def test_near_miss_acceptance():
    records, closure, config = near_miss_fixture()
    index = Index(records)
    result = link("Wuhan Institute of Virology", "cell", index, closure, config,
                  expected_types=["location"])
    assert result.chosen.record.id.raw == "Q1333425"
    assert result.chosen.type_tier == "NEAR_MISS"
    assert result.chosen.type_score == pytest.approx(0.8)
    without = link("Wuhan Institute of Virology", "cell", index, closure, config)
    assert without.chosen.type_tier == "UNKNOWN"
