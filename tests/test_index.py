import json
import random

import pytest

import tablink.index
from tablink import (
    EmptyMention,
    EntityId,
    Index,
    IndexUnavailable,
    ItemRecord,
    RawCandidate,
    load_index,
    save_index,
    search,
)

from oracles import OracleKB, o_search

q = EntityId.parse


def rec(eid, label, aliases=(), sitelinks=0, types=()):
    return ItemRecord(id=q(eid), label=label, aliases=tuple(aliases),
                      direct_types=tuple(q(t) for t in types),
                      sitelinks_count=sitelinks)


@pytest.fixture()
def small_index():
    return Index([
        rec("Q1", "measles", aliases=("rubeola",), sitelinks=80),
        rec("Q2", "measles virus", sitelinks=40),
        rec("Q3", "german measles", aliases=("rubella",), sitelinks=60),
        rec("Q4", "measles vaccine", sitelinks=50),
        rec("Q5", "mumps", sitelinks=70),
        rec("Q6", "rubeola fever", sitelinks=10),
        rec("P10", "measles", sitelinks=0),
    ])


def test_exact_label_beats_alias_beats_partial(small_index):
    hits = search(small_index, "measles", k=10)
    tiers = [(c.record.id.raw, c.match_tier) for c in hits]
    assert tiers[0] == ("Q1", "exact_label")
    assert tiers[1] == ("P10", "exact_label")
    # Partial pool: every record containing the token "measles".
    rest = {t[0] for t in tiers[2:]}
    assert rest == {"Q2", "Q3", "Q4"}
    assert all(t[1] == "partial" for t in tiers[2:])


def test_alias_tier_and_best_tier_wins():
    idx = Index([
        rec("Q1", "rubeola", aliases=("rubeola",)),  # label shadows alias
        rec("Q2", "x", aliases=("rubeola",)),
    ])
    hits = search(idx, "rubeola", k=5)
    assert [(c.record.id.raw, c.match_tier) for c in hits] == [
        ("Q1", "exact_label"), ("Q2", "exact_alias")]


def test_partial_needs_half_of_distinct_tokens_rounded_up():
    idx = Index([
        rec("Q1", "alpha beta gamma"),
        rec("Q2", "alpha"),
        rec("Q3", "delta"),
    ])
    # 3 distinct tokens -> need 2.
    hits = search(idx, "alpha beta zeta", k=5)
    assert [c.record.id.raw for c in hits] == ["Q1"]
    assert hits[0].token_overlap == pytest.approx(2 / 3)
    # 1 distinct token (repeated) -> need 1.
    hits = search(idx, "alpha alpha", k=5)
    assert {c.record.id.raw for c in hits} == {"Q1", "Q2"}


def test_ordering_overlap_then_sitelinks_then_id():
    idx = Index([
        rec("Q9", "alpha beta", sitelinks=5),
        rec("Q2", "alpha gamma", sitelinks=9),
        rec("Q7", "alpha delta", sitelinks=9),
        rec("Q1", "alpha beta extra", sitelinks=1),
    ])
    hits = search(idx, "alpha beta", k=10)
    assert [c.record.id.raw for c in hits] == ["Q9", "Q1", "Q2", "Q7"]


def test_k_truncates_ranked_list(small_index):
    hits = search(small_index, "measles", k=2)
    assert [c.record.id.raw for c in hits] == ["Q1", "P10"]


def test_stopword_only_and_empty_mentions_rejected(small_index):
    for mention in ("", "   ", "of the", "is a"):
        with pytest.raises(EmptyMention):
            search(small_index, mention, k=5)
    # Punctuation is kept by the whitespace tokenizer; a dash is a searchable
    # token that simply matches nothing here.
    assert search(small_index, "-", k=5) == []


def test_mention_normalization_applies(small_index):
    assert [c.record.id.raw for c in search(small_index, "  MEASLES  ", k=1)] == ["Q1"]


def test_duplicate_ids_last_wins():
    idx = Index([
        rec("Q1", "first"),
        rec("Q1", "second"),
    ])
    assert idx.duplicate_ids == 1
    assert len(idx) == 1
    assert idx.get(q("Q1")).label == "second"
    assert [c.record.id.raw for c in search(idx, "second", k=5)] == ["Q1"]
    assert search(idx, "first", k=5) == []


def test_save_load_round_trip(tmp_path, small_index):
    save_index(small_index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    assert loaded.build_id == small_index.build_id
    assert len(loaded) == len(small_index)
    a = [(c.record.id.raw, c.match_tier, c.token_overlap)
         for c in search(loaded, "measles", k=10)]
    b = [(c.record.id.raw, c.match_tier, c.token_overlap)
         for c in search(small_index, "measles", k=10)]
    assert a == b


def test_build_id_independent_of_record_order():
    records = [rec("Q1", "a"), rec("Q2", "b"), rec("Q3", "c")]
    forward = Index(records)
    backward = Index(reversed(records))
    assert forward.build_id == backward.build_id


def test_build_id_sensitive_to_content():
    base = Index([rec("Q1", "a", sitelinks=1)])
    bumped = Index([rec("Q1", "a", sitelinks=2)])
    assert base.build_id != bumped.build_id


def test_load_rejects_missing_dir(tmp_path):
    with pytest.raises(IndexUnavailable):
        load_index(tmp_path / "nope")


def test_load_rejects_version_pin_mismatch(tmp_path, small_index):
    save_index(small_index, tmp_path / "idx")
    manifest_path = tmp_path / "idx" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["normalization_version"] = -1
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(IndexUnavailable):
        load_index(tmp_path / "idx")


def test_load_rejects_tampered_records(tmp_path, small_index):
    save_index(small_index, tmp_path / "idx")
    records_path = tmp_path / "idx" / "records.jsonl"
    lines = records_path.read_text(encoding="utf-8").splitlines(keepends=True)
    records_path.write_text("".join(lines[1:]), encoding="utf-8")
    with pytest.raises(IndexUnavailable):
        load_index(tmp_path / "idx")


def test_search_matches_linear_scan_oracle(small_kb):
    rng = random.Random(99)
    records = small_kb.records
    oracle = OracleKB(records)
    mentions = []
    for r in rng.sample(records, 150):
        mentions.append(r.label)
        if r.aliases:
            mentions.append(rng.choice(r.aliases))
        toks = r.label.split()
        if len(toks) >= 2:
            mentions.append(f"{toks[0]} {rng.choice(toks)}")
    for mention in mentions:
        got = [(c.record.id.raw, c.match_tier, round(c.token_overlap, 9))
               for c in search(small_kb.index, mention, k=20)]
        want = [(r.id.raw, tier, round(overlap, 9))
                for r, tier, overlap in o_search(oracle, mention, 20)]
        assert got == want, f"mismatch for {mention!r}"


def test_search_cuts_large_pools_at_k_like_the_oracle(monkeypatch):
    # "virus" is in about 40% of the labels and every 25th record is named
    # just "virus", so pools hold hundreds of records; sitelinks come from a
    # few values, so ties in tier, overlap and sitelinks fall at the cut.
    rng = random.Random(2024)
    hot = ["virus", "protein", "strain"]
    words = [f"w{i}" for i in range(60)]
    records = []
    for i in range(2000):
        toks = rng.sample(words, rng.randint(1, 3))
        for token, p in zip(hot, (0.4, 0.2, 0.1)):
            if rng.random() < p:
                toks.insert(rng.randrange(len(toks) + 1), token)
        if i % 25 == 0:
            toks = ["virus"]
        aliases = [" ".join(rng.sample(hot + words, 2))] if rng.random() < 0.3 else []
        records.append(rec(("P" if i % 10 == 0 else "Q") + str(i + 1), " ".join(toks),
                           aliases, sitelinks=rng.choice((0, 1, 1, 2, 3, 5))))
    mentions = ["virus", "protein", "strain", "virus protein", "strain virus w1"]
    mentions += [r.label for r in rng.sample(records, 120)]
    mentions += [" ".join(rng.sample(hot + words, rng.randint(1, 3)))
                 for _ in range(80)]

    index = Index(records)
    oracle = OracleKB(records)
    built = []
    monkeypatch.setattr(tablink.index, "RawCandidate",
                        lambda *args: built.append(args) or RawCandidate(*args))
    big_pools = ties_at_cut = 0
    for mention in mentions:
        full = o_search(oracle, mention, len(records))
        big_pools += len(full) > 20
        for k in (1, 5, 20):
            built.clear()
            got = [(c.record.id, c.match_tier, c.token_overlap)
                   for c in search(index, mention, k)]
            want = [(r.id, tier, overlap)
                    for r, tier, overlap in o_search(oracle, mention, k)]
            assert got == want, f"mismatch for {mention!r} at k={k}"
            assert len(built) == len(got)
            if len(full) > k:
                rank = [(tier, overlap, r.sitelinks_count)
                        for r, tier, overlap in full[k - 1:k + 1]]
                ties_at_cut += rank[0] == rank[1]
    assert big_pools >= 50
    assert ties_at_cut >= 50


def test_index_len_and_contains(small_kb):
    assert len(small_kb.index) == len(small_kb.records)
    some = small_kb.records[0]
    assert small_kb.index.get(some.id) == some
    assert small_kb.index.get(q("Q999999999")) is None
