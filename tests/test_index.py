import hashlib
import json
import marshal
import os
import random
import subprocess
import sys
import threading

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


@pytest.mark.parametrize("name", ["index.marshal", "manifest.json"])
def test_load_rejects_a_missing_file(tmp_path, small_index, name):
    save_index(small_index, tmp_path / "idx")
    (tmp_path / "idx" / name).unlink()
    with pytest.raises(IndexUnavailable, match="not an index directory"):
        load_index(tmp_path / "idx")


def _edit_manifest(index_dir, **fields):
    manifest_path = index_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest.update(fields)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize("key, value", [
    ("normalization_version", -1),
    ("format_version", 1),
    ("python_version", "3.%d" % (sys.version_info[1] + 1)),
    ("marshal_version", marshal.version - 1),
])
def test_load_rejects_version_pin_mismatch(tmp_path, small_index, key, value):
    save_index(small_index, tmp_path / "idx")
    _edit_manifest(tmp_path / "idx", **{key: value})
    with pytest.raises(IndexUnavailable, match=f"built with {key}="):
        load_index(tmp_path / "idx")


@pytest.mark.parametrize("tamper", [
    pytest.param(lambda blob: blob[:99] + bytes([blob[99] ^ 1]) + blob[100:],
                 id="flipped-byte"),
    pytest.param(lambda blob: blob[:-1], id="truncated"),
])
def test_load_rejects_tampered_blob(tmp_path, small_index, tamper):
    save_index(small_index, tmp_path / "idx")
    blob_path = tmp_path / "idx" / "index.marshal"
    blob_path.write_bytes(tamper(blob_path.read_bytes()))
    with pytest.raises(IndexUnavailable, match="does not match its manifest"):
        load_index(tmp_path / "idx")


@pytest.mark.parametrize("blob", [
    pytest.param(b"\x00not marshal", id="not-marshal"),
    pytest.param(marshal.dumps((1, 2, 3)), id="short-tuple"),
    pytest.param(marshal.dumps(tuple(range(len(tablink.index._Tables._fields)))),
                 id="wrong-fields"),
])
def test_load_rejects_a_malformed_blob_even_with_its_hash(tmp_path, small_index,
                                                          blob):
    save_index(small_index, tmp_path / "idx")
    (tmp_path / "idx" / "index.marshal").write_bytes(blob)
    _edit_manifest(tmp_path / "idx", build_id=hashlib.sha256(blob).hexdigest())
    with pytest.raises(IndexUnavailable, match="malformed"):
        load_index(tmp_path / "idx")


def test_build_index_bytes_do_not_depend_on_the_hash_seed(tmp_path, small_kb):
    """marshal output can depend on more than the values it writes; the
    index must not, in any process."""
    def files(index_dir):
        return {p.name: p.read_bytes() for p in sorted(index_dir.iterdir())}

    built = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "tablink.cli", "build-index",
             "--records", str(small_kb.result.records_path), "--out", str(out)],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        built.append(files(out))
    save_index(small_kb.index, tmp_path / "here")
    assert built[0] == built[1] == files(tmp_path / "here")


def test_rows_are_decoded_once_into_equal_records(tmp_path, small_kb,
                                                  monkeypatch):
    save_index(small_kb.index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    made = []

    def counting(**fields):
        made.append(fields["id"])
        return ItemRecord(**fields)

    monkeypatch.setattr(tablink.index, "ItemRecord", counting)
    for _ in range(2):
        for mention in small_kb.mentions[:300]:
            try:
                search(loaded, mention, 20)
            except EmptyMention:
                pass
        records = list(loaded.records_by_id.values())
    assert len(made) == len(set(made)) == len(loaded)
    assert records == sorted(small_kb.records, key=lambda r: r.id)


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


def test_concurrent_searches_on_a_loaded_index_agree(tmp_path, small_kb):
    save_index(small_kb.index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    mentions = [m for m in small_kb.mentions[:200] if m.strip()]

    def ranked(mention):
        try:
            return [(c.record, c.match_tier, c.token_overlap)
                    for c in search(loaded, mention, 20)]
        except EmptyMention:
            return None

    want = [ranked(m) for m in mentions]
    loaded = load_index(tmp_path / "idx")   # an empty memo again
    got = [[] for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda out=out: out.extend(
            map(ranked, mentions))) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(out == want for out in got)
