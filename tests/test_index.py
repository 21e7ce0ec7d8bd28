import array
import gc
import hashlib
import itertools
import json
import marshal
import os
import random
import re
import subprocess
import sys
import threading

import pytest

import tablink.index
import tablink.kb
from tablink import (
    EmptyMention,
    EntityId,
    Index,
    IndexUnavailable,
    ItemRecord,
    ParseError,
    RawCandidate,
    build_closure,
    load_index,
    parse_config_obj,
    read_records,
    save_config,
    save_index,
    search,
    write_closure,
)
from tablink.cli import main

from tablink.kb import read_direct_types
from tablink.text import normalize

from oracles import OracleKB, o_search_all

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


@pytest.fixture(scope="module")
def ranked_index():
    """Rows are numbered by sitelinks, most first, so the sitelinks below
    put rows with the best coverage late and make posting lists of chosen
    lengths: gamma (3) < alpha = beta (5); sy (1) < ra (2) < qu (3) < pa (5)."""
    return Index([
        rec("Q1", "alpha beta", sitelinks=90),
        rec("Q2", "gamma beta alpha zeta", sitelinks=1),
        rec("Q3", "gamma", sitelinks=50),
        rec("Q4", "beta", sitelinks=40),
        rec("Q5", "alpha uno", sitelinks=70),
        rec("Q6", "alpha duo", sitelinks=60),
        rec("Q7", "alpha tre", sitelinks=30),
        rec("Q8", "beta quat", sitelinks=20),
        rec("Q10", "beta gamma", sitelinks=5),
        rec("Q20", "pa qu", sitelinks=95),
        rec("Q21", "sy ra qu pa xi", sitelinks=2),
        rec("Q22", "pa ra", sitelinks=7),
        rec("Q23", "qu", sitelinks=60),
        rec("Q24", "pa uno", sitelinks=55),
        rec("Q25", "pa duo", sitelinks=45),
        rec("Q30", "measles virus", sitelinks=1),
        rec("Q31", "rubeola", aliases=("measles virus",), sitelinks=5),
        rec("Q32", "measles", sitelinks=90),
        rec("Q33", "virus measles", sitelinks=3),
        rec("Q34", "x", aliases=("measles",), sitelinks=100),
        rec("Q40", "flu", sitelinks=10),
        rec("Q41", "flu", sitelinks=30),
        rec("Q42", "flu", sitelinks=20),
        rec("Q43", "flu"),
        rec("Q44", "flu"),
        rec("Q45", "y", aliases=("flu",), sitelinks=99),
        rec("Q46", "flu shot", sitelinks=1000),
    ])


L, A, P = "exact_label", "exact_alias", "partial"


@pytest.mark.parametrize("mention, k, want", [
    # The full-coverage row has the fewest sitelinks; Q1 reaches the bar
    # without the rarest token, gamma.
    ("alpha beta gamma", 10, [("Q2", P, 1.0), ("Q1", P, 2 / 3), ("Q10", P, 2 / 3)]),
    # Q20 is reachable only through the third-shortest list, qu.
    ("pa qu ra sy", 10, [("Q21", P, 1.0), ("Q20", P, 0.5), ("Q22", P, 0.5)]),
    ("pa qu ra sy", 2, [("Q21", P, 1.0), ("Q20", P, 0.5)]),
    # zz is in no record: the shortest list is empty.
    ("pa qu zz", 10, [("Q20", P, 2 / 3), ("Q21", P, 2 / 3)]),
    ("measles zz", 3, [("Q34", P, 0.5), ("Q32", P, 0.5), ("Q31", P, 0.5)]),
    # Exact rows sit in the postings of their tokens too; each is returned
    # once, at its best tier.
    ("measles virus", 10, [("Q30", L, 1.0), ("Q31", A, 1.0), ("Q33", P, 1.0),
                           ("Q34", P, 0.5), ("Q32", P, 0.5)]),
    ("measles", 10, [("Q32", L, 1.0), ("Q34", A, 1.0), ("Q31", P, 1.0),
                     ("Q33", P, 1.0), ("Q30", P, 1.0)]),
    # k below the number of exact matches.
    ("flu", 3, [("Q41", L, 1.0), ("Q42", L, 1.0), ("Q40", L, 1.0)]),
    ("flu", 6, [("Q41", L, 1.0), ("Q42", L, 1.0), ("Q40", L, 1.0),
                ("Q43", L, 1.0), ("Q44", L, 1.0), ("Q45", A, 1.0)]),
    ("flu", 7, [("Q41", L, 1.0), ("Q42", L, 1.0), ("Q40", L, 1.0),
                ("Q43", L, 1.0), ("Q44", L, 1.0), ("Q45", A, 1.0),
                ("Q46", P, 1.0)]),
    # The exact row heads both posting lists.
    ("flu shot", 2, [("Q46", L, 1.0), ("Q45", P, 0.5)]),
    ("measles", 1, [("Q32", L, 1.0)]),
    ("measles", 0, []),
])
def test_search_reads_tiers_in_rank_order(ranked_index, mention, k, want):
    got = [(c.record.id.raw, c.match_tier, c.token_overlap)
           for c in search(ranked_index, mention, k)]
    assert got == want


def test_k_truncates_ranked_list(small_index):
    hits = search(small_index, "measles", k=2)
    assert [c.record.id.raw for c in hits] == ["Q1", "P10"]


@pytest.mark.parametrize("k", [0, -1, -2, -5])
def test_k_below_one_finds_nothing(k):
    index = Index([rec(f"Q{i}", f"name {i}", aliases=("shared name",))
                   for i in (1, 2, 3)])
    assert len(search(index, "shared name", 3)) == 3
    assert search(index, "shared name", k) == []


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


@pytest.mark.parametrize("edit", [
    pytest.param(lambda text: "{not json", id="not-json"),
    pytest.param(lambda text: "[" + text + "]", id="array"),
    pytest.param(lambda text: '{"record_count": -1, ' + text[1:],
                 id="repeated-key"),
])
def test_load_refuses_a_manifest_that_is_not_a_json_object(tmp_path, small_index,
                                                           edit):
    index_dir = tmp_path / "idx"
    save_index(small_index, index_dir)
    manifest_path = index_dir / "manifest.json"
    manifest_path.write_text(edit(manifest_path.read_text(encoding="utf-8")),
                             encoding="utf-8")
    with pytest.raises(IndexUnavailable, match=rf"^index {re.escape(str(index_dir))}"
                       r": manifest.json is not a valid JSON object \("):
        load_index(index_dir)


def test_a_manifest_of_the_wrong_type_is_refused_in_the_field_wording(
        tmp_path, small_index):
    index_dir = tmp_path / "idx"
    save_index(small_index, index_dir)
    (index_dir / "manifest.json").write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(IndexUnavailable, match=r"TypeError: manifest must be "
                       r"dict, not list\)\)$"):
        load_index(index_dir)


def _edit_manifest(index_dir, **fields):
    manifest_path = index_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest.update(fields)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize("key, value", [
    ("normalization_version", -1),
    ("format_version", 1),
    ("format_version", 2),
    ("format_version", 3),
    ("format_version", 4),
    ("python_version", "3.%d" % (sys.version_info[1] + 1)),
    ("marshal_version", marshal.version - 1),
    ("byteorder", "big" if sys.byteorder == "little" else "little"),
    ("uint_size", 8),
])
def test_load_rejects_version_pin_mismatch(tmp_path, small_index, key, value):
    save_index(small_index, tmp_path / "idx")
    _edit_manifest(tmp_path / "idx", **{key: value})
    with pytest.raises(IndexUnavailable,
                       match=f"built with {key}=.*; rebuild the index$"):
        load_index(tmp_path / "idx")


def test_load_refuses_a_format_4_index(tmp_path, small_index):
    # Format 4 kept every row list as a tuple; its blob is never read.
    save_index(small_index, tmp_path / "idx")
    t = small_index._tables
    blob = marshal.dumps((
        (4,) + t.header[1:], t.duplicate_ids, t.ids, tuple(t.id_order),
        tuple(map(bytes, _entries(t.records, t.record_ends))), t.keys,
        *(tuple(map(tuple, _entries(rows, ends))) for rows, ends in (
            (t.label_rows, t.label_ends), (t.alias_rows, t.alias_ends),
            (t.token_rows, t.token_ends)))), 2)
    (tmp_path / "idx" / "index.marshal").write_bytes(blob)
    _edit_manifest(tmp_path / "idx", format_version=4,
                   build_id=hashlib.sha256(blob).hexdigest())
    with pytest.raises(IndexUnavailable, match="built with format_version=4, "
                       "this build uses 5; rebuild the index$"):
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


def _entries(flat, ends):
    return [flat[start:end] for start, end in zip([0, *ends], ends)]


def _edited(column, edit):
    """Tables whose uint32 column is edited in place by edit(values, t)."""
    def edited(t):
        values = list(getattr(t, column))
        edit(values, t)
        return t._replace(**{column: array.array("I", values).tobytes()})
    return edited


def _row_zero(fields):
    """Tables whose row 0 holds the marshalled fields in place of its own."""
    def edited(t):
        rows = [bytes(r) for r in _entries(t.records, t.record_ends)]
        rows[0] = marshal.dumps(fields, 2)
        return t._replace(records=b"".join(rows), record_ends=array.array(
            "I", itertools.accumulate(map(len, rows))).tobytes())
    return edited


def _record_zero(index):
    index.record_at(0)


def _measles_at(t):
    return t.keys.index("measles")


def _measles(index):
    return search(index, "measles", 5)


def _loads(index):
    pass


@pytest.mark.parametrize("blob, probe", [
    pytest.param(b"\x00not marshal", _loads, id="not-marshal"),
    pytest.param(marshal.dumps((1, 2, 3)), _loads, id="short-tuple"),
    pytest.param(marshal.dumps(tuple(range(len(tablink.index._Tables._fields)))),
                 _loads, id="wrong-fields"),
    # One key is missing its token end.
    pytest.param(lambda t: t._replace(token_ends=t.token_ends[:-1]),
                 _loads, id="short-token-rows"),
    pytest.param(lambda t: t._replace(id_order=t.id_order[1:]),
                 _loads, id="short-id-order"),
    pytest.param(lambda t: t._replace(label_rows=bytes(t.label_rows) + b"\0"),
                 _loads, id="rows-not-whole-items"),
    pytest.param(lambda t: t._replace(record_ends=bytes(t.record_ends) + b"\0"),
                 _loads, id="ends-not-whole-items"),
    pytest.param(lambda t: t._replace(label_rows=tuple(
        map(tuple, _entries(t.label_rows, t.label_ends)))),
                 _loads, id="rows-as-tuples"),
    pytest.param(_edited("label_ends", lambda ends, t: ends.__setitem__(
        _measles_at(t) - 1, ends[_measles_at(t)] + 1)),
                 _measles, id="ends-decrease"),
    pytest.param(_edited("label_ends", lambda ends, t: ends.__setitem__(
        _measles_at(t), len(t.label_rows) + 1)),
                 _measles, id="ends-past-the-rows"),
    pytest.param(_edited("record_ends", lambda ends, t: ends.__setitem__(
        0, len(t.records) + 1)),
                 lambda index: index.record_at(0), id="record-past-the-bytes"),
    pytest.param(_edited("label_rows", lambda rows, t: rows.__setitem__(
        t.label_ends[_measles_at(t) - 1], len(t.ids))),
                 _measles, id="row-past-the-records"),
    pytest.param(_edited("token_rows", lambda rows, t: rows.__setitem__(
        0, 2 ** 32 - 1)),
                 lambda index: [search(index, key, 9) for key in
                                index._tables.keys], id="row-at-uint-max"),
    pytest.param(_edited("id_order", lambda order, t: order.__setitem__(
        slice(None), [len(t.ids)] * len(order))),
                 lambda index: index.get(q("Q3")), id="id-order-past-the-records"),
    # Bisection would miss the two swapped keys, or the two swapped ids.
    pytest.param(lambda t: t._replace(keys=(t.keys[1], t.keys[0], *t.keys[2:])),
                 _loads, id="keys-out-of-order"),
    pytest.param(_edited("id_order", lambda order, t: order.__setitem__(
        slice(0, 2), order[1::-1])),
                 _loads, id="id-order-out-of-order"),
    pytest.param(_row_zero((1, 2)), _record_zero, id="row-of-two-fields"),
    pytest.param(_row_zero(("measles", (), "", (), 80, (), 0)), _record_zero,
                 id="row-of-seven-fields"),
    pytest.param(_row_zero(("measles", (), "", (), "80", ())), _record_zero,
                 id="row-with-a-text-count"),
    pytest.param(_row_zero((b"measles", (), "", (), 80, ())), _record_zero,
                 id="row-with-a-bytes-label"),
    pytest.param(_row_zero(("measles", (), "", ("5",), 80, ())), _record_zero,
                 id="row-with-a-text-type-number"),
    # Q-5 and P-7 are ids EntityId.parse refuses.
    pytest.param(_row_zero(("measles", (), "", (-5,), 80, ())), _record_zero,
                 id="row-with-a-negative-type-number"),
    pytest.param(_row_zero(("measles", (), "", (), 80, (-7,))), _record_zero,
                 id="row-with-a-negative-property-number"),
    pytest.param(_row_zero((" ", (), "", (), 80, ())), _record_zero,
                 id="row-with-a-blank-label"),
    pytest.param(_row_zero(("measles", (), "", (), -1, ())), _record_zero,
                 id="row-with-a-negative-count"),
])
def test_load_rejects_a_malformed_blob_even_with_its_hash(tmp_path, small_index,
                                                          blob, probe):
    """Refused at load, or at the first probe that reads the bad part; never
    a silent short slice or a bare IndexError."""
    if callable(blob):
        blob = marshal.dumps(tuple(blob(small_index._tables)), 2)
    save_index(small_index, tmp_path / "idx")
    (tmp_path / "idx" / "index.marshal").write_bytes(blob)
    _edit_manifest(tmp_path / "idx", build_id=hashlib.sha256(blob).hexdigest())
    with pytest.raises(IndexUnavailable, match="malformed; rebuild"):
        probe(load_index(tmp_path / "idx"))


def test_link_names_a_malformed_row_and_exits_1(tmp_path, small_index,
                                                capsys):
    blob = marshal.dumps(tuple(_row_zero((1, 2))(small_index._tables)), 2)
    save_index(small_index, tmp_path / "idx")
    (tmp_path / "idx" / "index.marshal").write_bytes(blob)
    _edit_manifest(tmp_path / "idx", build_id=hashlib.sha256(blob).hexdigest())
    write_closure(tmp_path / "closure.txt", build_closure([]))
    save_config(tmp_path / "config.json", parse_config_obj({}))
    # Row 0, Q1, is the best-ranked "measles".
    assert main(["link", "--mention", "measles",
                "--index", str(tmp_path / "idx"),
                "--closure", str(tmp_path / "closure.txt"),
                "--config", str(tmp_path / "config.json")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: index row 0 is malformed; rebuild the index\n"


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


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_rows_are_decoded_once_into_equal_records(tmp_path, small_kb,
                                                  monkeypatch, source):
    if source == "built":
        loaded = Index(small_kb.records)
    else:
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


def test_a_build_normalizes_each_label_and_alias_once(small_kb, monkeypatch):
    path = small_kb.result.records_path
    strings = sum(1 + len(json.loads(line).get("aliases", []))
                  for line in path.read_text(encoding="utf-8").splitlines())
    calls = []

    def counting(text):
        calls.append(text)
        return normalize(text)

    monkeypatch.setattr(tablink.kb, "normalize", counting)
    monkeypatch.setattr(tablink.index, "normalize", counting)
    index = Index(read_records(path))
    assert len(index) == len(small_kb.records)
    assert len(calls) == strings


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
    for mention, ranked in zip(mentions, o_search_all(oracle, mentions, 20)):
        got = [(c.record.id.raw, c.match_tier, round(c.token_overlap, 9))
               for c in search(small_kb.index, mention, k=20)]
        want = [(r.id.raw, tier, round(overlap, 9))
                for r, tier, overlap in ranked]
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
    # search builds every hit through new_raw, so this counts the hits built.
    monkeypatch.setattr(tablink.index, "new_raw",
                        lambda fields: built.append(fields) or RawCandidate(*fields))
    big_pools = ties_at_cut = 0
    # The oracle ranks every hit before cutting at k, so its answer at k is
    # the full ranking's first k.
    for mention, full in zip(mentions,
                             o_search_all(oracle, mentions, len(records))):
        big_pools += len(full) > 20
        for k in (1, 5, 20):
            built.clear()
            got = [(c.record.id, c.match_tier, c.token_overlap)
                   for c in search(index, mention, k)]
            want = [(r.id, tier, overlap) for r, tier, overlap in full[:k]]
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


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_get_finds_each_id_and_nothing_between(tmp_path, small_index, source):
    index = small_index
    if source == "loaded":
        save_index(small_index, tmp_path / "idx")
        index = load_index(tmp_path / "idx")
    # Raw ids ascend as strings: P10 < Q1 < Q2 < ... < Q6. P1 sorts before
    # the first, Q7 after the last, P9 and Q10 between two.
    for raw in ("P10", "Q1", "Q3", "Q6"):
        assert index.get(q(raw)).id == q(raw)
    for raw in ("P1", "Q7", "P9", "Q10"):
        assert index.get(q(raw)) is None, raw


def test_a_loaded_index_searches_every_key_like_the_built_one(tmp_path,
                                                              small_kb):
    save_index(small_kb.index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    keys = small_kb.index._tables.keys
    assert keys == loaded._tables.keys
    assert list(keys) == sorted(set(keys))
    for key in keys:
        try:
            want = search(small_kb.index, key, 20)
        except EmptyMention:
            with pytest.raises(EmptyMention):
                search(loaded, key, 20)
            continue
        assert search(loaded, key, 20) == want, key
        assert loaded.postings(key) == small_kb.index.postings(key)


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


@pytest.mark.parametrize("enabled", [True, False])
def test_a_failed_build_leaves_the_gc_as_it_was(enabled):
    def records():
        yield rec("Q1", "measles")
        raise ValueError("bad record")

    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        with pytest.raises(ValueError, match="bad record"):
            Index(records())
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_a_saved_blob_hashes_to_the_build_id_built_or_loaded(tmp_path,
                                                            small_index):
    save_index(small_index, tmp_path / "built")
    blob = (tmp_path / "built" / tablink.index.BLOB_NAME).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == small_index.build_id
    assert blob == marshal.dumps(tuple(small_index._tables), 2)
    save_index(load_index(tmp_path / "built"), tmp_path / "loaded")
    for name in (tablink.index.BLOB_NAME, tablink.index.MANIFEST_NAME):
        assert (tmp_path / "loaded" / name).read_bytes() == \
            (tmp_path / "built" / name).read_bytes()


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_every_row_list_is_a_read_only_view_of_one_flat_column(tmp_path,
                                                              small_index,
                                                              source):
    index = small_index
    if source == "loaded":
        save_index(small_index, tmp_path / "idx")
        index = load_index(tmp_path / "idx")
    t = index._tables
    views = [c for c in t if type(c) is memoryview]
    assert len(views) == 9
    assert all(v.readonly and type(v.obj) is bytes for v in views)
    assert all(type(s) is str for s in t.ids + t.keys)
    at = t.keys.index("measles")
    rows = tablink.index._entry(t.label_rows, t.label_ends, at)
    assert type(rows) is memoryview and rows.obj is t.label_rows.obj
    assert index.postings("measles") == (0, 2, 3, 4, 6)


@pytest.mark.parametrize("field, value, message", [
    ("direct_types", [["Q5"]], "not a Q/P identifier: ['Q5']"),
    ("direct_types", ["P5"], "direct types must be item ids"),
    ("flagged_props", [7], "not a Q/P identifier: 7"),
])
def test_records_and_direct_types_refuse_malformed_ids_alike(tmp_path, field, value,
                                                       message):
    good = {"id": "Q1", "label": "a", "direct_types": ["Q5"]}
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good) + "\n"
                    + json.dumps({**good, "id": "Q2", field: value}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match=r"records\.jsonl:2: .*" + re.escape(message)):
        list(read_records(path))
    if field == "direct_types":
        with pytest.raises(ParseError, match=re.escape(message)):
            list(read_direct_types(path))
    else:
        assert list(read_direct_types(path)) == [(q("Q5"),)] * 2


def test_no_row_is_in_both_a_keys_label_and_alias_entries(small_kb):
    # search() takes a key's alias rows without checking them against its
    # label rows; this invariant is what makes that safe.
    t = small_kb.index._tables
    entry = tablink.index._entry
    both = 0
    for at, key in enumerate(t.keys):
        labels = set(entry(t.label_rows, t.label_ends, at))
        aliases = set(entry(t.alias_rows, t.alias_ends, at))
        assert labels.isdisjoint(aliases), key
        both += bool(labels and aliases)
    assert both
    # It holds because a record keeps no alias that normalizes to its label.
    index = Index([ItemRecord(q("Q1"), "Alpha", ("ALPHA", " alpha "))])
    assert [c.match_tier for c in search(index, "alpha", 5)] == ["exact_label"]
