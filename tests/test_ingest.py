import bz2
import contextlib
import gzip
import json
import lzma
import os
import threading
import tracemalloc

import pytest

import tablink.ingest
from tablink import (
    EntityId,
    InvalidEntityId,
    ParseError,
    ingest_dump,
    parse_entity_doc,
)
from tablink.cli import main
from tablink.ingest import strip_decoration
from tablink.kb import read_edges, read_records

q = EntityId.parse


def doc(eid, label=None, claims=None, aliases=None, description=None,
        sitelinks=0, lang="en"):
    d = {"id": eid, "type": "property" if eid.startswith("P") else "item"}
    if label is not None:
        d["labels"] = {lang: {"language": lang, "value": label}}
    if aliases:
        d["aliases"] = {"en": [{"language": "en", "value": a} for a in aliases]}
    if description:
        d["descriptions"] = {"en": {"language": "en", "value": description}}
    if claims:
        d["claims"] = claims
    if sitelinks:
        d["sitelinks"] = {f"s{i}": {"title": label} for i in range(sitelinks)}
    return d


def claim(prop, target, rank="normal", numeric=False):
    if numeric:
        tid = q(target)
        value = {"entity-type": tid.kind, "numeric-id": tid.num}
    else:
        value = {"id": target}
    return {"mainsnak": {"snaktype": "value", "property": prop,
                         "datavalue": {"type": "wikibase-entityid",
                                       "value": value}},
            "rank": rank}


def test_basic_record_fields():
    record, edges = parse_entity_doc(doc(
        "Q5", "human", claims={"P31": [claim("P31", "Q215627")]},
        aliases=["person", "human being"], description="individual",
        sitelinks=3))
    assert record.id == q("Q5")
    assert record.label == "human"
    assert record.aliases == ("person", "human being")
    assert record.description == "individual"
    assert record.direct_types == (q("Q215627"),)
    assert record.sitelinks_count == 3
    assert edges == []


def test_no_english_label_skipped_but_edges_kept():
    record, edges = parse_entity_doc(doc(
        "Q77", "Masern", lang="de",
        claims={"P279": [claim("P279", "Q18123741")]}))
    assert record is None
    assert len(edges) == 1
    assert edges[0].child == q("Q77")
    assert edges[0].parent == q("Q18123741")
    assert edges[0].relation == "subclass_of"


def test_blank_label_counts_as_missing():
    record, _ = parse_entity_doc(doc("Q1", "   "))
    assert record is None


def test_deprecated_claims_are_ignored():
    record, edges = parse_entity_doc(doc(
        "Q9", "thing", claims={
            "P31": [claim("P31", "Q11424", rank="deprecated"),
                    claim("P31", "Q151885")],
            "P279": [claim("P279", "Q2", rank="deprecated")],
        }))
    assert record.direct_types == (q("Q151885"),)
    assert edges == []


def test_novalue_and_string_datavalues_contribute_nothing():
    claims = {
        "P31": [{"mainsnak": {"snaktype": "novalue", "property": "P31"},
                 "rank": "normal"},
                {"mainsnak": {"snaktype": "value", "property": "P31",
                              "datavalue": {"type": "string", "value": "x"}},
                 "rank": "normal"}],
    }
    record, edges = parse_entity_doc(doc("Q9", "thing", claims=claims))
    assert record.direct_types == ()
    assert edges == []


def test_numeric_id_claim_form():
    record, _ = parse_entity_doc(doc(
        "Q9", "thing", claims={"P31": [claim("P31", "Q42", numeric=True)]}))
    assert record.direct_types == (q("Q42"),)


def test_property_valued_p31_targets_are_filtered():
    record, _ = parse_entity_doc(doc(
        "Q9", "thing", claims={"P31": [claim("P31", "P1000")]}))
    assert record.direct_types == ()


def test_subproperty_edges_only_for_properties():
    _, edges = parse_entity_doc(doc(
        "P2", "part", claims={"P1647": [claim("P1647", "P3")]}))
    assert edges and edges[0].relation == "subproperty_of"
    # P1647 on an item and P279 on a property are both ignored.
    _, edges = parse_entity_doc(doc(
        "Q2", "x", claims={"P1647": [claim("P1647", "P3")]}))
    assert edges == []
    _, edges = parse_entity_doc(doc(
        "P2", "x", claims={"P279": [claim("P279", "Q3")]}))
    assert edges == []


def test_watchlist_flags_only_live_statements():
    watch = frozenset({q("P486"), q("P685")})
    claims = {
        "P486": [{"mainsnak": {"snaktype": "value", "property": "P486",
                               "datavalue": {"type": "string", "value": "D1"}},
                  "rank": "normal"}],
        "P685": [{"mainsnak": {"snaktype": "value", "property": "P685",
                               "datavalue": {"type": "string", "value": "2"}},
                  "rank": "deprecated"}],
    }
    record, _ = parse_entity_doc(doc("Q9", "thing", claims=claims), watch)
    assert record.flagged_props == frozenset({q("P486")})


@pytest.mark.parametrize("bad", [
    {"labels": {"en": {"value": "no id"}}},
    {"id": "X5", "labels": {"en": {"value": "bad id"}}},
    {"id": "Q5", "claims": "not-an-object"},
    {"id": "Q5", "labels": {"en": {"value": "x"}},
     "claims": {"P31": "not-a-list"}},
    {"id": "Q5", "labels": {"en": {"value": "x"}},
     "claims": {"P31": [{"mainsnak": {"snaktype": "value",
         "datavalue": {"type": "wikibase-entityid", "value": "Q1"}}}]}},
    {"id": "Q5", "sitelinks": 3, "labels": {"en": {"value": "x"}}},
    "not even an object",
])
def test_malformed_documents_raise_parse_error(bad):
    with pytest.raises(ParseError):
        parse_entity_doc(bad)


def _entity_value(value):
    return {"mainsnak": {"snaktype": "value",
                         "datavalue": {"type": "wikibase-entityid",
                                       "value": value}}}


@pytest.mark.parametrize("bad", [
    # English text of the wrong JSON type: build-index would refuse the
    # record line, and a string of aliases would be read letter by letter.
    {"id": "Q5", "labels": {"en": {"value": "x"}},
     "descriptions": {"en": {"value": 5}}},
    {"id": "Q5", "labels": {"en": {"value": "x"}},
     "descriptions": {"en": {"value": None}}},
    {"id": "Q5", "labels": {"en": {"value": "x"}},
     "aliases": {"en": "rubeola"}},
    {"id": "Q5", "labels": {"en": {"value": "x"}},
     "aliases": {"en": {"value": "rubeola"}}},
])
def test_english_text_of_the_wrong_type_is_malformed(bad):
    with pytest.raises(ParseError):
        parse_entity_doc(bad)


@pytest.mark.parametrize("field, value", [
    # An alias that is not an object would be dropped, a description string
    # read as no description, and a label string as no English label.
    ("aliases", {"en": ["rubeola"]}),
    ("descriptions", {"en": "a disease"}),
    ("labels", {"en": "measles"}),
])
def test_english_fields_of_the_wrong_shape_count_as_parse_errors(
        tmp_path, field, value):
    bad = doc("Q5", "measles", aliases=["morbilli"], description="an illness")
    bad[field] = value
    dump = tmp_path / "dump.jsonl"
    _write_dump(dump, [json.dumps(bad)])
    stats = ingest_dump(dump, tmp_path / "r.jsonl", tmp_path / "e.jsonl")
    assert (stats.docs_seen, stats.parse_errors, stats.records_emitted,
            stats.skipped_no_label) == (1, 1, 0, 0)
    assert (tmp_path / "r.jsonl").read_bytes() == b""


@pytest.mark.parametrize("prop, eid, value", [
    ("P31", "Q5", {"numeric-id": True}),
    ("P31", "Q5", {"numeric-id": 7.9}),
    ("P31", "Q5", {"numeric-id": "12"}),
    ("P31", "Q5", {"entity-type": "item", "numeric-id": 12.0}),
    ("P279", "Q5", {"entity-type": "lexeme", "numeric-id": 5}),
    ("P279", "Q5", {"entity-type": None, "numeric-id": 5}),
    ("P1647", "P9", {"entity-type": "lexeme", "numeric-id": 5}),
    ("P1647", "P9", {"entity-type": 5, "numeric-id": 5}),
])
def test_claim_targets_are_not_coerced(prop, eid, value):
    # Each of these once read as some Q or P id (true as Q1, 7.9 as Q7, a
    # lexeme as a property); now the document is malformed.
    bad = {"id": eid, "labels": {"en": {"value": "x"}},
           "claims": {prop: [_entity_value(value)]}}
    with pytest.raises(ParseError):
        parse_entity_doc(bad)


def test_numeric_id_claims_of_either_kind_still_read():
    record, _ = parse_entity_doc({
        "id": "Q5", "labels": {"en": {"value": "x"}},
        "claims": {"P31": [_entity_value({"numeric-id": 42})]}})
    assert record.direct_types == (q("Q42"),)
    _, edges = parse_entity_doc({
        "id": "P9", "labels": {"en": {"value": "x"}},
        "claims": {"P1647": [_entity_value(
            {"entity-type": "property", "numeric-id": 5})]}})
    assert [(e.child, e.parent) for e in edges] == [(q("P9"), q("P5"))]


def test_ingest_writes_only_records_build_index_reads(tmp_path):
    lines = [
        json.dumps(doc("Q1", "alpha", description="first")),
        json.dumps({"id": "Q2", "labels": {"en": {"value": "beta"}},
                    "descriptions": {"en": {"value": 5}}}),
        json.dumps({"id": "Q3", "labels": {"en": {"value": "gamma"}},
                    "aliases": {"en": "rubeola"}}),
    ]
    dump = tmp_path / "dump.jsonl"
    _write_dump(dump, lines)
    stats = ingest_dump(dump, tmp_path / "r.jsonl", tmp_path / "e.jsonl")
    assert (stats.records_emitted, stats.parse_errors) == (1, 2)
    assert [r.id for r in read_records(tmp_path / "r.jsonl")] == [q("Q1")]


def test_strip_decoration_variants():
    assert strip_decoration("[\n") == ""
    assert strip_decoration("]\n") == ""
    assert strip_decoration('{"id":1},\n') == '{"id":1}'
    assert strip_decoration('[{"id":1},') == '{"id":1}'
    assert strip_decoration('{"id":1}]') == '{"id":1}'
    assert strip_decoration("  ") == ""


def _write_dump(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_counts_and_outputs(tmp_path):
    lines = [
        "[",
        json.dumps(doc("Q1", "alpha",
                       claims={"P31": [claim("P31", "Q10")]})) + ",",
        json.dumps(doc("Q2", "Beta", lang="de",
                       claims={"P279": [claim("P279", "Q10")]})) + ",",
        ".!garbage!.",
        json.dumps(doc("Q3", "gamma", sitelinks=2)) + ",",
        '{"id":"Q4"},',
        "]",
    ]
    dump = tmp_path / "dump.jsonl"
    _write_dump(dump, lines)
    stats = ingest_dump(dump, tmp_path / "r.jsonl", tmp_path / "e.jsonl")
    assert stats.docs_seen == 5
    assert stats.records_emitted == 2
    assert stats.skipped_no_label == 2  # unlabeled Q2 and label-less Q4
    assert stats.parse_errors == 1
    assert stats.edges_emitted == 1
    records = list(read_records(tmp_path / "r.jsonl"))
    assert [r.id.raw for r in records] == ["Q1", "Q3"]
    edges = list(read_edges(tmp_path / "e.jsonl"))
    assert len(edges) == 1 and edges[0].child == q("Q2")


def test_ingest_counts_a_line_that_is_not_utf8_as_a_parse_error(tmp_path):
    lines = [
        "[",
        json.dumps(doc("Q1", "alpha",
                       claims={"P279": [claim("P279", "Q10")]})) + ",",
        json.dumps(doc("Q3", "gamma", sitelinks=2)) + ",",
        "]",
    ]
    clean = tmp_path / "clean.jsonl"
    _write_dump(clean, lines)
    dirty = tmp_path / "dirty.jsonl"
    raw = [line.encode() for line in lines]
    bad = json.dumps(doc("Q2", "beta")).encode().replace(b"beta", b"b\xfft")
    dirty.write_bytes(b"\n".join(raw[:2] + [bad + b","] + raw[2:]) + b"\n")

    want = ingest_dump(clean, tmp_path / "r0.jsonl", tmp_path / "e0.jsonl")
    got = ingest_dump(dirty, tmp_path / "r1.jsonl", tmp_path / "e1.jsonl")
    assert got.docs_seen == want.docs_seen + 1
    assert got.parse_errors == want.parse_errors + 1 == 1
    assert (got.records_emitted, got.skipped_no_label, got.edges_emitted) == \
        (want.records_emitted, want.skipped_no_label, want.edges_emitted) == \
        (2, 0, 1)
    for name in ("r", "e"):
        assert (tmp_path / f"{name}1.jsonl").read_bytes() == \
            (tmp_path / f"{name}0.jsonl").read_bytes()


def test_ingest_memory_is_bounded_by_a_line_not_the_dump(tmp_path):
    # Each document carries a long description, so holding the dump's lines
    # at once would cost several times the tracked peak allowed below.
    lines = ["["]
    for i in range(1, 2001):
        lines.append(json.dumps(doc(f"Q{i}", f"item {i}",
                                    description="d" * 1500,
                                    claims={"P279": [claim("P279", "Q1")]}))
                     + ",")
    lines.append("]")
    dump = tmp_path / "dump.jsonl"
    _write_dump(dump, lines)
    size = dump.stat().st_size
    assert size > 3_000_000

    tracemalloc.start()
    try:
        stats = ingest_dump(dump, tmp_path / "r.jsonl", tmp_path / "e.jsonl")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.records_emitted == 2000 and stats.edges_emitted == 2000
    assert peak < size / 20, f"peak {peak} B for a {size} B dump"


def test_ingest_stats_match_generator_truth(small_kb):
    counts = small_kb.truth["counts"]
    assert len(small_kb.records) == counts["labeled"]
    flagged = {r.id.raw: sorted(p.raw for p in r.flagged_props)
               for r in small_kb.records if r.flagged_props}
    assert flagged == {k: sorted(v)
                       for k, v in small_kb.truth["flagged"].items()}


# --- watchlist checks ---------------------------------------------------------

@pytest.mark.parametrize("statements", ["oops", {"a": 1}, [1, 2]])
def test_a_watched_property_of_the_wrong_shape_is_malformed(tmp_path,
                                                            statements):
    bad = doc("Q5", "measles", claims={"P50001": statements})
    with pytest.raises(ParseError, match="statement is not an object"):
        parse_entity_doc(bad, frozenset({q("P50001")}))
    dump = tmp_path / "dump.jsonl"
    _write_dump(dump, [json.dumps(bad)])
    stats = ingest_dump(dump, tmp_path / "r.jsonl", tmp_path / "e.jsonl",
                        [q("P50001")])
    assert (stats.docs_seen, stats.parse_errors) == (1, 1)


def test_an_item_id_in_the_watchlist_is_refused(tmp_path, capsys):
    dump = tmp_path / "dump.jsonl"
    _write_dump(dump, [json.dumps(doc("Q1", "alpha"))])
    with pytest.raises(InvalidEntityId, match="Q5 is not a property id"):
        ingest_dump(dump, tmp_path / "r.jsonl", tmp_path / "e.jsonl",
                    [q("Q5"), q("P50001")])
    assert not (tmp_path / "r.jsonl").exists()
    assert main(["ingest", "--dump", str(dump),
                 "--out-records", str(tmp_path / "r.jsonl"),
                 "--out-edges", str(tmp_path / "e.jsonl"),
                 "--watchlist", "Q5,P50001"]) == 1
    assert "error: watchlist id Q5 is not a property id" in capsys.readouterr().err


@pytest.mark.parametrize("module, name, tool", [
    (gzip, "gzip", "zcat"), (bz2, "bzip2", "bzcat"), (lzma, "xz", "xzcat")])
@pytest.mark.parametrize("through_fifo", [False, True])
def test_a_compressed_dump_is_refused_before_any_output(
        tmp_path, capsys, small_kb, module, name, tool, through_fifo):
    data = module.compress(small_kb.result.dump_path.read_bytes())
    dump = tmp_path / "dump.jsonl.z"
    writer = None
    if through_fifo:
        os.mkfifo(dump)
        writer = threading.Thread(target=_feed, args=(dump, data))
        writer.start()
    else:
        dump.write_bytes(data)
    try:
        assert main(["ingest", "--dump", str(dump),
                     "--out-records", str(tmp_path / "r.jsonl"),
                     "--out-edges", str(tmp_path / "e.jsonl")]) == 1
    finally:
        if writer:
            writer.join(timeout=60)
    assert capsys.readouterr().err == (
        f"error: {dump}: a {name}-compressed dump; decompress it first, "
        f"for example: {tool} {dump} | tablink ingest --dump /dev/stdin\n")
    assert not (tmp_path / "r.jsonl").exists()
    assert not (tmp_path / "e.jsonl").exists()


def _feed(fifo, data):
    """Write data into fifo; the reader may close it before it is read."""
    with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fp:
        fp.write(data)


# --- sharded ingest -----------------------------------------------------------

def _shard_lines(n_docs):
    """Dump lines, each doc about 1.5 KB, with every kind of line ingest
    counts or skips: decoration, non-UTF-8, malformed JSON, unlabeled docs,
    edges of both kinds and watched properties."""
    lines = []
    for i in range(1, n_docs + 1):
        if i % 97 == 0:
            lines.append(b"{not json},")
        elif i % 89 == 0:
            lines.append(json.dumps(doc(f"Q{i}", "beta")).encode()
                         .replace(b"beta", b"b\xfft") + b",")
        elif i % 83 == 0:
            lines.append(json.dumps(doc(f"Q{i}", f"item {i}", lang="de",
                                        claims={"P279": [claim("P279", "Q7")]}))
                         .encode() + b",")
        elif i % 79 == 0:
            lines.append(json.dumps(doc(f"P{i}", f"prop {i}", claims={
                "P1647": [claim("P1647", "P3")]})).encode() + b",")
        else:
            claims = {"P31": [claim("P31", f"Q{i % 13 + 1}")]}
            if i % 5 == 0:
                claims["P279"] = [claim("P279", f"Q{i % 7 + 1}")]
            if i % 3 == 0:
                claims["P50001"] = [claim("P50001", "Q1")]
            lines.append(json.dumps(doc(
                f"Q{i}", f"item {i}", claims=claims, aliases=[f"alias {i}"],
                description="d" * (1000 + i % 500), sitelinks=i % 4)
            ).encode() + b",")
    return [line + b"\n" for line in lines] + [b"]\n"]


def _dump_cut(lines, ranges, on_line_start):
    """The lines after a "[" line padded with spaces (decoration, so no
    document), padded until the first nominal range cut, size // ranges,
    falls on a line start or inside a line, as asked."""
    body = b"".join(lines)
    for pad in range(4096):
        head = b"[" + b" " * pad + b"\n"
        cut = (len(head) + len(body)) // ranges
        if (body[cut - len(head) - 1] == ord("\n")) == on_line_start:
            return head + body
    raise AssertionError("no padding puts the cut where asked")


def _ingest(monkeypatch, dump, out, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    out.mkdir()
    stats = ingest_dump(dump, out / "r.jsonl", out / "e.jsonl", [q("P50001")])
    return stats, (out / "r.jsonl").read_bytes(), (out / "e.jsonl").read_bytes()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture(scope="module")
def shard_lines():
    return _shard_lines(2400)


@pytest.mark.parametrize("ranges, on_line_start", [
    (2, True), (2, False), (3, True), (3, False)])
def test_sharded_ingest_writes_what_one_pass_writes(tmp_path, monkeypatch,
                                                    shard_lines, ranges,
                                                    on_line_start):
    dump = tmp_path / "in" / "dump.jsonl"
    dump.parent.mkdir()
    dump.write_bytes(_dump_cut(shard_lines, ranges, on_line_start))
    assert dump.stat().st_size >= ranges * tablink.ingest._MIN_RANGE
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    inline = _ingest(monkeypatch, dump, tmp_path / "inline", cpus=1)
    assert forks == []
    sharded = _ingest(monkeypatch, dump, tmp_path / "sharded", cpus=ranges)
    assert len(forks) == ranges - 1
    assert sharded == inline
    stats = inline[0]
    assert stats.parse_errors == 2400 // 97 + 2400 // 89 - 2400 // (97 * 89)
    assert stats.skipped_no_label > 0 and stats.edges_emitted > 0
    assert b'"flagged_props":["P50001"]' in inline[1]
    assert _no_child_left()
    assert sorted(p.name for p in (tmp_path / "sharded").iterdir()) == \
        ["e.jsonl", "r.jsonl"]


def test_a_small_dump_or_a_fifo_is_ingested_without_forking(
        tmp_path, monkeypatch, shard_lines):
    def no_fork():
        raise AssertionError("ingest forked")

    data = b"[\n" + b"".join(shard_lines)
    small = tmp_path / "small.jsonl"
    small.write_bytes(data[:2 * tablink.ingest._MIN_RANGE - 1].rpartition(b"\n")[0])
    big = tmp_path / "big.jsonl"
    big.write_bytes(data)
    want = _ingest(monkeypatch, big, tmp_path / "want", cpus=1)

    monkeypatch.setattr(os, "fork", no_fork)
    assert _ingest(monkeypatch, small, tmp_path / "small", cpus=4)[0] \
        .docs_seen > 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        assert _ingest(monkeypatch, fifo, tmp_path / "fifo-out", cpus=4) == want
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()


@pytest.mark.parametrize("fail_on, error", [
    ("Q1", RuntimeError),            # in this process's own range
    ("Q2399", ChildProcessError),    # in a forked child's range
])
def test_a_failed_sharded_ingest_leaves_no_child_and_no_temp_file(
        tmp_path, monkeypatch, shard_lines, fail_on, error):
    dump = tmp_path / "dump.jsonl"
    dump.write_bytes(b"[\n" + b"".join(shard_lines))
    parse = tablink.ingest.parse_entity_doc

    def failing(obj, watch):
        if obj.get("id") == fail_on:
            raise RuntimeError(f"cannot parse {fail_on}")
        return parse(obj, watch)

    monkeypatch.setattr(tablink.ingest, "parse_entity_doc", failing)
    with pytest.raises(error, match=f"cannot parse {fail_on}"):
        _ingest(monkeypatch, dump, tmp_path / "out", cpus=2)
    assert _no_child_left()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
        ["e.jsonl", "r.jsonl"]
