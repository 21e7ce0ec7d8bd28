import hashlib
import json

from tablink import (
    EntityId,
    Index,
    ItemRecord,
    LinkCache,
    TypeEdge,
    build_closure,
    cached_link,
    link,
    parse_config_obj,
    read_closure,
    validate_config,
    write_closure,
)

q = EntityId.parse


def rec(eid, label, types=(), sitelinks=0):
    return ItemRecord(id=q(eid), label=label,
                      direct_types=tuple(q(t) for t in types),
                      sitelinks_count=sitelinks)


def cfg(extra_params=None):
    obj = {
        "type_dictionary": {"good-type": ["Q100"]},
        "tiers": {"good": ["good-type"]},
    }
    if extra_params:
        obj["params"] = extra_params
    return validate_config(parse_config_obj(obj))


CONFIG = cfg()
CLOSURE = build_closure([])


def make_index():
    return Index([
        rec("Q1", "alpha", types=["Q100"], sitelinks=10),
        rec("Q2", "alpha", sitelinks=5),
        rec("Q3", "beta", sitelinks=2),
    ])


def test_cache_is_transparent_and_counts():
    index = make_index()
    cache = LinkCache()
    mentions = ["alpha", "beta", "alpha", "  ALPHA  ", "beta"]
    for mention in mentions:
        plain = link(mention, "cell", index, CLOSURE, CONFIG)
        via_cache = cached_link(mention, "cell", index, CLOSURE, CONFIG,
                                cache=cache)
        assert via_cache == plain
    # alpha, beta computed once each; the three later calls normalize to the
    # same keys and hit.
    assert cache.misses == 2
    assert cache.hits == 3


def test_no_cache_passthrough():
    index = make_index()
    assert cached_link("alpha", "cell", index, CLOSURE, CONFIG) == \
        link("alpha", "cell", index, CLOSURE, CONFIG)


def test_disk_persistence_across_instances(tmp_path):
    index = make_index()
    first = LinkCache(tmp_path / "cache")
    result = cached_link("alpha", "cell", index, CLOSURE, CONFIG, cache=first)
    assert first.misses == 1
    key = LinkCache.key("alpha", "cell", None, None, CONFIG, index.build_id, CLOSURE)
    assert (tmp_path / "cache" / f"{key}.json").is_file()

    second = LinkCache(tmp_path / "cache")
    again = cached_link("alpha", "cell", index, CLOSURE, CONFIG, cache=second)
    assert second.hits == 1 and second.misses == 0
    assert again == result


def test_corrupt_disk_entry_degrades_to_computation(tmp_path):
    index = make_index()
    key = LinkCache.key("alpha", "cell", None, None, CONFIG, index.build_id, CLOSURE)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / f"{key}.json").write_text("{not json", encoding="utf-8")
    cache = LinkCache(cache_dir)
    result = cached_link("alpha", "cell", index, CLOSURE, CONFIG, cache=cache)
    assert result == link("alpha", "cell", index, CLOSURE, CONFIG)
    assert cache.misses == 1


def test_unusable_cache_dir_falls_back_to_memory(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    cache = LinkCache(blocker)
    assert cache.cache_dir is None
    index = make_index()
    result = cached_link("alpha", "cell", index, CLOSURE, CONFIG, cache=cache)
    assert result == link("alpha", "cell", index, CLOSURE, CONFIG)


def test_key_normalizes_inputs():
    index = make_index()
    base = LinkCache.key("alpha", "cell", None, None, CONFIG, index.build_id, CLOSURE)
    assert LinkCache.key(" ALPHA ", "cell", None, None, CONFIG,
                         index.build_id, CLOSURE) == base
    assert LinkCache.key("alpha", "cell", "", None, CONFIG,
                         index.build_id, CLOSURE) == base
    assert LinkCache.key("alpha", "cell", None, [], CONFIG,
                         index.build_id, CLOSURE) == base
    a = LinkCache.key("alpha", "cell", None, ["x", "y"], CONFIG, index.build_id, CLOSURE)
    b = LinkCache.key("alpha", "cell", None, ["y", "x", "x"], CONFIG,
                      index.build_id, CLOSURE)
    assert a == b


def test_key_separates_every_input():
    index = make_index()
    base = LinkCache.key("alpha", "cell", None, None, CONFIG, index.build_id, CLOSURE)
    variants = [
        LinkCache.key("beta", "cell", None, None, CONFIG, index.build_id, CLOSURE),
        LinkCache.key("alpha", "header", None, None, CONFIG, index.build_id, CLOSURE),
        LinkCache.key("alpha", "cell", "some context", None, CONFIG,
                      index.build_id, CLOSURE),
        LinkCache.key("alpha", "cell", None, ["good-type"], CONFIG,
                      index.build_id, CLOSURE),
        LinkCache.key("alpha", "cell", None, None, CONFIG, "other-build",
                      CLOSURE),
        LinkCache.key("alpha", "cell", None, None,
                      cfg({"min_link_score": 0.5}), index.build_id, CLOSURE),
        LinkCache.key("alpha", "cell", None, None, CONFIG, index.build_id,
                      build_closure([TypeEdge(q("Q200"), q("Q100"),
                                              "subclass_of")])),
    ]
    assert len({base, *variants}) == 8


def test_stale_entries_are_keyed_away_not_returned(tmp_path):
    # Same mention against two different indexes sharing one cache dir must
    # never cross-contaminate.
    cache = LinkCache(tmp_path / "cache")
    index_a = make_index()
    index_b = Index([rec("Q9", "alpha", sitelinks=1)])
    a = cached_link("alpha", "cell", index_a, CLOSURE, CONFIG, cache=cache)
    b = cached_link("alpha", "cell", index_b, CLOSURE, CONFIG, cache=cache)
    assert a.chosen.record.id.raw == "Q1"
    assert b.chosen.record.id.raw == "Q9"
    assert cache.misses == 2


def test_reused_cache_dir_sees_a_changed_closure(tmp_path):
    # Q1's type Q200 is not good until the closure gains Q200 below Q100.
    index = Index([rec("Q1", "alpha", types=["Q200"], sitelinks=1)])
    grown = build_closure([TypeEdge(q("Q200"), q("Q100"), "subclass_of")])
    before = cached_link("alpha", "cell", index, CLOSURE, CONFIG,
                         cache=LinkCache(tmp_path / "cache"))
    assert before.chosen.type_tier == "UNKNOWN"
    after = cached_link("alpha", "cell", index, grown, CONFIG,
                        cache=LinkCache(tmp_path / "cache"))
    assert after.chosen.type_tier == "GOOD"
    assert after == link("alpha", "cell", index, grown, CONFIG)


def test_closure_digest_is_the_written_file_hash(tmp_path):
    closure = build_closure([TypeEdge(q("Q200"), q("Q100"), "subclass_of"),
                             TypeEdge(q("Q300"), q("Q200"), "subclass_of")])
    path = tmp_path / "closure.txt"
    write_closure(path, closure)
    assert closure.digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert read_closure(path).digest == closure.digest
    assert CLOSURE.digest != closure.digest


def test_disk_entry_holds_ids_not_record_text(tmp_path):
    index = Index([
        ItemRecord(id=q("Q7"), label="zanzibar red colobus",
                   aliases=("kirk colobus monkey",),
                   description="primate endemic to unguja island",
                   direct_types=(q("Q100"),), sitelinks_count=3),
        rec("Q8", "black and white colobus", sitelinks=2),
    ])
    cache = LinkCache(tmp_path / "cache")
    result = cached_link("colobus", "cell", index, CLOSURE, CONFIG,
                         cache=cache)
    assert {c.record.id.raw for c in result.candidates} == {"Q7", "Q8"}
    [entry] = (tmp_path / "cache").iterdir()
    text = entry.read_text(encoding="utf-8")
    for fragment in ("zanzibar red colobus", "kirk colobus monkey",
                     "unguja", "black and white colobus"):
        assert fragment not in text
    assert [c["id"] for c in json.loads(text)["candidates"]] == \
        [c.record.id.raw for c in result.candidates]
    again = cached_link("colobus", "cell", index, CLOSURE, CONFIG,
                        cache=LinkCache(tmp_path / "cache"))
    assert again == result


def test_entry_naming_an_unknown_id_is_recomputed(tmp_path):
    index = make_index()
    cache_dir = tmp_path / "cache"
    cached_link("alpha", "cell", index, CLOSURE, CONFIG,
                cache=LinkCache(cache_dir))
    [entry] = cache_dir.iterdir()
    obj = json.loads(entry.read_text(encoding="utf-8"))
    obj["candidates"][0]["id"] = "Q999"
    entry.write_text(json.dumps(obj), encoding="utf-8")
    cache = LinkCache(cache_dir)
    result = cached_link("alpha", "cell", index, CLOSURE, CONFIG, cache=cache)
    assert result == link("alpha", "cell", index, CLOSURE, CONFIG)
    assert cache.misses == 1 and cache.hits == 0
