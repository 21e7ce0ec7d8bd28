import hashlib
import random

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
    return parse_config_obj(obj)


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


def test_key_normalizes_inputs():
    index = make_index()
    key = LinkCache().key
    base = key("alpha", "cell", None, None, CONFIG, index.build_id, CLOSURE)
    assert key(" ALPHA ", "cell", None, None, CONFIG,
               index.build_id, CLOSURE) == base
    assert key("alpha", "cell", "", None, CONFIG,
               index.build_id, CLOSURE) == base
    assert key("alpha", "cell", None, [], CONFIG,
               index.build_id, CLOSURE) == base
    a = key("alpha", "cell", None, ["x", "y"], CONFIG, index.build_id, CLOSURE)
    b = key("alpha", "cell", None, ["y", "x", "x"], CONFIG,
            index.build_id, CLOSURE)
    assert a == b


def test_key_separates_every_input():
    index = make_index()
    key = LinkCache().key
    base = key("alpha", "cell", None, None, CONFIG, index.build_id, CLOSURE)
    variants = [
        key("beta", "cell", None, None, CONFIG, index.build_id, CLOSURE),
        key("alpha", "header", None, None, CONFIG, index.build_id, CLOSURE),
        key("alpha", "cell", "some context", None, CONFIG,
            index.build_id, CLOSURE),
        key("alpha", "cell", None, ["good-type"], CONFIG,
            index.build_id, CLOSURE),
        key("alpha", "cell", None, None, CONFIG, "other-build", CLOSURE),
        key("alpha", "cell", None, None,
            cfg({"min_link_score": 0.5}), index.build_id, CLOSURE),
        key("alpha", "cell", None, None, CONFIG, index.build_id,
            build_closure([TypeEdge(q("Q200"), q("Q100"), "subclass_of")])),
    ]
    assert len({base, *variants}) == 8


def test_stale_entries_are_keyed_away_not_returned():
    # Same mention against two different indexes sharing one cache must
    # never cross-contaminate.
    cache = LinkCache()
    index_a = make_index()
    index_b = Index([rec("Q9", "alpha", sitelinks=1)])
    a = cached_link("alpha", "cell", index_a, CLOSURE, CONFIG, cache=cache)
    b = cached_link("alpha", "cell", index_b, CLOSURE, CONFIG, cache=cache)
    assert a.chosen.record.id.raw == "Q1"
    assert b.chosen.record.id.raw == "Q9"
    assert cache.misses == 2


def test_shared_cache_sees_a_changed_closure():
    # Q1's type Q200 is not good until the closure gains Q200 below Q100.
    index = Index([rec("Q1", "alpha", types=["Q200"], sitelinks=1)])
    grown = build_closure([TypeEdge(q("Q200"), q("Q100"), "subclass_of")])
    cache = LinkCache()
    before = cached_link("alpha", "cell", index, CLOSURE, CONFIG, cache=cache)
    assert before.chosen.type_tier == "UNKNOWN"
    after = cached_link("alpha", "cell", index, grown, CONFIG, cache=cache)
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


# Four distinct keys over make_index().
LOOKUPS = [("alpha", "cell"), ("beta", "cell"), ("alpha", "header"),
           ("beta", "header")]


def link_all(index, cache):
    for mention, mode in LOOKUPS:
        assert cached_link(mention, mode, index, CLOSURE, CONFIG,
                           cache=cache) == \
            link(mention, mode, index, CLOSURE, CONFIG)


def test_cache_dir_is_created_and_left_empty(tmp_path):
    cache = LinkCache(tmp_path / "cache")
    link_all(make_index(), cache)
    assert cache.misses == len(LOOKUPS)
    assert list((tmp_path / "cache").iterdir()) == []


def test_unusable_cache_dir_falls_back_to_memory(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    cache = LinkCache(blocker)
    index = make_index()
    result = cached_link("alpha", "cell", index, CLOSURE, CONFIG, cache=cache)
    assert result == link("alpha", "cell", index, CLOSURE, CONFIG)
    assert blocker.read_text(encoding="utf-8") == "a file, not a directory"


def test_files_left_in_the_cache_dir_are_neither_read_nor_changed(tmp_path):
    # A links.jsonl left by an older version claims a wrong answer for every
    # key; no cache over that dir returns it, and each cache starts empty.
    old = tmp_path / "links.jsonl"
    old.write_text('{"key": "any", "chosen": "Q3"}\n', encoding="utf-8")
    for _ in range(2):
        cache = LinkCache(tmp_path)
        link_all(make_index(), cache)
        assert (cache.hits, cache.misses) == (0, len(LOOKUPS))
    assert old.read_text(encoding="utf-8") == '{"key": "any", "chosen": "Q3"}\n'
    assert [f.name for f in tmp_path.iterdir()] == ["links.jsonl"]


def test_shared_cache_is_transparent_across_random_changes():
    # Variants of the closure (edges added), the config (threshold, header
    # boost) and the index (records dropped or added) share one cache, so
    # every hit relies on the key pinning all three.
    rng = random.Random(0xCAC4E)
    words = ["alpha", "beta", "gamma", "delta", "omega"]
    types = [q(f"Q{100 + i}") for i in range(6)]

    def random_record(raw):
        return ItemRecord(
            id=q(raw), label=" ".join(rng.sample(words, rng.randint(1, 2))),
            direct_types=tuple(rng.sample(types, rng.randint(0, 2))),
            sitelinks_count=rng.randint(0, 40))

    base = [random_record(f"Q{i}") for i in range(1, 16)]
    base += [ItemRecord(id=q(f"P{i}"), label=rng.choice(words),
                        sitelinks_count=i) for i in range(1, 4)]
    extra = [random_record(f"Q{i}") for i in range(16, 22)]
    indexes = [Index(rng.sample(base, len(base) - rng.randint(0, 4))
                     + rng.sample(extra, rng.randint(0, 3)))
               for _ in range(3)]

    base_edges = [TypeEdge(types[1], types[0], "subclass_of")]
    closures = [build_closure(base_edges + [
        TypeEdge(types[child], types[rng.randrange(child)], "subclass_of")
        for child in rng.sample(range(2, 6), rng.randint(0, 3))])
        for _ in range(3)]

    def config(min_link_score, header_property_boost):
        return parse_config_obj({
            "type_dictionary": {f"t{i}": [t.raw] for i, t in enumerate(types)},
            "tiers": {"good": ["t0"], "ok": ["t2"], "bad": ["t5"]},
            "params": {"min_link_score": min_link_score,
                       "header_property_boost": header_property_boost},
        })

    configs = [config(0.0, 0.1), config(0.25, 0.0), config(0.5, 0.3)]
    mentions = words + ["alpha beta", "gamma omega", "delta zeta"]

    lookups = [(rng.choice(indexes), rng.choice(closures), rng.choice(configs),
                rng.choice(mentions), rng.choice(["cell", "header"]),
                rng.choice([None, "alpha", "omega delta"]),
                rng.choice([None, ["t3"], ["t4", "t1"]]))
               for _ in range(120)]

    cache = LinkCache()
    keys = set()
    for _ in range(600):
        index, closure, cfg_, mention, mode, context, expected = \
            rng.choice(lookups)
        got = cached_link(mention, mode, index, closure, cfg_, context,
                          expected, cache=cache)
        assert got == link(mention, mode, index, closure, cfg_, context,
                           expected)
        keys.add(cache.key(mention, mode, context, expected, cfg_,
                           index.build_id, closure))
    # Every lookup after a key's first is a hit.
    assert cache.hits == 600 - len(keys)
