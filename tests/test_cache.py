import hashlib
import json
import random
import sys
import threading

import pytest

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


def read_entry(path):
    """The key and entry of the one line of a cache file."""
    [line] = path.read_text(encoding="utf-8").splitlines()
    key, _, text = line.partition(" ")
    return key, json.loads(text)


def write_entry(path, key, entry):
    path.write_text(f"{key} {json.dumps(entry)}\n", encoding="utf-8")


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
    assert read_entry(tmp_path / "cache" / "links.jsonl")[0] == key

    second = LinkCache(tmp_path / "cache")
    again = cached_link("alpha", "cell", index, CLOSURE, CONFIG, cache=second)
    assert second.hits == 1 and second.misses == 0
    assert again == result


GOLDEN_LINE = (
    "26ead19568227c87629ce22344a11466daf704b0a256f7d9cc4df79839b9a320 "
    '{"mention":"alpha","mode":"cell","chosen":0,'
    '"diagnostics":{"retrieved":3,"rejected_bad":0,"below_threshold":0},'
    '"id":["Q1","Q2","Q3"],'
    '"match_tier":["exact_label","partial","exact_alias"],'
    '"type_tier":["GOOD","OK","UNKNOWN"],'
    '"inferred_type_names":[[],["flagged-type"],[]],'
    '"token_overlap":[1.0,1.0,1.0],'
    '"type_score":[0.6,0.4,0.2],'
    '"match_score":[1.0,0.4,0.8],'
    '"prominence":[1.0,0.4,0.1],'
    '"context_sim":[0.0,0.5,0.0],'
    '"boosts":[0.0,0.0,0.0],'
    '"weighted_base":[0.67,0.41500000000000004,0.30500000000000005],'
    '"final_score":[0.67,0.41500000000000004,0.30500000000000005]}\n')


def test_cache_line_text_is_pinned(tmp_path):
    """The key, then the entry: its header fields, the id column and one
    column per candidate field in declaration order, each of its JSON type."""
    config = validate_config(parse_config_obj({
        "type_dictionary": {"good-type": ["Q100"], "flagged-type": ["Q300"]},
        "tiers": {"good": ["good-type"], "ok": ["flagged-type"]},
        "property_inference": [{"if_property": "P486",
                                "then_type_name": "flagged-type"}],
    }))
    index = Index([
        rec("Q1", "alpha", types=["Q100"], sitelinks=10),
        ItemRecord(id=q("Q2"), label="alpha virus", sitelinks_count=4,
                   flagged_props=frozenset({q("P486")})),
        ItemRecord(id=q("Q3"), label="beta", aliases=("alpha",),
                   sitelinks_count=1),
    ])
    result = cached_link("alpha", "cell", index, CLOSURE, config,
                         context="virus outbreak",
                         cache=LinkCache(tmp_path / "cache"))
    path = tmp_path / "cache" / "links.jsonl"
    assert path.read_text(encoding="utf-8") == GOLDEN_LINE
    again = cached_link("alpha", "cell", index, CLOSURE, config,
                        context="virus outbreak",
                        cache=LinkCache(tmp_path / "cache"))
    assert again == result
    assert path.read_text(encoding="utf-8") == GOLDEN_LINE


def test_corrupt_disk_entry_degrades_to_computation(tmp_path):
    index = make_index()
    key = LinkCache.key("alpha", "cell", None, None, CONFIG, index.build_id, CLOSURE)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "links.jsonl").write_text(f"{key} {{not json\n",
                                           encoding="utf-8")
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
    [path] = (tmp_path / "cache").iterdir()
    text = path.read_text(encoding="utf-8")
    for fragment in ("zanzibar red colobus", "kirk colobus monkey",
                     "unguja", "black and white colobus"):
        assert fragment not in text
    assert read_entry(path)[1]["id"] == \
        [c.record.id.raw for c in result.candidates]
    again = cached_link("colobus", "cell", index, CLOSURE, CONFIG,
                        cache=LinkCache(tmp_path / "cache"))
    assert again == result


def test_entry_naming_an_unknown_id_is_recomputed(tmp_path):
    index = make_index()
    cache_dir = tmp_path / "cache"
    cached_link("alpha", "cell", index, CLOSURE, CONFIG,
                cache=LinkCache(cache_dir))
    [path] = cache_dir.iterdir()
    key, entry = read_entry(path)
    entry["id"][0] = "Q999"
    write_entry(path, key, entry)
    cache = LinkCache(cache_dir)
    result = cached_link("alpha", "cell", index, CLOSURE, CONFIG, cache=cache)
    assert result == link("alpha", "cell", index, CLOSURE, CONFIG)
    assert cache.misses == 1 and cache.hits == 0


@pytest.mark.parametrize("damage", [
    lambda e: e.update(chosen=-1),
    lambda e: e.update(chosen=True),
    lambda e: e.update(chosen=99),
    lambda e: e["final_score"].pop(),
    lambda e: e["final_score"].__setitem__(0, str(e["final_score"][0])),
], ids=["chosen-minus-one", "chosen-true", "chosen-past-end",
        "ragged-column", "string-score"])
def test_damaged_entry_gives_links_answer(tmp_path, damage):
    # Q1 is chosen; a position that reads Q2 must not be returned.
    index = make_index()
    cache_dir = tmp_path / "cache"
    cached_link("alpha", "cell", index, CLOSURE, CONFIG,
                cache=LinkCache(cache_dir))
    path = cache_dir / "links.jsonl"
    key, entry = read_entry(path)
    assert entry["chosen"] == 0 and entry["id"] == ["Q1", "Q2"]
    damage(entry)
    write_entry(path, key, entry)
    cache = LinkCache(cache_dir)
    result = cached_link("alpha", "cell", index, CLOSURE, CONFIG, cache=cache)
    assert result == link("alpha", "cell", index, CLOSURE, CONFIG)
    assert cache.misses == 1 and cache.hits == 0


# Four distinct keys over make_index().
LOOKUPS = [("alpha", "cell"), ("beta", "cell"), ("alpha", "header"),
           ("beta", "header")]


def link_all(index, cache):
    for mention, mode in LOOKUPS:
        assert cached_link(mention, mode, index, CLOSURE, CONFIG,
                           cache=cache) == \
            link(mention, mode, index, CLOSURE, CONFIG)


def test_cold_pass_writes_one_file_of_one_line_per_key(tmp_path):
    index = make_index()
    cache = LinkCache(tmp_path / "cache")
    link_all(index, cache)
    link_all(index, cache)
    assert cache.misses == len(LOOKUPS) and cache.hits == len(LOOKUPS)
    [path] = (tmp_path / "cache").iterdir()
    assert path.name == "links.jsonl"
    keys = [line.partition(" ")[0]
            for line in path.read_text(encoding="utf-8").splitlines()]
    assert keys == [LinkCache.key(mention, mode, None, None, CONFIG,
                                  index.build_id, CLOSURE)
                    for mention, mode in LOOKUPS]


def test_truncated_line_recomputes_only_its_key(tmp_path):
    index = make_index()
    cache_dir = tmp_path / "cache"
    link_all(index, LinkCache(cache_dir))
    path = cache_dir / "links.jsonl"
    path.write_bytes(path.read_bytes()[:-20])
    cache = LinkCache(cache_dir)
    link_all(index, cache)
    assert cache.misses == 1 and cache.hits == len(LOOKUPS) - 1
    fresh = LinkCache(cache_dir)
    link_all(index, fresh)
    assert fresh.misses == 0 and fresh.hits == len(LOOKUPS)


def test_two_caches_append_to_one_dir(tmp_path):
    index = make_index()
    caches = [LinkCache(tmp_path / "cache"), LinkCache(tmp_path / "cache")]
    for i, (mention, mode) in enumerate(LOOKUPS):
        cached_link(mention, mode, index, CLOSURE, CONFIG, cache=caches[i % 2])
    third = LinkCache(tmp_path / "cache")
    link_all(index, third)
    assert third.misses == 0 and third.hits == len(LOOKUPS)


def test_threads_share_one_disk_cache(tmp_path):
    index = make_index()
    want = {(mention, mode): link(mention, mode, index, CLOSURE, CONFIG)
            for mention, mode in LOOKUPS}
    cache = LinkCache(tmp_path / "cache")
    wrong = []

    def work():
        for _ in range(50):
            for mention, mode in LOOKUPS:
                got = cached_link(mention, mode, index, CLOSURE, CONFIG,
                                  cache=cache)
                if got != want[mention, mode]:
                    wrong.append((mention, mode))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert cache.hits + cache.misses == 4 * 50 * len(LOOKUPS)
    fresh = LinkCache(tmp_path / "cache")
    link_all(index, fresh)
    assert fresh.misses == 0


def test_reused_disk_cache_is_transparent_across_random_changes(tmp_path):
    # Variants of the closure (edges added), the config (threshold, header
    # boost) and the index (records dropped or added) share one cache dir.
    # A fresh LinkCache per lookup makes every hit a read from disk.
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
        return validate_config(parse_config_obj({
            "type_dictionary": {f"t{i}": [t.raw] for i, t in enumerate(types)},
            "tiers": {"good": ["t0"], "ok": ["t2"], "bad": ["t5"]},
            "params": {"min_link_score": min_link_score,
                       "header_property_boost": header_property_boost},
        }))

    configs = [config(0.0, 0.1), config(0.25, 0.0), config(0.5, 0.3)]
    mentions = words + ["alpha beta", "gamma omega", "delta zeta"]

    lookups = [(rng.choice(indexes), rng.choice(closures), rng.choice(configs),
                rng.choice(mentions), rng.choice(["cell", "header"]),
                rng.choice([None, "alpha", "omega delta"]),
                rng.choice([None, ["t3"], ["t4", "t1"]]))
               for _ in range(120)]

    cache_dir = tmp_path / "cache"
    keys, hits = set(), 0
    for _ in range(600):
        index, closure, cfg_, mention, mode, context, expected = \
            rng.choice(lookups)
        cache = LinkCache(cache_dir)
        got = cached_link(mention, mode, index, closure, cfg_, context,
                          expected, cache=cache)
        assert got == link(mention, mode, index, closure, cfg_, context,
                           expected)
        keys.add(LinkCache.key(mention, mode, context, expected, cfg_,
                               index.build_id, closure))
        hits += cache.hits
    # Every lookup after a key's first is a hit read from the file.
    assert hits == 600 - len(keys)
