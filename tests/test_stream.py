"""One seeded stream of link, cached_link and link_table calls through one
shared LinkCache and shared closures, whose linker tables in closure.memo
fill as the stream goes. Two indexes, two closures and several configs
(_replace twins and an equal copy among them) share them, in both modes,
with and without context and expected types. Every result's bytes must
equal a cold run on objects loaded afresh from their files, so no answer
depends on which calls the caches saw first."""

import json
import random

from tablink import (
    EntityId,
    Index,
    ItemRecord,
    LinkCache,
    Params,
    Table,
    TypeEdge,
    Weights,
    build_closure,
    cached_link,
    link,
    link_table,
    load_config,
    load_index,
    parse_config_obj,
    read_closure,
    save_config,
    save_index,
    write_closure,
)
from tablink.linker import result_to_obj
from tablink.tables import annotation_to_obj

q = EntityId.parse

WORDS = ("alpha", "beta", "gamma", "delta")
TYPES = tuple(q(f"Q{100 + i}") for i in range(6))
WATCHED = q("P7")


def _records(rng) -> list[ItemRecord]:
    """Items whose labels, types, watched property and sitelinks repeat
    often enough for one mention to find several, and properties labelled
    like them, which only header mode boosts."""
    def words(most):
        return " ".join(rng.sample(WORDS, rng.randint(1, most)))

    items = [ItemRecord(q(f"Q{i}"), words(2), description=words(3),
                        direct_types=rng.sample(TYPES, rng.randint(0, 2)),
                        sitelinks_count=rng.randint(0, 30),
                        flagged_props={WATCHED} if rng.random() < 0.3 else ())
             for i in range(1, 15)]
    props = [ItemRecord(q(f"P{i}"), rng.choice(WORDS), sitelinks_count=i)
             for i in range(1, 4)]
    return items + props


def _configs() -> list:
    base = parse_config_obj({
        "type_dictionary": {f"t{i}": [t.raw] for i, t in enumerate(TYPES)},
        "tiers": {"good": ["t0"], "ok": ["t2"], "bad": ["t5"]},
        "near_miss_map": {"t3": ["t4"]},
        "property_inference": [{"if_property": WATCHED.raw, "then_type_name": "t1"}],
    })
    return [
        base,
        parse_config_obj(base.to_obj()),  # equal: shares base's hash
        base._replace(tiers={"good": ["t1"], "bad": ("t0",)}),
        base._replace(type_dictionary={**base.type_dictionary, "t0": [TYPES[4]]}),
        base._replace(near_miss_map={"t3": ["t0", "t2"]}),
        base._replace(property_inference=()),
        base._replace(weights=Weights(0.25, 0.25, 0.25, 0.25)),
        base._replace(params=Params(min_link_score=0.5, k=3)),
    ]


def _tables(rng) -> list[Table]:
    cell = lambda: rng.choice([*WORDS, "alpha beta", "12", "gamma delta"])  # noqa: E731
    return [Table(f"t{n}", rng.choice(["", "alpha table", "gamma"]),
                  rng.sample(WORDS, 2), [[cell(), cell()] for _ in range(3)])
            for n in range(5)]


def test_stream_through_shared_caches_equals_cold_runs(tmp_path):
    rng = random.Random(0x57EA)
    # Two indexes over different records, and two closures over the same
    # types with different edges: the keys must tell each pair apart.
    for n in range(2):
        save_index(Index(_records(rng)), tmp_path / f"index{n}")
    write_closure(tmp_path / "closure0", build_closure([
        TypeEdge(TYPES[1], TYPES[0], "subclass_of"),
        TypeEdge(TYPES[3], TYPES[2], "subclass_of")]))
    write_closure(tmp_path / "closure1", build_closure([
        TypeEdge(TYPES[1], TYPES[2], "subclass_of"),
        TypeEdge(TYPES[4], TYPES[0], "subclass_of"),
        TypeEdge(TYPES[3], TYPES[5], "subclass_of")]))
    configs = _configs()
    for n, config in enumerate(configs):
        save_config(tmp_path / f"config{n}", config)
    assert len({c.content_hash for c in configs}) == len(configs) - 1

    indexes = [load_index(tmp_path / f"index{n}") for n in range(2)]
    closures = [read_closure(tmp_path / f"closure{n}") for n in range(2)]
    tables = _tables(rng)
    mentions = [*WORDS, "alpha beta", "  GAMMA ", "delta alpha"]
    contexts = [None, "", "alpha", "gamma delta beta"]
    expecteds = [None, [], ["t3"], ["t1", "t4"], ["t4", "t1", "t1"], ["t0"]]

    def cold(kind, i, c, g, *args):
        """The call's bytes on an index, closure and config loaded afresh."""
        index = load_index(tmp_path / f"index{i}")
        closure = read_closure(tmp_path / f"closure{c}")
        config = load_config(tmp_path / f"config{g}")
        if kind == "table":
            return json.dumps(annotation_to_obj(
                link_table(args[0], index, closure, config)))
        mention, mode, context, expected = args
        return json.dumps(result_to_obj(
            link(mention, mode, index, closure, config, context, expected)))

    cache = LinkCache()
    want: dict[tuple, str] = {}
    counts = dict.fromkeys(("link", "cached", "table"), 0)
    for _ in range(700):
        kind = rng.choice(["link", "cached", "cached", "table"])
        i, c, g = rng.randrange(2), rng.randrange(2), rng.randrange(len(configs))
        index, closure, config = indexes[i], closures[c], configs[g]
        if kind == "table":
            table = rng.choice(tables)
            got = json.dumps(annotation_to_obj(
                link_table(table, index, closure, config, cache)))
            args = (table,)
        else:
            args = (rng.choice(mentions), rng.choice(["cell", "header"]),
                    rng.choice(contexts), rng.choice(expecteds))
            call = link if kind == "link" else cached_link
            extra = {"cache": cache} if kind == "cached" else {}
            got = json.dumps(result_to_obj(
                call(*args[:2], index, closure, config, *args[2:], **extra)))
        key = (kind == "table", i, c, g,
               *(json.dumps(a) if isinstance(a, list) else a for a in args))
        if key not in want:
            want[key] = cold("table" if kind == "table" else "mention",
                             i, c, g, *args)
        assert got == want[key], (kind, i, c, g, args)
        counts[kind] += 1

    # The stream leaned on both caches: repeated keys hit the LinkCache, and
    # each closure kept tables for several configs and expected types.
    assert min(counts.values()) >= 100
    assert cache.hits >= 300 and cache.misses >= 300
    for closure in closures:
        assert len({h for h, _ in closure.memo}) == len(configs) - 1
        assert len({e for _, e in closure.memo}) >= 4
