"""What one LinkCache lookup computes: each distinct raw string is
normalized once per cache, every lookup's key is cache.key(...) of its raw
inputs, and expected types are read once, so a one-shot iterable means
what a list means."""

import tablink.linker
from tablink import Index, LinkCache, Table, cached_link, link, link_table
from tablink.tables import annotation_to_obj

from fixture_kb import virus_fixture


def _virus_setup():
    records, closure, config = virus_fixture()
    return Index(records), closure, config


def _recording_keys(monkeypatch):
    """The keys of every get_or_compute call, in call order."""
    keys = []
    real = LinkCache.get_or_compute

    def recording(self, key, compute):
        keys.append(key)
        return real(self, key, compute)
    monkeypatch.setattr(LinkCache, "get_or_compute", recording)
    return keys


def _counting_normalize(monkeypatch):
    calls = []
    real = tablink.linker.normalize
    monkeypatch.setattr(tablink.linker, "normalize",
                        lambda text: calls.append(text) or real(text))
    return calls


def test_a_repeated_table_is_normalized_once_per_cache(monkeypatch):
    index, closure, config = _virus_setup()
    table = Table("viruses", "agents", ("Virus", " virus ", "Agent"),
                  (("VIRUS", "virus", "virus"), ("virus ", "VIRUS", "42")))
    want = annotation_to_obj(link_table(table, index, closure, config))
    calls = _counting_normalize(monkeypatch)
    cache = LinkCache()
    first = annotation_to_obj(link_table(table, index, closure, config, cache))
    counts = (len(calls), cache.hits, cache.misses)
    assert len(calls) == len(set(calls)) > 0
    second = annotation_to_obj(link_table(table, index, closure, config, cache))
    assert first == second == want
    # The second pass hits on every lookup and normalizes nothing.
    assert len(calls) == counts[0]
    assert cache.misses == counts[2]
    assert cache.hits == 2 * counts[1] + counts[2]


def test_keys_are_link_cache_key_of_the_raw_inputs(monkeypatch):
    index, closure, config = _virus_setup()
    lookups = [(mention, mode, context)
               for mention in ("Virus", " virus ", "VIRUS", "virus")
               for mode, context in (("cell", None), ("cell", ""),
                                     ("header", "Agents  host"),
                                     ("header", " agents host "),
                                     ("header", "AGENTS\thost"))]
    want = [link(mention, mode, index, closure, config, context)
            for mention, mode, context in lookups]
    keys = _recording_keys(monkeypatch)
    calls = _counting_normalize(monkeypatch)
    cache = LinkCache()
    assert [cached_link(mention, mode, index, closure, config, context, None,
                        cache)
            for mention, mode, context in lookups] == want
    # Each distinct raw string once; a miss's link() reuses the mention's.
    assert sorted(calls) == sorted(
        ["Virus", " virus ", "VIRUS", "virus",
         "Agents  host", " agents host ", "AGENTS\thost"])
    # A fresh cache's key() of the raw inputs.
    key = LinkCache().key
    assert keys == [key(mention, mode, context, None, config, index.build_id,
                        closure)
                    for mention, mode, context in lookups]
    # The four mentions share one normalized form, and so do the three
    # contexts: two distinct keys, every other lookup a hit.
    assert len(set(keys)) == 2
    assert (cache.misses, cache.hits) == (2, len(lookups) - 2)


def test_cached_link_reads_one_shot_expected_types_once(small_kb):
    index, closure, config = small_kb.index, small_kb.closure, small_kb.config
    names = sorted(config.type_dictionary)
    # The first mention and type name for which expected types change the
    # result.
    mention, name = next(
        (m, n) for m in small_kb.mentions[:200] for n in names
        if link(m, "cell", index, closure, config, None, [n])
        != link(m, "cell", index, closure, config))
    want = link(mention, "cell", index, closure, config, None, [name])
    cache = LinkCache()
    assert cached_link(mention, "cell", index, closure, config, None,
                       (n for n in [name]), cache) == want
    # The result is kept under the key of the expected types it used.
    assert cached_link(mention, "cell", index, closure, config, None,
                       [name], cache) == want
    assert (cache.misses, cache.hits) == (1, 1)
    assert cached_link(mention, "cell", index, closure, config, None,
                       (n for n in [name])) == want
