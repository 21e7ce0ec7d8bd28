"""Acceptance suite: the headline guarantees, each as one pass/fail test.

Unlike the unit files, these tests run at scale: oracle comparisons against
linear scans over a 100k-record corpus, timed benchmark runs with injected
latencies, full pipeline reruns for byte determinism, and property suites of
a thousand-plus generated cases each. Expect a few minutes of wall time.
Each test prints a PASS line with its measured figures (visible with -s).
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from itertools import chain
from types import SimpleNamespace

import pytest

from fixture_kb import (
    lineage_fixture,
    near_miss_fixture,
    prevalence_fixture,
    virus_fixture,
)
import oracles
from oracles import (
    OracleKB,
    o_has_type,
    o_ids,
    o_link,
    o_link_from_candidates,
    o_link_table,
    o_search,
    o_search_all,
    o_tier,
    o_tokens,
    squaring_ancestors,
    warshall_ancestors,
)
from tablink import (
    EmptyMention,
    EntityId,
    Index,
    ItemRecord,
    LinkCache,
    TypeEdge,
    bench,
    build_closure,
    cached_link,
    classify_type_tier,
    detect_literal,
    evaluate,
    ingest_dump,
    link,
    link_from_candidates,
    link_table,
    parse_config_obj,
    project_corpus_days,
    read_records,
    read_table,
    search,
)
from tablink.tables import Table, annotation_to_obj
from kb_bundles import SKEW_NOUNS, build_bundle, skew_dump
from test_cli import quiet_run

Q = EntityId.parse

CELL, HEADER = "cell", "header"


# --------------------------------------------------------------------------
# shared helpers

def _chosen(fn):
    """Collapse a link call to its decision: an id, None (NIL), or "EMPTY"."""
    try:
        result = fn()
    except EmptyMention:
        return "EMPTY"
    return result.chosen.record.id if result.chosen else None


def _result_or_empty(fn):
    try:
        return fn()
    except EmptyMention:
        return "EMPTY"


@pytest.fixture(scope="module")
def big_oracle(big_kb):
    return OracleKB(big_kb.records)


@pytest.fixture(scope="module")
def big_ancestors(big_kb):
    # The generated corpus has no cross-kind edges, so the oracle can take
    # the edge list verbatim.
    assert big_kb.closure.rejected_edges == ()
    pairs = [(e.child, e.parent) for e in big_kb.edges]
    nodes = {n for pair in pairs for n in pair}
    return squaring_ancestors(nodes, pairs)


# --------------------------------------------------------------------------
# 1. search equals the linear-scan comparator at 100k scale

def _search_mention_pool(rng, records, truth):
    labels = [r.label for r in records]
    aliased = [r for r in records if r.aliases]
    assert aliased
    plants = [p["label"] for p in truth["plants"]]

    pool = [rng.choice(labels) for _ in range(350)]
    pool += [rng.choice(rng.choice(aliased).aliases) for _ in range(200)]
    for _ in range(150):  # case and whitespace mangling
        label = rng.choice(labels)
        pool.append(rng.choice(
            ["  " + label.upper() + "  ", label.title() + "\t", label.swapcase()]))
    for _ in range(150):  # two-token probes crossing record boundaries
        first = rng.choice(labels).split()[0]
        last = rng.choice(labels).split()[-1]
        pool.append(f"{first} {last}")
    pool += rng.sample(plants, 50)
    pool += [f"zz{i}qx unseen{i}" for i in range(50)]
    blanks = ["", "   ", "\t ", "of the", "is a", "the and of"]
    pool += [blanks[i % len(blanks)] for i in range(50)]
    assert len(pool) == 1000
    return pool


def test_search_agrees_with_linear_scan_at_scale(big_kb, big_oracle):
    assert len(big_kb.records) >= 100_000
    rng = random.Random(0xAC01)
    started = time.perf_counter()
    pool = _search_mention_pool(rng, big_kb.records, big_kb.truth)

    agreed = 0
    for mention, want in zip(pool, o_search_all(big_oracle, pool, 20)):
        try:
            got = [(c.record.id, c.match_tier, c.token_overlap)
                   for c in search(big_kb.index, mention, 20)]
        except EmptyMention:
            got = None
        if want is not None:
            want = [(r.id, tier, overlap) for r, tier, overlap in want]
        assert got == want, f"search disagreement for mention {mention!r}"
        agreed += 1
    elapsed = time.perf_counter() - started

    assert agreed == 1000
    assert elapsed < 120.0
    print(f"PASS search-oracle: 1000/1000 mentions agree with the linear scan "
          f"over {len(big_kb.records)} records in {elapsed:.1f}s")


def _skew_mention_pool(rng, records):
    """Mentions of one to four distinct tokens mixing rare label words with
    the shared nouns, plus labels of each length."""
    nouns = list(SKEW_NOUNS)
    words = sorted({w for r in records for w in r.label.split()} - set(nouns))
    labels = {}
    for r in records:
        labels.setdefault(len(o_tokens(r.label)), []).append(r.label)

    def mix(n_words, n_nouns):
        return " ".join(rng.sample(words, n_words) + rng.sample(nouns, n_nouns))

    pool = nouns + [mix(1, 0) for _ in range(23)] + rng.sample(labels[1], 5)
    pool += [mix(1, 1) for _ in range(40)] + [mix(0, 2) for _ in range(5)]
    pool += rng.sample(labels[2], 15)
    pool += [mix(2, 1) for _ in range(15)] + [mix(1, 2) for _ in range(15)]
    pool += rng.sample(labels[3], 20)
    pool += [mix(2, 2) for _ in range(15)] + [mix(1, 3) for _ in range(10)]
    pool += [mix(0, 4) for _ in range(5)] + rng.sample(labels[4], 20)
    assert len(pool) == 200
    return pool


def test_search_agrees_with_linear_scan_under_skew(skew_kb):
    records = skew_kb.records
    assert len(records) >= 100_000
    started = time.perf_counter()
    oracle = OracleKB(records)
    pool = _skew_mention_pool(random.Random(0xAC03), records)
    sizes = Counter(len(set(o_tokens(m))) for m in pool)
    assert all(sizes[n] >= 30 for n in (1, 2, 3, 4)), sizes

    long_pools = 0
    # The oracle ranks every hit before cutting at k, so one full ranking
    # gives its answer for every k.
    for mention, ranked in zip(pool, o_search_all(oracle, pool, len(records))):
        long_pools += len(ranked) > 20
        for k in (1, 5, 20):
            got = [(c.record.id, c.match_tier, c.token_overlap)
                   for c in search(skew_kb.index, mention, k)]
            want = [(r.id, tier, overlap) for r, tier, overlap in ranked[:k]]
            assert got == want, f"search disagreement for {mention!r} at k={k}"
    elapsed = time.perf_counter() - started

    assert long_pools >= 50
    assert elapsed < 120.0
    print(f"PASS search-oracle-skew: 200/200 mentions agree with the linear "
          f"scan over {len(records)} records at k=1,5,20 ({long_pools} with "
          f"more than 20 hits) in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. end-to-end link equals the brute-force pipeline

def _link_case_pool(rng, records, config):
    labels = [r.label for r in records]
    aliased = [r for r in records if r.aliases]
    described = [r for r in records if r.description]
    prop_labels = [r.label for r in records if r.id.is_property]
    assert prop_labels
    names = sorted(config.type_dictionary)

    cases = [(rng.choice(labels), CELL, None, None) for _ in range(300)]
    for _ in range(150):  # header mode, biased toward property labels
        mention = rng.choice(prop_labels if rng.random() < 0.5 else labels)
        cases.append((mention, HEADER, None, None))
    for _ in range(150):  # context drawn from this or another record
        rec = rng.choice(described)
        ctx = rec.description if rng.random() < 0.5 \
            else rng.choice(described).description
        cases.append((rec.label, rng.choice((CELL, HEADER)), ctx, None))
    for _ in range(150):  # expected types, sometimes unresolvable names
        expected = rng.sample(names, rng.randint(1, 2))
        if rng.random() < 0.3:
            expected.append("name-nobody-configured")
        cases.append((rng.choice(labels), CELL, None, tuple(expected)))
    for _ in range(100):
        cases.append((rng.choice(rng.choice(aliased).aliases), CELL, None, None))
    for _ in range(100):  # partial probes
        first = rng.choice(labels).split()[0]
        last = rng.choice(labels).split()[-1]
        cases.append((f"{first} {last}", rng.choice((CELL, HEADER)), None, None))
    blanks = ["", "  ", "of the", "and the of"]
    cases += [(blanks[i % len(blanks)], CELL, None, None) for i in range(50)]
    assert len(cases) == 1000
    return cases


def test_link_agrees_with_bruteforce_pipeline(big_kb, big_oracle, big_ancestors):
    rng = random.Random(0xAC02)
    cases = _link_case_pool(rng, big_kb.records, big_kb.config)

    hits = o_search_all(big_oracle, [case[0] for case in cases],
                        big_kb.config.params.k)
    agreed = 0
    for (mention, mode, ctx, expected), raw in zip(cases, hits):
        got = _chosen(lambda: link(mention, mode, big_kb.index, big_kb.closure,
                                   big_kb.config, context=ctx,
                                   expected_types=expected))
        want = o_link(raw, big_ancestors, big_kb.config, mode, ctx, expected)
        assert got == want, (f"link disagreement for {mention!r} "
                             f"mode={mode} ctx={ctx!r} expected={expected!r}")
        agreed += 1

    assert agreed == 1000
    print("PASS link-oracle: 1000/1000 mixed-mode mentions match the "
          "brute-force pipeline decision")


def test_batch_search_oracle_equals_the_per_mention_scan(small_kb, tmp_path):
    """o_search_all, which the three oracle tests above scan with, answers
    as o_search does for every mention the tests' pools draw, blanks and
    unseen tokens included: on small_kb at the link oracle's k, and on its
    skewed dump with full rankings."""
    skew_dump(small_kb.result.dump_path, tmp_path / "dump.jsonl", seed=1)
    ingest_dump(tmp_path / "dump.jsonl", tmp_path / "records.jsonl",
                tmp_path / "edges.jsonl")
    skewed = list(read_records(tmp_path / "records.jsonl"))
    rng = random.Random(0xAC04)
    # small_kb has 25 plants, and the search pool draws 50.
    plain = _search_mention_pool(rng, small_kb.records,
                                 {"plants": small_kb.truth["plants"] * 2})
    plain += [case[0] for case in _link_case_pool(rng, small_kb.records,
                                                  small_kb.config)]
    for records, pool, k in (
            (small_kb.records, plain, small_kb.config.params.k),
            (skewed, _skew_mention_pool(rng, skewed), len(skewed))):
        oracle = OracleKB(records)
        assert o_search_all(oracle, pool, k) == \
            [o_search(oracle, mention, k) for mention in pool]


def test_link_from_candidates_agrees_with_the_per_hit_scorer(big_kb,
                                                             big_ancestors):
    """The tier memo, the head-of-sorted choice, the in-loop threshold count
    and the skipped empty-context similarity change no LinkResult field,
    diagnostics included, against the scorer that classifies every hit."""
    config, closure, index = big_kb.config, big_kb.closure, big_kb.index
    rng = random.Random(0xAC06)
    cases = _link_case_pool(random.Random(0xAC02), big_kb.records, config)
    rules = {r.if_property for r in config.property_inference}
    flagged = [r for r in big_kb.records if r.flagged_props & rules]
    cases += [(r.label, rng.choice((CELL, HEADER)), None, None)
              for r in rng.sample(flagged, 200)]

    def with_params(**params):
        return parse_config_obj({**config.to_obj(), "params": {
            **config.params._asdict(), **params}})

    # Every candidate below the threshold; and in header mode, property
    # records above it by their boost alone and items below it.
    strict = with_params(min_link_score=100.0)
    lifted = with_params(min_link_score=1.5, header_property_boost=5.0)
    pools = []
    for mention, mode, ctx, expected in cases:
        try:
            raw = search(index, mention, config.params.k)
        except EmptyMention:
            continue
        pools.append((mention, raw, mode, ctx, expected, config))
        pools.append((mention, raw, mode, ctx, expected, strict))
        pools.append((mention, raw, mode, ctx, expected, lifted))
        bad = [c for c in raw if o_tier(c.record, config, big_ancestors, ())
               == "BAD"]
        if bad:
            pools.append((mention, bad, mode, ctx, None, config))
    for mode, ctx in ((CELL, None), (HEADER, "caption sibling header")):
        pools.append(("anything", [], mode, ctx, None, config))

    seen = Counter()
    for _ in range(2):  # the second pass finds every tier in the memo
        for mention, raw, mode, ctx, expected, cfg in pools:
            got = link_from_candidates(mention, raw, mode, ctx, expected,
                                       closure, cfg)
            want = o_link_from_candidates(mention, raw, mode, ctx, expected,
                                          closure, cfg)
            assert got == want, (f"result disagreement for {mention!r} "
                                 f"mode={mode} ctx={ctx!r} "
                                 f"expected={expected!r} pool={len(raw)}")
            cands, diag = got.candidates, got.diagnostics
            seen["header-property"] += mode == HEADER and any(
                c.record.id.is_property for c in cands)
            seen["inferred"] += any(c.inferred_type_names for c in cands)
            seen["all-bad"] += bool(raw) and diag.rejected_bad == len(raw)
            seen["empty"] += not raw
            seen["all-below"] += (bool(cands) and got.chosen is None
                                  and diag.below_threshold == len(cands))
            seen["boost-decides"] += (cfg is lifted and got.chosen is not None
                                      and diag.below_threshold > 0)
    assert min(seen.values()) >= 2 and len(seen) == 6, seen
    print(f"PASS scorer-reference: {len(pools)} pools twice, equal results "
          f"({dict(sorted(seen.items()))})")


TIER_EXPECTED = (None, ("location",), ("location", "facility"),
                 ("no-such-name",))


def test_type_tiers_agree_with_the_oracle(big_kb, big_ancestors):
    # gen-kb's type groups hold cycles, so the oracle's ancestors come from
    # matrix reachability, not from the closure under test.
    config, closure = big_kb.config, big_kb.closure
    rng = random.Random(0xAC05)
    started = time.perf_counter()
    # gen-kb types only a few records under an expected or near-miss name,
    # so probe records typed from the hierarchy join a uniform sample; half
    # of them take a type that reaches such a name.
    named = config.resolve_names(["location", "facility", "organization"])
    item_nodes = [t for t in closure.nodes() if t.is_item]
    near_named = [t for t in item_nodes
                  if named & (big_ancestors.get(t, frozenset()) | {t})]
    watch = [Q(p) for p in big_kb.truth["watch_props"]]
    records = rng.sample(big_kb.records, 3000)
    for i in range(3000):
        direct = rng.sample(item_nodes, rng.randint(0, 3))
        if rng.random() < 0.5:
            direct.append(rng.choice(near_named))
        records.append(ItemRecord(
            id=Q(f"Q{90_000_000 + i}"), label="probe",
            direct_types=tuple(direct), flagged_props=frozenset(
                rng.sample(watch, rng.randint(0, len(watch))))))
    configured = sorted(o_ids(config, config.tiers["bad"])
                        | config.resolve_names(["location"])
                        | o_ids(config, config.tiers["good"])
                        | o_ids(config, config.tiers["ok"])
                        | o_ids(config, chain(*config.near_miss_map.values())))

    tiers = Counter()
    for record in records:
        for expected in TIER_EXPECTED:
            got = classify_type_tier(record, config, closure, expected)
            want = o_tier(record, config, big_ancestors, expected)
            assert got == want, f"tier of {record.id} for {expected}"
            tiers[got] += 1
        probes = [*configured, *record.direct_types,
                  *rng.sample(item_nodes, 10)]
        for t in probes:
            assert (t in closure.types_of(record.direct_types)) == \
                o_has_type(record, t, big_ancestors), (record.id, t)
    elapsed = time.perf_counter() - started

    assert min(tiers[t] for t in ("BAD", "TARGET", "NEAR_MISS", "GOOD", "OK",
                                  "UNKNOWN")) >= 20, tiers
    assert elapsed < 30.0
    print(f"PASS tier-oracle: tiers and types of {len(records)} records "
          f"match the oracle for {len(TIER_EXPECTED)} expected values in "
          f"{elapsed:.1f}s ({dict(sorted(tiers.items()))})")


# --------------------------------------------------------------------------
# 3. closure equals matrix transitive closure on adversarial graphs

def test_closure_matches_matrix_reference():
    rng = random.Random(0xAC03)
    started = time.perf_counter()
    for _ in range(100):
        n = rng.randint(2, 200)
        ids = [Q(f"Q{i + 1}") for i in range(n)]
        pairs = set()
        for _ in range(rng.randint(0, 2 * n)):
            pairs.add((rng.randrange(n), rng.randrange(n)))
        if n >= 3:  # force at least one directed cycle
            a, b, c = rng.sample(range(n), 3)
            pairs |= {(a, b), (b, c), (c, a)}
        for _ in range(rng.randint(0, 2)):  # and some self-loops
            v = rng.randrange(n)
            pairs.add((v, v))

        edges = [TypeEdge(ids[a], ids[b], "subclass_of")
                 for a, b in sorted(pairs)]
        closure = build_closure(edges, extra_nodes=ids)
        want = warshall_ancestors(n, pairs)
        for i in range(n):
            got = closure.ancestors_of(ids[i])
            assert got == frozenset(ids[j] for j in want[i]), \
                f"closure mismatch at node {ids[i].raw} (n={n})"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS closure-oracle: 100/100 random graphs (with cycles and "
          f"self-loops) match matrix reachability in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. the four biomedical worked examples, exactly

def test_worked_examples_all_four():
    # "virus": popular films and songs must fall to bad-type rejection so the
    # most-prominent surviving item wins.
    records, closure, config = virus_fixture()
    result = link("virus", CELL, Index(records), closure, config)
    assert result.chosen is not None
    assert result.chosen.record.id == Q("Q808")
    assert result.diagnostics.rejected_bad >= 10
    assert result.candidates[0] == result.chosen

    # "Prevalence": property beats the namesake item in header mode only.
    records, closure, config = prevalence_fixture()
    index = Index(records)
    as_cell = link("Prevalence", CELL, index, closure, config)
    as_header = link("Prevalence", HEADER, index, closure, config)
    assert as_cell.chosen.record.id == Q("Q719602")
    assert as_header.chosen.record.id == Q("P1193")

    # "Lineage" column: the dominant column type flips the header away from
    # the generic concept and keeps the cells on the typed variant items.
    records, closure, config, table = lineage_fixture()
    annotation = link_table(table, Index(records), closure, config)
    by_coord = annotation.by_coord()
    assert annotation.dominant_types[0] == Q("Q104450895")
    header = by_coord[(-1, 0)]
    assert header.kind == "entity"
    assert header.entity_id != Q("Q1517820")
    assert header.entity_id == Q("Q99518587")
    variants = {(0, 0): "Q106288060", (1, 0): "Q105557391", (2, 0): "Q105429541"}
    by_id = {r.id: r for r in records}
    for coord, gold in variants.items():
        cell = by_coord[coord]
        assert cell.kind == "entity" and cell.entity_id == Q(gold), coord
        assert Q("Q104450895") in by_id[cell.entity_id].direct_types

    # Facility/organization near miss accepted when a location is expected.
    records, closure, config = near_miss_fixture()
    result = link("Wuhan Institute of Virology", CELL, Index(records), closure,
                  config, expected_types=("location",))
    assert result.chosen is not None
    assert result.chosen.record.id == Q("Q1333425")
    assert result.chosen.type_tier == "NEAR_MISS"

    print("PASS worked-examples: virus, prevalence header, lineage column, "
          "near-miss acceptance all exact")


# --------------------------------------------------------------------------
# 5. offline speedup and corpus projection

def test_offline_speedup_and_corpus_projection(big_kb):
    rng = random.Random(0xAC05)
    mentions = rng.sample(big_kb.mentions, 650)
    started = time.perf_counter()
    report = bench(mentions, big_kb.index, big_kb.closure, big_kb.config,
                   online_latencies=(12.0, 18.0),
                   projection=(120_000, 10))
    wall = time.perf_counter() - started

    assert report.mentions_timed >= 500
    assert report.offline.total_s < 0.010
    assert report.speedup >= 3.0
    assert report.online.projected_days == pytest.approx(
        project_corpus_days(120_000, 10, report.online.total_s))
    assert report.online.projected_days >= 365.0
    assert report.offline.projected_days < 1.0
    assert wall < 60.0
    print(f"PASS speedup: offline median "
          f"{report.offline.total_s * 1000:.2f}ms/mention, speedup "
          f"{report.speedup:.0f}x over {report.mentions_timed} mentions, "
          f"projection {report.online.projected_days:.0f} days online, "
          f"{report.offline.projected_days:.4f} offline, run {wall:.0f}s")


# --------------------------------------------------------------------------
# 6. generated tables score perfectly against their own gold

def test_generated_tables_score_perfectly(big_kb):
    annotations = []
    for meta in big_kb.truth["tables"]:
        table = read_table(big_kb.result.tables_dir / meta["file"])
        annotations.append(link_table(table, big_kb.index, big_kb.closure,
                                      big_kb.config))
    report = evaluate(annotations, big_kb.gold)
    assert not report.degenerate
    assert report.cells_with_gold > 0
    assert report.precision == 1.0
    assert report.candidate_recall == 1.0
    print(f"PASS synthetic-gold: precision 1.0 and candidate_recall 1.0 over "
          f"{report.cells_with_gold} gold cells in "
          f"{len(annotations)} tables")


# --------------------------------------------------------------------------
# 7. byte-identical pipeline reruns, independent of --jobs

def _run_cli_pipeline(root, jobs):
    def cli(argv):
        code, out, err = quiet_run(argv)
        assert code == 0, (argv, err)
        return out

    kb = root / "kb"
    cli(["gen-kb", "--out", str(kb), "--seed", "99", "--items", "3000",
         "--types", "150", "--tables", "6"])
    records = root / "records.jsonl"
    edges = root / "edges.jsonl"
    closure = root / "closure.txt"
    cli(["ingest", "--dump", str(kb / "dump.jsonl"),
         "--out-records", str(records), "--out-edges", str(edges),
         "--watchlist", "P50001,P50002", "--jobs", str(jobs)])
    cli(["closure", "--edges", str(edges), "--records", str(records),
         "--out", str(closure)])
    index_dir = root / "index"
    cli(["build-index", "--records", str(records), "--out", str(index_dir)])

    ann_dir = root / "annotations"
    ann_dir.mkdir()
    truth = json.loads((kb / "truth.json").read_text(encoding="utf-8"))
    for meta in truth["tables"]:
        cli(["link-table", "--table", str(kb / "tables" / meta["file"]),
             "--index", str(index_dir), "--closure", str(closure),
             "--config", str(kb / "config.json"), "--jobs", str(jobs),
             "--out", str(ann_dir / (meta["table_id"] + ".json"))])

    return {
        "dump": (kb / "dump.jsonl").read_bytes(),
        "records": records.read_bytes(),
        "edges": edges.read_bytes(),
        "closure": closure.read_bytes(),
        "annotations": {p.name: p.read_bytes()
                        for p in sorted(ann_dir.glob("*.json"))},
    }


def test_pipeline_reruns_are_byte_identical(tmp_path):
    first = _run_cli_pipeline(tmp_path / "a", jobs=1)
    second = _run_cli_pipeline(tmp_path / "b", jobs=1)
    parallel = _run_cli_pipeline(tmp_path / "c", jobs=8)
    assert first["annotations"]  # the comparison must not be vacuous
    for artifact in ("dump", "records", "edges", "closure", "annotations"):
        assert first[artifact] == second[artifact], f"{artifact} rerun differs"
        assert first[artifact] == parallel[artifact], \
            f"{artifact} differs between --jobs 1 and --jobs 8"
    print(f"PASS determinism: records, edges, closure, and "
          f"{len(first['annotations'])} annotation files byte-identical "
          f"across reruns and --jobs 1 vs 8")


# --------------------------------------------------------------------------
# 8. invariant property suites, >= 1000 generated cases each

def test_property_cache_transparency(small_kb, tmp_path):
    rng = random.Random(0xAC81)
    labels = [r.label for r in small_kb.records]
    names = sorted(small_kb.config.type_dictionary)
    pool = rng.choices(small_kb.mentions, k=450) + rng.choices(labels, k=400)
    pool += [f"{rng.choice(labels).split()[0]} {rng.choice(labels).split()[-1]}"
             for _ in range(120)]
    blanks = ["", "   ", "of the"]
    pool += [blanks[i % len(blanks)] for i in range(30)]
    assert len(pool) == 1000

    cache = LinkCache(tmp_path / "cache")
    args = (small_kb.index, small_kb.closure, small_kb.config)
    computed = 0
    for i, mention in enumerate(pool):
        mode = HEADER if i % 3 == 0 else CELL
        ctx = small_kb.records[i % len(small_kb.records)].description \
            if i % 5 == 0 else None
        expected = (names[i % len(names)],) if i % 7 == 0 else None
        plain = _result_or_empty(
            lambda: link(mention, mode, *args, context=ctx,
                         expected_types=expected))
        once = _result_or_empty(
            lambda: cached_link(mention, mode, *args, context=ctx,
                                expected_types=expected, cache=cache))
        twice = _result_or_empty(
            lambda: cached_link(mention, mode, *args, context=ctx,
                                expected_types=expected, cache=cache))
        assert plain == once == twice, f"cache changed the answer for {mention!r}"
        if plain != "EMPTY":
            computed += 1
    # Every case went through the cache twice; empty mentions are never
    # stored, so both of their lookups miss, while every non-empty repeat hits.
    assert cache.hits + cache.misses == 2 * len(pool)
    assert cache.hits >= computed
    print(f"PASS cache-transparency: 1000/1000 cases identical with and "
          f"without the cache ({cache.hits} hits, {cache.misses} misses)")


def test_property_bad_rejection_is_absolute(small_kb):
    config = small_kb.config
    pairs = [(e.child, e.parent) for e in small_kb.edges]
    nodes = {n for pair in pairs for n in pair}
    nodes.update(t for r in small_kb.records for t in r.direct_types)
    bad_types = o_ids(config, config.tiers["bad"])
    nodes.update(bad_types)
    ancestors = squaring_ancestors(nodes, pairs)
    reaches_bad = lambda t: any(b == t or b in ancestors[t] for b in bad_types)
    # Only item ids can appear as direct types; property nodes exist in the
    # hierarchy for subproperty edges but never type a record.
    item_nodes = [t for t in sorted(nodes) if t.is_item]
    poisoned = [t for t in item_nodes if reaches_bad(t)]
    clean = [t for t in item_nodes if not reaches_bad(t)]
    assert poisoned and clean
    names = sorted(config.type_dictionary)
    watch = [Q(p) for p in small_kb.truth["watch_props"]]

    rng = random.Random(0xAC82)
    bad_cases = 0
    for i in range(1100):
        direct = rng.sample(clean, rng.randint(0, 3))
        make_bad = rng.random() < 0.5
        if make_bad:
            direct.append(rng.choice(poisoned))
            rng.shuffle(direct)
        record = ItemRecord(
            id=Q(f"Q{90_000_000 + i}"), label="probe", aliases=(),
            description="", direct_types=tuple(direct),
            sitelinks_count=rng.randint(0, 500),
            flagged_props=frozenset(rng.sample(watch, rng.randint(0, len(watch)))))
        expected = tuple(rng.sample(names, rng.randint(0, 2))) or None
        tier = classify_type_tier(record, config, small_kb.closure, expected)
        if make_bad:
            bad_cases += 1
            assert tier == "BAD", (direct, expected)
        else:
            assert tier != "BAD", (direct, expected)
    assert bad_cases >= 300
    print(f"PASS bad-rejection: {bad_cases} poisoned records all rejected "
          f"regardless of expected types and flags; 1100 cases total")


def test_property_sitelinks_scale_invariance(small_kb):
    rng = random.Random(0xAC83)
    labels = [r.label for r in small_kb.records]
    aliased = [r for r in small_kb.records if r.aliases]
    described = [r for r in small_kb.records if r.description]
    mentions = [rng.choice(labels) for _ in range(250)]
    mentions += [rng.choice(rng.choice(aliased).aliases) for _ in range(50)]
    mentions += [
        f"{rng.choice(labels).split()[0]} {rng.choice(labels).split()[-1]}"
        for _ in range(50)]

    def snapshot(index, mention, mode, ctx):
        result = link(mention, mode, index, small_kb.closure, small_kb.config,
                      context=ctx)
        chosen = result.chosen.record.id if result.chosen else None
        return (chosen, tuple(c.record.id for c in result.candidates))

    cases = 0
    for multiplier in (2, 7, 1000):
        scaled_index = Index(
            r._replace(sitelinks_count=r.sitelinks_count * multiplier)
            for r in small_kb.records)
        for i, mention in enumerate(mentions):
            mode = HEADER if i % 4 == 0 else CELL
            ctx = rng.choice(described).description if i % 5 == 0 else None
            assert snapshot(small_kb.index, mention, mode, ctx) \
                == snapshot(scaled_index, mention, mode, ctx), \
                (mention, multiplier)
            cases += 1
    assert cases == 1050
    print("PASS sitelinks-scale-invariance: 1050/1050 cases keep the same "
          "decision and candidate order under x2, x7, and x1000 sitelinks")


def test_property_header_mode_never_demotes_properties(small_kb):
    rng = random.Random(0xAC84)
    prop_labels = [r.label for r in small_kb.records if r.id.is_property]
    item_labels = [r.label for r in small_kb.records if r.id.is_item]
    assert prop_labels
    pool = [rng.choice(prop_labels) for _ in range(600)]
    pool += [f"{rng.choice(prop_labels).split()[0]} "
             f"{rng.choice(item_labels).split()[-1]}" for _ in range(250)]
    pool += [rng.choice(item_labels) for _ in range(150)]
    assert len(pool) == 1000

    args = (small_kb.index, small_kb.closure, small_kb.config)
    with_properties = 0
    for mention in pool:
        as_cell = link(mention, CELL, *args)
        as_header = link(mention, HEADER, *args)
        cell_ids = [c.record.id for c in as_cell.candidates]
        head_ids = [c.record.id for c in as_header.candidates]
        assert set(cell_ids) == set(head_ids)
        cell_rank = {eid: i for i, eid in enumerate(cell_ids)}
        cell_score = {c.record.id: c.final_score for c in as_cell.candidates}
        saw_property = False
        for position, cand in enumerate(as_header.candidates):
            if cand.record.id.is_property:
                saw_property = True
                assert position <= cell_rank[cand.record.id], mention
                assert cand.final_score > cell_score[cand.record.id], mention
            else:
                assert cand.final_score == cell_score[cand.record.id], mention
        if saw_property:
            with_properties += 1
    assert with_properties >= 400
    print(f"PASS header-monotonicity: 1000/1000 mentions never rank a "
          f"property lower in header mode ({with_properties} cases had "
          f"property candidates)")


@pytest.fixture(scope="module")
def table_corpus(tmp_path_factory):
    """A corpus generated with enough tables to give >= 1000 cell cases."""
    return build_bundle(tmp_path_factory.mktemp("table_corpus"),
                        seed=23, n_items=6000, n_types=300, n_tables=48)


def test_property_literal_cells_never_linked(table_corpus):
    corpus = table_corpus
    cases = 0
    literal_cases = 0
    for meta in corpus.truth["tables"]:
        table = read_table(corpus.result.tables_dir / meta["file"])
        annotation = link_table(table, corpus.index, corpus.closure,
                                corpus.config)
        by_coord = annotation.by_coord()
        coords = [(-1, j, text) for j, text in enumerate(table.header_row)]
        coords += [(i, j, text) for i, row in enumerate(table.rows)
                   for j, text in enumerate(row)]
        for row, col, text in coords:
            cell = by_coord[(row, col)]  # every source cell must be annotated
            literal = detect_literal(text)
            cases += 1
            if literal is not None:
                literal_cases += 1
                assert cell.kind == "literal", (meta["table_id"], row, col)
                assert cell.entity_id is None
                assert cell.candidates == ()
                assert cell.literal == literal
            else:
                assert cell.kind != "literal", (meta["table_id"], row, col)
    assert cases >= 1000
    assert literal_cases >= 150
    print(f"PASS literal-isolation: {literal_cases} literal cells out of "
          f"{cases} stayed unlinked through both passes")


# --------------------------------------------------------------------------
# 10. the table pass equals its earlier, unoptimized form

def _tables_agree_with_the_earlier_pass(tables, index, closure, config,
                                        monkeypatch) -> Counter:
    """Assert that link_table, with and without a cache, annotates every
    table as o_link_table does. Counts the vertical tables, the pass-2
    re-rankings that changed a cell's choice, and the cells with more than
    ten candidates."""
    seen = Counter()
    o_boost = oracles._o_boost

    def counting_boost(result, *args):
        boosted = o_boost(result, *args)
        seen["flips"] += ((result.chosen and result.chosen.record.id)
                          != (boosted.chosen and boosted.chosen.record.id))
        return boosted

    monkeypatch.setattr(oracles, "_o_boost", counting_boost)
    cache = LinkCache()
    for table in tables:
        want = annotation_to_obj(o_link_table(table, index, closure, config))
        assert annotation_to_obj(link_table(table, index, closure, config)) \
            == want, table.table_id
        assert annotation_to_obj(link_table(
            table, index, closure, config, cache=cache)) == want
        seen["vertical"] += want["orientation"] == "vertical"
        seen["long"] += sum(len(a["candidates"]) > 10
                            for a in want["headers"] + want["cells"])
    return seen


def test_link_table_agrees_with_the_earlier_table_pass(tmp_path_factory,
                                                       monkeypatch):
    corpus = build_bundle(tmp_path_factory.mktemp("kb_tables40"), seed=7,
                          n_items=2000, n_types=120, n_tables=40)
    tables = [read_table(corpus.result.tables_dir / meta["file"])
              for meta in corpus.truth["tables"]]
    assert len(tables) == 40
    seen = _tables_agree_with_the_earlier_pass(
        tables, corpus.index, corpus.closure, corpus.config, monkeypatch)
    assert seen["vertical"] >= 5 and seen["flips"] >= 5, seen


def _skew_tables(rng: random.Random, records, n: int) -> list[Table]:
    """n tables whose cells are mostly labels ending in a shared noun, or
    probes of a word and a noun, which merge long posting lists; a few are
    literals. Every other table has literal rows, so some are vertical."""
    nouned = [r.label for r in records if r.label.split()[-1] in SKEW_NOUNS]
    words = [r.label.split()[0] for r in records[:5000]]

    def cell() -> str:
        x = rng.random()
        if x < 0.5:
            return rng.choice(nouned)
        if x < 0.85:
            return f"{rng.choice(words)} {rng.choice(SKEW_NOUNS)}"
        return rng.choice(["12", "3.5%", "NCT01234567", "", "n/a", "2021"])

    tables = []
    for t in range(n):
        width = rng.randint(2, 5)
        rows = [[cell() for _ in range(width)] for _ in range(rng.randint(2, 7))]
        if t % 2:
            rows[1:] = [[str(rng.randint(1, 999)) for _ in range(width)]
                        if rng.random() < 0.6 else row for row in rows[1:]]
        header = [rng.choice(SKEW_NOUNS) for _ in range(width)]
        tables.append(Table(f"skew{t}", "", header, rows))
    return tables


def test_link_table_agrees_with_the_earlier_table_pass_under_skew(
        skew_kb, big_kb, monkeypatch):
    tables = _skew_tables(random.Random(0xAC10), skew_kb.records, 30)
    seen = _tables_agree_with_the_earlier_pass(
        tables, skew_kb.index, big_kb.closure, big_kb.config, monkeypatch)
    assert seen["long"] >= 100 and seen["vertical"] >= 3, seen
