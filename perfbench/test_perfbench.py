"""Tests of the benchmark's own code: input generation, the tracer's
self-time arithmetic, the search reference and the calibrated clock.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

import calibrate
import reference
import tracing
import workloads
from tablink.evalbench import GoldRecord
from tablink.index import Index, search
from tablink.kb import EntityId, read_records
from tablink.synth import generate_synthetic_kb
from tablink.tables import CellAnnotation, TableAnnotation


@pytest.fixture(scope="module")
def small_kb(tmp_path_factory):
    return generate_synthetic_kb(tmp_path_factory.mktemp("kb"), seed=5,
                                 n_items=400, n_types=60, n_tables=2)


def _skewed(kb, tmp: Path, seed: int) -> tuple[bytes, int]:
    dst = tmp / f"skew{seed}.jsonl"
    changed = workloads.skew_dump(kb.dump_path, dst, seed, 0.3, 1.0)
    return dst.read_bytes(), changed


# generator -------------------------------------------------------------------

def test_skew_is_deterministic_per_seed(small_kb, tmp_path):
    a, n_a = _skewed(small_kb, tmp_path, 1)
    b, n_b = _skewed(small_kb, tmp_path, 1)
    c, _ = _skewed(small_kb, tmp_path, 2)
    assert a == b and n_a == n_b
    assert a != c


def test_skew_rewrites_item_labels_only(small_kb, tmp_path):
    data, changed = _skewed(small_kb, tmp_path, 3)
    src = small_kb.dump_path.read_text(encoding="utf-8").splitlines()
    dst = data.decode("utf-8").splitlines()
    assert len(src) == len(dst)
    differ = [(s, d) for s, d in zip(src, dst) if s != d]
    assert len(differ) == changed > 0
    for s, d in differ:
        assert '"type":"item"' in s
        assert any(f' {noun}"' in d for noun in workloads.NOUNS)
    # Zipf with exponent 1 over ~100 rewritten labels: the head noun leads.
    counts = {n: sum(f' {n}"' in d for _, d in differ) for n in workloads.NOUNS}
    assert counts[workloads.NOUNS[0]] == max(counts.values())


def test_compose_tables_is_deterministic(small_kb, tmp_path):
    dump = tmp_path / "skew.jsonl"
    workloads.skew_dump(small_kb.dump_path, dump, 4, 0.3, 1.0)
    profile = workloads.Profile(items=400, types=60, gen_tables=2, tables=5,
                                skew_share=0.3, zipf_s=1.0, repeat_target=0.75)
    first = workloads.compose_tables(dump, tmp_path / "a", 4, profile)
    again = workloads.compose_tables(dump, tmp_path / "b", 4, profile)
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert len(first) == 5


# self-time arithmetic --------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0, 10) == 0
    assert tracing.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert tracing.covered([(4, 6), (4, 6)], 0, 10) == 2


def _span(sid, parent, start, end, pid=1):
    return {"pid": pid, "id": sid, "parent": parent, "name": f"s{sid}",
            "start": start, "end": end}


def test_self_time_subtracts_children_once():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),    # overlaps its sibling (worker threads)
        _span(4, 2, 1.5, 2.0),    # grandchild: charged to span 2, not 1
        _span(1, None, 0.0, 1.0, pid=2),   # same id, other process
    ]
    selfs = tracing.self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(5.0)
    assert selfs[(1, 2)] == pytest.approx(2.5)
    assert selfs[(1, 3)] == pytest.approx(3.0)
    assert selfs[(1, 4)] == pytest.approx(0.5)
    assert selfs[(2, 1)] == pytest.approx(1.0)


def test_tracer_records_parents_requests_and_counters(tmp_path):
    mod = types.ModuleType("perfbench_fake")

    class Table:
        table_id = "t7"

    def inner(x):
        return x + 1

    def outer(table):
        return mod.inner(1) + mod.hot() + mod.hot()

    mod.inner, mod.outer, mod.hot = inner, outer, lambda: 0
    sys.modules["perfbench_fake"] = mod
    tracer = tracing.Tracer("batch")
    tracer.install((("perfbench_fake", "outer", "outer", "table"),
                    ("perfbench_fake", "inner", "inner", "span"),
                    ("perfbench_fake", "hot", "hot", "count")))
    try:
        assert mod.outer(Table()) == 2
    finally:
        tracer.uninstall()
        del sys.modules["perfbench_fake"]
    assert mod.outer is outer and mod.inner is inner
    path = tmp_path / "t.jsonl"
    tracer.write(path)
    spans, counters = tracing.read_trace(path)
    by_name = {s["name"]: s for s in spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["request"] == "t7"
    assert by_name["outer"]["parent"] is None
    assert [(c["counter"], c["calls"]) for c in counters] == [("hot", 2)]


# reference and clock -----------------------------------------------------------

def test_linear_search_matches_index_on_gen_kb(small_kb):
    index = Index(read_records(small_kb.records_path))
    ref = reference.LinearSearch(small_kb.records_path)
    mentions = small_kb.mentions_path.read_text(encoding="utf-8").splitlines()
    checked = 0
    for m in mentions[:150]:
        if not reference.tokens(m):
            continue
        got = [(c.record.id.raw, c.match_tier, c.token_overlap)
               for c in search(index, m, 20)]
        assert ref.search(m, 20) == got, m
        checked += 1
    assert checked > 100


def _annotation(table_id, chosen, candidates):
    cell = CellAnnotation(row=0, col=0, mention="m", kind="entity",
                          entity_id=EntityId.parse(chosen), entity_label="m",
                          final_score=1.0,
                          candidates=tuple(map(EntityId.parse, candidates)))
    return TableAnnotation(table_id, "horizontal", {}, (), (cell,))


def test_gold_failures_flags_tables_below_full_precision_or_recall():
    gold = [GoldRecord("a", 0, 0, EntityId.parse("Q1")),
            GoldRecord("b", 0, 0, EntityId.parse("Q1")),
            GoldRecord("c", 0, 0, EntityId.parse("Q1")),
            GoldRecord("d", 0, 0, None)]
    anns = [_annotation("a", "Q1", ["Q1", "Q2"]),   # right link and candidate
            _annotation("b", "Q2", ["Q1", "Q2"]),   # wrong link
            _annotation("c", "Q1", ["Q2"]),         # expected not a candidate
            _annotation("d", "Q2", ["Q2"])]         # no gold link to check
    failures = reference.gold_failures(anns, gold)
    assert [f.split(":")[0] for f in failures] == ["b", "c"]


def test_clock_scales_by_kernel_time_around_the_call(monkeypatch):
    times = iter([2e-3, 4e-3])
    monkeypatch.setattr(calibrate, "kernel_seconds", lambda repeats=2: next(times))
    clock = calibrate.Clock()
    ticks = iter([10.0, 10.5])
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: next(ticks))
    result, raw, scaled = clock.time(lambda: "ok")
    assert result == "ok"
    assert raw == pytest.approx(0.5)
    # Mean kernel time around the call is 3 ms, so 0.5 s is 1/6 s at 1 ms.
    assert scaled == pytest.approx(0.5 * calibrate.REFERENCE_S / 3e-3)


@pytest.mark.skipif(not hasattr(calibrate.os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_cpus_kernel_seconds_visits_each_cpu_and_unpins(monkeypatch):
    allowed = calibrate.os.sched_getaffinity(0)
    visited = []
    monkeypatch.setattr(calibrate, "kernel_seconds", lambda repeats=2: (
        visited.append(frozenset(calibrate.os.sched_getaffinity(0))) or 1e-3))
    assert calibrate.cpus_kernel_seconds(repeats=2) == pytest.approx(1e-3)
    assert visited == [frozenset({c}) for c in sorted(allowed) for _ in (0, 1)]
    assert calibrate.os.sched_getaffinity(0) == allowed
