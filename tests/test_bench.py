import pytest

from tablink import (
    EntityId,
    Index,
    ItemRecord,
    bench,
    build_closure,
    link,
    parse_config_obj,
    project_corpus_days,
    validate_config,
)

q = EntityId.parse

CONFIG = validate_config(parse_config_obj({
    "type_dictionary": {"good-type": ["Q100"]},
    "tiers": {"good": ["good-type"]},
}))
CLOSURE = build_closure([])


def make_index():
    records = [ItemRecord(id=q(f"Q{i + 1}"), label=f"item number{i + 1}",
                          direct_types=(q("Q100"),) if i % 2 == 0 else (),
                          sitelinks_count=i % 30)
               for i in range(40)]
    return Index(records)


MENTIONS = [f"item number{i + 1}" for i in range(30)]


def test_backends_agree_and_projection_matches():
    index = make_index()
    report = bench(MENTIONS, index, CLOSURE, CONFIG,
                   online_latencies=(0.0, 0.0), projection=(120000, 10, 30))
    assert report.mentions_timed == 30
    assert report.skipped == 0
    assert report.mismatches == 0
    assert report.projected_days == pytest.approx(416.6667, abs=1e-3)
    assert report.projected_days == project_corpus_days(120000, 10, 30)
    # Identical backends: the ratio is timing noise around 1.
    assert 0.05 < report.speedup < 20


def test_injected_latency_shows_up_in_medians():
    index = make_index()
    report = bench(MENTIONS[:5], index, CLOSURE, CONFIG,
                   online_latencies=(0.01, 0.02))
    assert report.online_candidate_s >= 0.01
    assert report.online_type_s >= 0.02
    assert report.online_total_s >= 0.03
    assert report.offline_total_s < 0.01
    assert report.speedup > 3
    assert report.mismatches == 0


def test_scale_multiplies_delays():
    index = make_index()
    report = bench(MENTIONS[:3], index, CLOSURE, CONFIG,
                   online_latencies=(0.1, 0.1), scale=0.1)
    assert 0.02 <= report.online_total_s < 0.1


def test_unsearchable_mentions_are_skipped_not_fatal():
    index = make_index()
    mentions = ["item number1", "of the", "", "   ", "item number2"]
    report = bench(mentions, index, CLOSURE, CONFIG,
                   online_latencies=(0.0, 0.0))
    # Blank strings are dropped before timing; the stopword-only mention is
    # skipped by the backend.
    assert report.mentions_timed == 2
    assert report.skipped == 1


def test_all_skipped_returns_zero_report():
    index = make_index()
    report = bench(["of the", "the of"], index, CLOSURE, CONFIG,
                   online_latencies=(0.0, 0.0))
    assert report.mentions_timed == 0
    assert report.skipped == 2
    assert report.speedup == 0.0
    assert report.projected_days is None


def test_report_obj_shape():
    index = make_index()
    report = bench(MENTIONS[:3], index, CLOSURE, CONFIG,
                   online_latencies=(0.0, 0.0), projection=(10, 10, 1.0))
    obj = report.to_obj()
    assert set(obj) == {"mentions_timed", "skipped", "mismatches", "offline",
                        "online", "speedup", "projected_days"}
    assert set(obj["offline"]) == {"candidate_s", "type_s", "total_s"}
    assert set(obj["online"]) == {"candidate_s", "type_s", "total_s"}
    assert obj["projected_days"] == pytest.approx(100 / 86400)


def test_backend_results_match_direct_link_calls():
    index = make_index()
    report = bench(MENTIONS, index, CLOSURE, CONFIG,
                   online_latencies=(0.0, 0.0))
    assert report.mismatches == 0
    for mention in MENTIONS[:5]:
        result = link(mention, "cell", index, CLOSURE, CONFIG)
        assert result.chosen is not None


def test_project_corpus_days_values():
    assert project_corpus_days(1, 1, 86400.0) == 1.0
    assert project_corpus_days(0, 10, 30) == 0.0
    assert project_corpus_days(120000, 10, 30) == pytest.approx(416.6667, abs=1e-3)
