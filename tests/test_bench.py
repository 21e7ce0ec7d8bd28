import pytest

import tablink.evalbench
import tablink.index
import tablink.linker
import tablink.text
from tablink import (
    EntityId,
    Index,
    ItemRecord,
    bench,
    build_closure,
    link,
    parse_config_obj,
    project_corpus_days,
)

q = EntityId.parse

CONFIG = parse_config_obj({
    "type_dictionary": {"good-type": ["Q100"]},
    "tiers": {"good": ["good-type"]},
})
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
                   online_latencies=(12.0, 18.0), projection=(120000, 10))
    assert report.mentions_timed == 30
    assert report.skipped == 0
    for side in (report.offline, report.online):
        assert side.projected_days == project_corpus_days(120000, 10,
                                                          side.total_s)
    assert report.online.projected_days == pytest.approx(416.6667, abs=1e-2)
    assert report.offline.projected_days < 1.0


def test_injected_latency_shows_up_in_medians():
    index = make_index()
    report = bench(MENTIONS[:5], index, CLOSURE, CONFIG,
                   online_latencies=(0.01, 0.02))
    off, on = report.offline, report.online
    assert on.candidate_s == pytest.approx(off.candidate_s + 0.01)
    assert on.type_s == pytest.approx(off.type_s + 0.02)
    assert on.total_s == pytest.approx(off.total_s + 0.03)
    assert off.total_s < 0.01
    assert report.speedup == pytest.approx(on.total_s / off.total_s)
    assert report.speedup > 3


def test_online_latency_is_modeled_not_slept(monkeypatch):
    def no_sleep(seconds):
        raise AssertionError(f"bench slept {seconds} s")

    monkeypatch.setattr("tablink.evalbench.time.sleep", no_sleep)
    index = make_index()
    report = bench(MENTIONS, index, CLOSURE, CONFIG,
                   online_latencies=(12.0, 18.0))
    assert report.mentions_timed == 30
    assert report.online.total_s >= 30.0


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
    assert report.offline.projected_days is None
    assert report.online.projected_days is None


def test_report_obj_shape():
    index = make_index()
    report = bench(MENTIONS[:3], index, CLOSURE, CONFIG,
                   online_latencies=(1.0, 0.0), projection=(10, 10))
    obj = report.to_obj()
    assert list(obj) == ["mentions_timed", "skipped", "offline", "online",
                         "speedup"]
    for side in ("offline", "online"):
        assert list(obj[side]) == ["candidate_s", "type_s", "total_s",
                                   "projected_days"]
    assert obj["online"]["projected_days"] == pytest.approx(
        100 * (1.0 + obj["offline"]["total_s"]) / 86400)


@pytest.mark.parametrize("kwargs, message", [
    ({"online_latencies": (-12, -18)}, "online_latencies"),
    ({"online_latencies": (12.0, float("nan"))}, "online_latencies"),
    ({"online_latencies": (float("inf"), 0.0)}, "online_latencies"),
    ({"projection": (-10, 5)}, "projection"),
    ({"projection": (10, 0)}, "projection"),
    ({"projection": (10, 10, 10)}, "projection"),
])
def test_bench_refuses_bad_latencies_and_projections_before_timing(
        kwargs, message):
    def mentions():
        raise AssertionError("bench read a mention")
        yield

    with pytest.raises(ValueError, match=message):
        bench(mentions(), make_index(), CLOSURE, CONFIG, **kwargs)


def test_backend_results_match_direct_link_calls():
    index = make_index()
    report = bench(MENTIONS, index, CLOSURE, CONFIG,
                   online_latencies=(0.0, 0.0))
    assert report.mentions_timed == len(MENTIONS)
    for mention in MENTIONS[:5]:
        result = link(mention, "cell", index, CLOSURE, CONFIG)
        assert result.chosen is not None


def test_bench_normalizes_each_mention_once(monkeypatch):
    # search and link_from_candidates both take the one normalize(mention),
    # as in link; a skipped mention is normalized once too.
    calls = []
    real = tablink.text.normalize
    counting = lambda text: calls.append(text) or real(text)  # noqa: E731
    for module in (tablink.evalbench, tablink.index, tablink.linker):
        monkeypatch.setattr(module, "normalize", counting, raising=False)
    mentions = [*MENTIONS[:3], "of the"]
    report = bench(mentions, make_index(), CLOSURE, CONFIG,
                   online_latencies=(0.0, 0.0))
    assert (report.mentions_timed, report.skipped) == (3, 1)
    assert calls == mentions


def test_project_corpus_days_values():
    assert project_corpus_days(1, 1, 86400.0) == 1.0
    assert project_corpus_days(0, 10, 30) == 0.0
    assert project_corpus_days(120000, 10, 30) == pytest.approx(416.6667, abs=1e-3)
