import hashlib
from pathlib import Path

import pytest

from tablink import (
    EntityId,
    classify_orientation,
    generate_synthetic_kb,
    read_table,
)

q = EntityId.parse


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _by_pattern(truth):
    grouped = {}
    for plant in truth["plants"]:
        grouped.setdefault(plant["pattern"], []).append(plant)
    return grouped


def test_generation_is_deterministic(tmp_path):
    a = generate_synthetic_kb(tmp_path / "a", seed=42, n_items=900,
                              n_types=60, n_tables=4)
    b = generate_synthetic_kb(tmp_path / "b", seed=42, n_items=900,
                              n_types=60, n_tables=4)
    assert _tree_hash(a.out_dir) == _tree_hash(b.out_dir)
    c = generate_synthetic_kb(tmp_path / "c", seed=43, n_items=900,
                              n_types=60, n_tables=4)
    assert _tree_hash(c.out_dir) != _tree_hash(a.out_dir)


@pytest.mark.parametrize("n_types", [0, 5, 59])
def test_generation_refuses_too_few_types(tmp_path, n_types):
    with pytest.raises(ValueError, match="n_types"):
        generate_synthetic_kb(tmp_path / "kb", n_items=50, n_types=n_types)
    assert not (tmp_path / "kb").exists()


def test_truth_counts_match_files(small_kb):
    truth = small_kb.truth
    counts = truth["counts"]
    assert counts["labeled"] == len(small_kb.records)
    assert len(truth["tables"]) == truth["n_tables"]
    dump_lines = [
        line for line in
        small_kb.result.dump_path.read_text(encoding="utf-8").splitlines()
        if line.strip() not in ("[", "]")
    ]
    # Every labeled, unlabeled, and malformed document is one dump line.
    assert len(dump_lines) == (counts["labeled"] + counts["unlabeled"]
                               + counts["malformed"])


def test_gold_covers_every_table_cell(small_kb):
    gold_coords = {(g.table_id, g.row, g.col) for g in small_kb.gold}
    for meta in small_kb.truth["tables"]:
        table = read_table(small_kb.dir / "tables" / meta["file"])
        want = {(table.table_id, -1, c) for c in range(len(table.header_row))}
        want |= {(table.table_id, r, c)
                 for r in range(len(table.rows))
                 for c in range(len(table.header_row))}
        covered = {k for k in gold_coords if k[0] == table.table_id}
        assert covered == want


def test_recorded_orientation_matches_classifier(small_kb):
    for meta in small_kb.truth["tables"]:
        table = read_table(small_kb.dir / "tables" / meta["file"])
        assert classify_orientation(table) == meta["orientation"]
    assert {m["orientation"] for m in small_kb.truth["tables"]} == {
        "horizontal", "vertical"}


def test_planted_items_exist_with_expected_structure(small_kb):
    by_id = {r.id: r for r in small_kb.records}
    plants = _by_pattern(small_kb.truth)
    for pattern in ("bad_twin", "tier_twin", "sitelink_twin", "alias_twin",
                    "column_vote", "header_prop", "expected_type_demo"):
        assert plants.get(pattern), f"no {pattern} plants seeded"

    for plant in plants["bad_twin"]:
        gold = by_id[q(plant["gold"])]
        twin = by_id[q(plant["other"])]
        assert gold.label == twin.label
        assert twin.sitelinks_count > gold.sitelinks_count

    for plant in plants["sitelink_twin"]:
        a, b = by_id[q(plant["gold"])], by_id[q(plant["other"])]
        assert a.label == b.label
        assert a.direct_types == b.direct_types
        assert a.sitelinks_count > b.sitelinks_count

    for plant in plants["alias_twin"]:
        gold = by_id[q(plant["gold"])]
        other = by_id[q(plant["other"])]
        assert gold.label != other.label
        assert gold.label in other.aliases
        assert gold.sitelinks_count == other.sitelinks_count

    for plant in plants["column_vote"]:
        gold = by_id[q(plant["gold"])]
        other = by_id[q(plant["other"])]
        assert gold.label == other.label
        assert gold.direct_types == (q(plant["column_type"]),)
        assert other.direct_types != gold.direct_types
        assert other.sitelinks_count > gold.sitelinks_count

    for plant in plants["header_prop"]:
        prop = by_id[q(plant["gold"])]
        item = by_id[q(plant["other"])]
        assert prop.id.kind == "property"
        assert item.id.kind == "item"
        assert item.label == prop.label
        assert item.sitelinks_count == prop.sitelinks_count == 0


def test_watch_property_flags_recorded(small_kb):
    flagged_truth = small_kb.truth["flagged"]
    assert flagged_truth
    watch = set(small_kb.truth["watch_props"])
    by_id = {r.id.raw: r for r in small_kb.records}
    for eid, props in flagged_truth.items():
        assert set(props) <= watch
        assert {p.raw for p in by_id[eid].flagged_props} == set(props)
    # No flags beyond the recorded ones.
    assert sum(1 for r in small_kb.records if r.flagged_props) == len(flagged_truth)


def test_adversarial_deprecated_claims_dropped(small_kb):
    # Items carrying only a deprecated bad-type claim must come out of ingest
    # with their clean types, not the bad one.
    ids = small_kb.truth["adversarial_ids"]
    assert len(ids) == small_kb.truth["counts"]["adversarial_deprecated"]
    assert ids
    bad_root = small_kb.config.type_dictionary["noise-class"][0]
    by_id = {r.id.raw: r for r in small_kb.records}
    for eid in ids:
        assert bad_root not in by_id[eid].direct_types


def test_mentions_file_nonempty_and_mixed(small_kb):
    mentions = small_kb.mentions
    assert len(mentions) > 500
    assert any(m != m.strip() or m.lower() != m for m in mentions)


def test_config_resolves_against_generated_types(small_kb):
    config = small_kb.config
    assert config.bad_ids
    assert config.good_ids
    for name in ("location", "facility", "organization"):
        assert config.resolve_names([name])
    for tid in config.bad_ids | config.good_ids | config.ok_ids:
        assert tid in small_kb.closure
