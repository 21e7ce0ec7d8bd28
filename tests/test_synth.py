import hashlib
from itertools import chain
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


# The sha256 of each file gen-kb writes, and of tables/ as _tree_hash gives
# it, per (seed, items, types, tables); (7, 2000, 120, 6) is the README
# quick start. A change to the generator's output must update these.
_PINNED = {
    (42, 900, 60, 4): {
        "config.json": "63b2dd72d483435f67cfeea0bd73af78ac3fbd58d04d8cffc5fd42f7f384de25",
        "dump.jsonl": "ab38e64193eb2060192f1d64fad11a29f4c21fd2a7cb7417fb60ae4bd99a38bc",
        "edges.jsonl": "a283619f855c95ab0263f7849ccba1570c5f578b40511fd64d897dade8916ff2",
        "gold.jsonl": "a64a42db1c2c8ca11b358b6438544904f9d254962320956ff42a32724789b839",
        "mentions.txt": "5b530a8f3e9ece4dc4b173aa3f264b975d1b45ad892f47abe434831a6c3d82d8",
        "records.jsonl": "4cb5c1b471af31e47366e26fff3c81740eb1e9768356f3600f8380d9b7bb5834",
        "truth.json": "4d8c379e81915418d8109232a6db62c8a62119ad0771e72a9faadb2aec5d0016",
        "tables": "9a63b95666be6557f0d62ae7c38e3127291057876750eae83224fe44e456905a",
    },
    (43, 900, 60, 4): {
        "config.json": "63b2dd72d483435f67cfeea0bd73af78ac3fbd58d04d8cffc5fd42f7f384de25",
        "dump.jsonl": "1de44650f1b6c01f44226a571518f2ec0b7f9ae90110f3918f509c13c533ed74",
        "edges.jsonl": "228a00308f8156d46e6dbcd3db309d6d8a0648b37b0030362cd079f3e216ecd6",
        "gold.jsonl": "67e9d10bdb6acc97948436a4cf70db6de58df47260dc1c496a428d19a90451e4",
        "mentions.txt": "33c2ead5e1d02a0fc197122823bd5a4ae4d6bf601cab9e627ad15383b37ebff7",
        "records.jsonl": "4c40453a37c69f40b3b04613f3360d40ecc13a851abc9deddc06501322cc7936",
        "truth.json": "d934f11bbb48d15d5e6c7062a32dc069cf5a674dcebc75476f255b24eb806fa4",
        "tables": "8f32186aa36175a220983ebc8a338ab649ed0cbae7c4984aaece6246536f003c",
    },
    (7, 2000, 120, 6): {
        "config.json": "6a053a332f1ff2b01f7e3a978184002db3db5111f8c9d6cbddcfa750776795a7",
        "dump.jsonl": "a8f1d9f8868ac8f57dc9ad5e263053d99b9da7069997c9711d7ca3458cd86a30",
        "edges.jsonl": "997cfc0307bd05dbf1ea3a8d32d44ba1fa59fd066a8c88d9cc4859bc3fef376d",
        "gold.jsonl": "37d57f92a8c5ee668394ee9c385817f5f28815e14cc46d9028f7ab9a5755f556",
        "mentions.txt": "e07ca15867d6cdb558e580ee62e9ad5d16c290dc2127d3e4655d8bbb95124c8f",
        "records.jsonl": "b594ce558b67e017b02aa8e10c29c28704f2b0cd24201ea6a7ea0e3e2b429be1",
        "truth.json": "9bc754dba82181eb066818063e95030c73569639134afe409bfef0988f994385",
        "tables": "f795c53285b1afb8c012943c2c1dc8487dac044cdd2859cc78bf27608df8ed87",
    },
}


def _file_hashes(result) -> dict[str, str]:
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in result.out_dir.iterdir() if path.is_file()}
    hashes["tables"] = _tree_hash(result.tables_dir)
    return hashes


def test_generation_is_deterministic(tmp_path):
    for (seed, items, types, tables), want in _PINNED.items():
        result = generate_synthetic_kb(tmp_path / str(seed), seed=seed,
                                       n_items=items, n_types=types,
                                       n_tables=tables)
        assert _file_hashes(result) == want, seed
    again = generate_synthetic_kb(tmp_path / "again", seed=42, n_items=900,
                                  n_types=60, n_tables=4)
    assert _file_hashes(again) == _PINNED[42, 900, 60, 4]


@pytest.mark.parametrize("n_types", [0, 5, 59])
def test_generation_refuses_too_few_types(tmp_path, n_types):
    with pytest.raises(ValueError, match="n_types"):
        generate_synthetic_kb(tmp_path / "kb", n_items=50, n_types=n_types)
    assert not (tmp_path / "kb").exists()


@pytest.mark.parametrize("size", [{"n_items": -5}, {"n_tables": -2},
                                  {"n_items": -1, "n_tables": -1}])
def test_generation_refuses_a_negative_size_before_any_write(tmp_path, size):
    with pytest.raises(ValueError, match="must be non-negative"):
        generate_synthetic_kb(tmp_path / "kb", n_types=60, **size)
    assert not (tmp_path / "kb").exists()


@pytest.mark.parametrize("size", [{"n_items": 2.5}, {"n_tables": True}])
def test_generation_refuses_a_size_that_is_not_an_int(tmp_path, size):
    with pytest.raises(TypeError, match="must be int, not"):
        generate_synthetic_kb(tmp_path / "kb", n_types=60, **size)
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
    assert config.resolve_names(config.tiers["bad"])
    assert config.resolve_names(config.tiers["good"])
    for name in ("location", "facility", "organization"):
        assert config.resolve_names([name])
    for tid in config.resolve_names(chain(*config.tiers.values())):
        assert tid in small_kb.closure
