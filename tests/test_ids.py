import json
import random

import pytest

from tablink import (
    ConfigError,
    EntityId,
    InvalidEntityId,
    ItemRecord,
    ParseError,
    TypeEdge,
    ingest_dump,
    load_config,
    read_annotation,
    read_edges,
    read_gold,
    read_records,
)
from tablink.kb import (
    edge_from_obj,
    edge_to_obj,
    record_from_obj,
    record_to_obj,
)


def test_parse_and_raw_round_trip():
    for raw in ("Q1", "Q808", "P31", "P1647", "Q0"):
        eid = EntityId.parse(raw)
        assert eid.raw == raw


@pytest.mark.parametrize("bad", ["", "Q", "P", "q5", "Q-1", "Q01", "X5",
                                 "Q1.5", " Q1", "Q1 ", "QP1", "1", "Q1a",
                                 "Q1\n", "P1\r\n"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(InvalidEntityId):
        EntityId.parse(bad)


def test_items_sort_before_properties():
    ids = [EntityId.parse(r) for r in ("P1", "Q90", "Q2", "P31")]
    assert [e.raw for e in sorted(ids)] == ["Q2", "Q90", "P1", "P31"]


def test_sort_is_numeric_not_lexicographic():
    assert EntityId.parse("Q9") < EntityId.parse("Q10")


def test_ids_sort_by_kind_then_number_random():
    rng = random.Random(4)
    ids = [EntityId(rng.choice(["item", "property"]), rng.randrange(1000))
           for _ in range(300)]
    written_out = sorted(ids, key=lambda e: (0 if e.kind == "item" else 1, e.num))
    assert sorted(ids) == written_out


def test_record_rejects_blank_label():
    with pytest.raises(ValueError):
        ItemRecord(id=EntityId.parse("Q1"), label="   ")


def test_record_dedupes_aliases_and_drops_label_repeat():
    rec = ItemRecord(id=EntityId.parse("Q1"), label="Alpha",
                     aliases=("alpha", "beta", "  BETA ", "gamma"))
    assert rec.aliases == ("beta", "gamma")


def test_record_dedupes_direct_types_and_rejects_property_type():
    q = EntityId.parse
    rec = ItemRecord(id=q("Q1"), label="x", direct_types=(q("Q5"), q("Q5")))
    assert rec.direct_types == (q("Q5"),)
    with pytest.raises(ValueError):
        ItemRecord(id=q("Q1"), label="x", direct_types=(q("P31"),))


def test_record_rejects_item_flagged_prop():
    q = EntityId.parse
    with pytest.raises(ValueError):
        ItemRecord(id=q("Q1"), label="x", flagged_props=frozenset({q("Q5")}))


def test_record_obj_round_trip():
    q = EntityId.parse
    rec = ItemRecord(id=q("Q12"), label="Measles", aliases=("rubeola",),
                     description="viral disease", direct_types=(q("Q18123741"),),
                     sitelinks_count=120, flagged_props=frozenset({q("P486")}))
    assert record_from_obj(record_to_obj(rec)) == rec


def test_edge_kind_consistency():
    q = EntityId.parse
    assert TypeEdge(q("Q1"), q("Q2"), "subclass_of").is_kind_consistent
    assert TypeEdge(q("P1"), q("P2"), "subproperty_of").is_kind_consistent
    assert not TypeEdge(q("Q1"), q("P2"), "subclass_of").is_kind_consistent
    assert not TypeEdge(q("P1"), q("Q2"), "subproperty_of").is_kind_consistent
    assert not TypeEdge(q("Q1"), q("Q2"), "part_of").is_kind_consistent


def test_edge_obj_round_trip():
    q = EntityId.parse
    edge = TypeEdge(q("Q5"), q("Q215627"), "subclass_of")
    assert edge_from_obj(edge_to_obj(edge)) == edge


@pytest.mark.parametrize("name, text", [
    ("records.jsonl", '{"id": "Q1\\n", "label": "x"}'),
    ("records.jsonl", '{"id": "Q1", "label": "x", "direct_types": ["Q5\\n"]}'),
    ("edges.jsonl", '{"child": "Q1", "parent": "Q2\\n", "relation": "subclass_of"}'),
    ("config.json", '{"type_dictionary": {"place": ["Q5\\n"]}}'),
    ("gold.jsonl", '{"table_id": "t", "row": 0, "col": 0, "expected": "Q1\\n"}'),
    ("annotation.json", json.dumps({
        "table_id": "t", "orientation": "horizontal", "dominant_types": {},
        "headers": [], "cells": [{"row": 0, "col": 0, "mention": "x",
                                  "outcome": {"kind": "nil"},
                                  "candidates": ["Q1\n"]}]})),
])
def test_readers_refuse_an_id_with_a_trailing_newline(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text + "\n", encoding="utf-8")
    reader = {"records.jsonl": lambda p: list(read_records(p)),
              "edges.jsonl": lambda p: list(read_edges(p)),
              "config.json": load_config, "gold.jsonl": read_gold,
              "annotation.json": read_annotation}[name]
    with pytest.raises((ParseError, ConfigError),
                       match=r"not a Q/P identifier: '[QP][0-9]\\n'"):
        reader(path)


def test_ingest_counts_an_id_with_a_trailing_newline_as_a_parse_error(tmp_path):
    dump = tmp_path / "dump.jsonl"
    dump.write_text(
        json.dumps({"id": "Q1", "labels": {"en": {"value": "alpha"}}}) + "\n"
        + json.dumps({"id": "Q2\n", "labels": {"en": {"value": "beta"}}}) + "\n",
        encoding="utf-8")
    stats = ingest_dump(dump, tmp_path / "r.jsonl", tmp_path / "e.jsonl")
    assert (stats.records_emitted, stats.parse_errors) == (1, 1)
