"""Exact bytes of the record, edge and gold lines, the saved config, the
table annotations, and the `ingest`, `link` and `eval` payloads.

Everything is built from the hand-made fixture KBs, so the expected text does
not depend on the synthetic generator. A change to any string below changes a
file format or a CLI contract.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from tablink import (
    EntityId,
    GoldRecord,
    Index,
    Table,
    link_table,
    parse_config_obj,
    save_config,
    save_index,
    validate_config,
    write_annotation,
    write_closure,
    write_gold,
    write_records,
)
from tablink.cli import main

from fixture_kb import lineage_fixture, near_miss_fixture, virus_fixture


def _claim(target: str) -> dict:
    return {"rank": "normal",
            "mainsnak": {"snaktype": "value",
                         "datavalue": {"type": "wikibase-entityid",
                                       "value": {"id": target}}}}


def _doc(record, parents=(), flagged=()) -> dict:
    """An entity-dump document that ingests back to the record."""
    claims = {"P31": [_claim(t.raw) for t in record.direct_types]}
    if parents:
        claims["P279"] = [_claim(p) for p in parents]
    for prop in flagged:
        claims[prop] = [{"rank": "normal", "mainsnak": {"snaktype": "novalue"}}]
    return {
        "id": record.id.raw,
        "labels": {"en": {"value": record.label}},
        "aliases": {"en": [{"value": a} for a in record.aliases]},
        "descriptions": {"en": {"value": record.description}},
        "claims": claims,
        "sitelinks": {f"site{i}": {} for i in range(record.sitelinks_count)},
    }


INGEST_PAYLOAD = """\
{
  "docs_seen": 5,
  "records_emitted": 3,
  "skipped_no_label": 1,
  "edges_emitted": 2,
  "parse_errors": 1
}
"""
RECORD_LINES = (
    '{"id":"Q1333425","label":"Wuhan Institute of Virology",'
    '"aliases":["WIV"],"description":"research institute in wuhan",'
    '"direct_types":["Q31855"],"sitelinks_count":40,"flagged_props":["P486"]}\n'
    '{"id":"Q31855","label":"research institute","aliases":[],'
    '"description":"","direct_types":[],"sitelinks_count":5,"flagged_props":[]}\n'
    '{"id":"Q43229","label":"organization","aliases":[],'
    '"description":"","direct_types":[],"sitelinks_count":9,"flagged_props":[]}\n'
)
EDGE_LINES = (
    '{"child":"Q31855","parent":"Q43229","relation":"subclass_of"}\n'
    '{"child":"Q5","parent":"Q43229","relation":"subclass_of"}\n'
)


def test_ingest_payload_and_record_and_edge_lines(tmp_path, capsys):
    records, _, _ = near_miss_fixture()
    by_id = {r.id.raw: r for r in records}
    institute = replace(by_id["Q1333425"],
                        aliases=("WIV",), flagged_props={EntityId.parse("P486")})
    docs = [_doc(institute, flagged=("P486",)),
            _doc(by_id["Q31855"], parents=("Q43229",)),
            {"id": "Q5", "claims": {"P279": [_claim("Q43229")]}},
            _doc(by_id["Q43229"])]
    lines = ["["] + [json.dumps(d) + "," for d in docs] + ["{not json", "]"]
    (tmp_path / "dump.jsonl").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")

    assert main(["--manifest", str(tmp_path / "manifest.json"),
                 "ingest", "--dump", str(tmp_path / "dump.jsonl"),
                 "--out-records", str(tmp_path / "records.jsonl"),
                 "--out-edges", str(tmp_path / "edges.jsonl"),
                 "--watchlist", "P486,P50"]) == 0
    assert capsys.readouterr().out == INGEST_PAYLOAD
    assert (tmp_path / "records.jsonl").read_text(encoding="utf-8") == RECORD_LINES
    assert (tmp_path / "edges.jsonl").read_text(encoding="utf-8") == EDGE_LINES

    write_records(tmp_path / "written.jsonl",
                  [institute, by_id["Q31855"], by_id["Q43229"]])
    assert (tmp_path / "written.jsonl").read_text(encoding="utf-8") == RECORD_LINES


CONFIG_TEXT = """\
{
  "type_dictionary": {
    "facility": [
      "Q13226383"
    ],
    "location": [
      "Q17334923"
    ],
    "organization": [
      "Q43229"
    ]
  },
  "tiers": {
    "target": [
      "location"
    ],
    "near_miss": [
      "facility",
      "organization"
    ],
    "good": [],
    "ok": [],
    "bad": []
  },
  "near_miss_map": {
    "location": [
      "facility",
      "organization"
    ]
  },
  "property_inference": [
    {
      "if_property": "P486",
      "then_type_name": "facility"
    }
  ],
  "weights": {
    "w_type": 0.39999999999999997,
    "w_match": 0.3000000000000001,
    "w_prom": 0.19999999999999998,
    "w_ctx": 0.09999999999999999
  },
  "params": {
    "k": 7,
    "sample_size": 5,
    "support_threshold": 1.0,
    "min_link_score": 0.25,
    "header_property_boost": 0.1,
    "column_type_boost": 0.3,
    "header_column_boost": 0.1
  }
}
"""
CONFIG_HASH = "d3b57132220de3f7ce7677df4d29a5c9beba8a4f82c6ea4605292d25d8097f03"


def test_saved_config_and_content_hash(tmp_path):
    _, _, config = near_miss_fixture()
    config = validate_config(parse_config_obj({
        **config.to_obj(),
        "weights": {"w_type": 0.4, "w_match": 0.3, "w_prom": 0.2, "w_ctx": 0.1},
        "params": {"k": 7, "support_threshold": 1, "column_type_boost": 0.3},
        "property_inference": [{"if_property": "P486",
                                "then_type_name": "facility"}],
    }))
    save_config(tmp_path / "config.json", config)
    assert (tmp_path / "config.json").read_text(encoding="utf-8") == CONFIG_TEXT
    assert config.content_hash == CONFIG_HASH


GOLD_LINES = (
    '{"table_id":"lineage-table","row":-1,"col":0,"expected":"Q99518587"}\n'
    '{"table_id":"lineage-table","row":-1,"col":1,"expected":null}\n'
    '{"table_id":"lineage-table","row":0,"col":0,"expected":"Q106288060"}\n'
    '{"table_id":"lineage-table","row":0,"col":1,"expected":null}\n'
    '{"table_id":"lineage-table","row":1,"col":0,"expected":"Q105557391"}\n'
    '{"table_id":"lineage-table","row":1,"col":1,"expected":null}\n'
    '{"table_id":"lineage-table","row":2,"col":0,"expected":"Q105429541"}\n'
    '{"table_id":"lineage-table","row":2,"col":1,"expected":null}\n'
)


def _lineage_gold(table) -> list[GoldRecord]:
    q = EntityId.parse
    gold = [GoldRecord(table.table_id, -1, 0, q("Q99518587")),
            GoldRecord(table.table_id, -1, 1, None)]
    for row, expected in enumerate(("Q106288060", "Q105557391", "Q105429541")):
        gold += [GoldRecord(table.table_id, row, 0, q(expected)),
                 GoldRecord(table.table_id, row, 1, None)]
    return gold


def test_gold_lines(tmp_path):
    *_, table = lineage_fixture()
    assert write_gold(tmp_path / "gold.jsonl", _lineage_gold(table)) == 8
    assert (tmp_path / "gold.jsonl").read_text(encoding="utf-8") == GOLD_LINES


LINK_PAYLOAD = """\
{
  "mention": "virus",
  "mode": "cell",
  "chosen": {
    "record": {
      "id": "Q808",
      "label": "virus",
      "aliases": [],
      "description": "small infectious agent",
      "direct_types": [
        "Q6999053"
      ],
      "sitelinks_count": 180,
      "flagged_props": []
    },
    "match_tier": "exact_label",
    "type_tier": "UNKNOWN",
    "inferred_type_names": [],
    "token_overlap": 1.0,
    "type_score": 0.2,
    "match_score": 1.0,
    "prominence": 1.0,
    "context_sim": 0.7071067811865475,
    "boosts": 0.0,
    "weighted_base": 0.5960660171779821,
    "final_score": 0.5960660171779821
  },
  "candidates": [
    {
      "record": {
        "id": "Q808",
        "label": "virus",
        "aliases": [],
        "description": "small infectious agent",
        "direct_types": [
          "Q6999053"
        ],
        "sitelinks_count": 180,
        "flagged_props": []
      },
      "match_tier": "exact_label",
      "type_tier": "UNKNOWN",
      "inferred_type_names": [],
      "token_overlap": 1.0,
      "type_score": 0.2,
      "match_score": 1.0,
      "prominence": 1.0,
      "context_sim": 0.7071067811865475,
      "boosts": 0.0,
      "weighted_base": 0.5960660171779821,
      "final_score": 0.5960660171779821
    },
    {
      "record": {
        "id": "Q7041",
        "label": "virus",
        "aliases": [],
        "description": "miscellaneous homonym",
        "direct_types": [],
        "sitelinks_count": 41,
        "flagged_props": []
      },
      "match_tier": "exact_label",
      "type_tier": "UNKNOWN",
      "inferred_type_names": [],
      "token_overlap": 1.0,
      "type_score": 0.2,
      "match_score": 1.0,
      "prominence": 0.22777777777777777,
      "context_sim": 0.0,
      "boosts": 0.0,
      "weighted_base": 0.3741666666666667,
      "final_score": 0.3741666666666667
    }
  ],
  "diagnostics": {
    "retrieved": 12,
    "rejected_bad": 10,
    "below_threshold": 1
  }
}
"""


def test_link_payload_with_diagnostics(tmp_path, capsys):
    records, closure, config = virus_fixture()
    config = validate_config(parse_config_obj(
        {**config.to_obj(), "params": {"k": 12, "min_link_score": 0.4}}))
    save_index(Index(records), tmp_path / "index")
    write_closure(tmp_path / "closure.txt", closure)
    save_config(tmp_path / "config.json", config)
    assert main(["--manifest", str(tmp_path / "manifest.json"),
                 "link", "--mention", "Virus", "--context", "infectious agent",
                 "--index", str(tmp_path / "index"),
                 "--closure", str(tmp_path / "closure.txt"),
                 "--config", str(tmp_path / "config.json")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["diagnostics"] == {
        "retrieved": 12, "rejected_bad": 10, "below_threshold": 1}
    assert out == LINK_PAYLOAD


EVAL_PAYLOAD = """\
{
  "cells_with_gold": 4,
  "linked_cells": 4,
  "candidate_recall": 1.0,
  "precision": 1.0,
  "degenerate": false,
  "per_table": {
    "lineage-table": {
      "cells_with_gold": 4,
      "recall_hits": 4,
      "precision_hits": 4,
      "linked_cells": 4
    }
  }
}
"""


def test_eval_payload(tmp_path, capsys):
    records, closure, config, table = lineage_fixture()
    (tmp_path / "ann").mkdir()
    write_annotation(tmp_path / "ann" / "lineage.json",
                     link_table(table, Index(records), closure, config))
    write_gold(tmp_path / "gold.jsonl", _lineage_gold(table))
    assert main(["--manifest", str(tmp_path / "manifest.json"),
                 "eval", "--annotations", str(tmp_path / "ann"),
                 "--gold", str(tmp_path / "gold.jsonl")]) == 0
    assert capsys.readouterr().out == EVAL_PAYLOAD


ANNOTATION_TEXT = """\
{
  "cells": [
    {
      "candidates": [
        "Q106288060"
      ],
      "col": 0,
      "mention": "B.1.1.7",
      "outcome": {
        "final_score": 0.69,
        "id": "Q106288060",
        "kind": "entity",
        "label": "B.1.1.7"
      },
      "row": 0
    },
    {
      "candidates": [],
      "col": 1,
      "mention": "120",
      "outcome": {
        "kind": "literal",
        "literal": "NUMBER"
      },
      "row": 0
    },
    {
      "candidates": [
        "Q105557391"
      ],
      "col": 0,
      "mention": "B.1.351",
      "outcome": {
        "final_score": 0.69,
        "id": "Q105557391",
        "kind": "entity",
        "label": "B.1.351"
      },
      "row": 1
    },
    {
      "candidates": [],
      "col": 1,
      "mention": "85",
      "outcome": {
        "kind": "literal",
        "literal": "NUMBER"
      },
      "row": 1
    },
    {
      "candidates": [
        "Q105429541"
      ],
      "col": 0,
      "mention": "P.1",
      "outcome": {
        "final_score": 0.69,
        "id": "Q105429541",
        "kind": "entity",
        "label": "P.1"
      },
      "row": 2
    },
    {
      "candidates": [],
      "col": 1,
      "mention": "44",
      "outcome": {
        "kind": "literal",
        "literal": "NUMBER"
      },
      "row": 2
    }
  ],
  "dominant_types": {
    "0": "Q104450895",
    "1": null
  },
  "headers": [
    {
      "candidates": [
        "Q99518587",
        "Q1517820"
      ],
      "col": 0,
      "mention": "Lineage",
      "outcome": {
        "final_score": 0.54,
        "id": "Q99518587",
        "kind": "entity",
        "label": "pango nomenclature"
      },
      "row": -1
    },
    {
      "candidates": [],
      "col": 1,
      "mention": "Cases",
      "outcome": {
        "kind": "nil"
      },
      "row": -1
    }
  ],
  "orientation": "horizontal",
  "table_id": "lineage-table"
}
"""

# The table of test_link_table_vertical_coordinates with "Share" replaced by
# a header that normalizes to nothing, so its header-mode note is pinned too.
VERTICAL_TABLE = Table("lineage-vertical", "circulating variants",
                       ("Lineage", "B.1.1.7", "B.1.351", "P.1"),
                       (("Cases", "120", "85", "44"),
                        ("of the", "10%", "20%", "30%")))
VERTICAL_ANNOTATION_TEXT = """\
{
  "cells": [
    {
      "candidates": [
        "Q106288060"
      ],
      "col": 1,
      "mention": "B.1.1.7",
      "outcome": {
        "final_score": 0.69,
        "id": "Q106288060",
        "kind": "entity",
        "label": "B.1.1.7"
      },
      "row": -1
    },
    {
      "candidates": [
        "Q105557391"
      ],
      "col": 2,
      "mention": "B.1.351",
      "outcome": {
        "final_score": 0.69,
        "id": "Q105557391",
        "kind": "entity",
        "label": "B.1.351"
      },
      "row": -1
    },
    {
      "candidates": [
        "Q105429541"
      ],
      "col": 3,
      "mention": "P.1",
      "outcome": {
        "final_score": 0.69,
        "id": "Q105429541",
        "kind": "entity",
        "label": "P.1"
      },
      "row": -1
    },
    {
      "candidates": [],
      "col": 1,
      "mention": "120",
      "outcome": {
        "kind": "literal",
        "literal": "NUMBER"
      },
      "row": 0
    },
    {
      "candidates": [],
      "col": 2,
      "mention": "85",
      "outcome": {
        "kind": "literal",
        "literal": "NUMBER"
      },
      "row": 0
    },
    {
      "candidates": [],
      "col": 3,
      "mention": "44",
      "outcome": {
        "kind": "literal",
        "literal": "NUMBER"
      },
      "row": 0
    },
    {
      "candidates": [],
      "col": 1,
      "mention": "10%",
      "outcome": {
        "kind": "literal",
        "literal": "PERCENT"
      },
      "row": 1
    },
    {
      "candidates": [],
      "col": 2,
      "mention": "20%",
      "outcome": {
        "kind": "literal",
        "literal": "PERCENT"
      },
      "row": 1
    },
    {
      "candidates": [],
      "col": 3,
      "mention": "30%",
      "outcome": {
        "kind": "literal",
        "literal": "PERCENT"
      },
      "row": 1
    }
  ],
  "dominant_types": {
    "0": "Q104450895",
    "1": null,
    "2": null
  },
  "headers": [
    {
      "candidates": [
        "Q99518587",
        "Q1517820"
      ],
      "col": 0,
      "mention": "Lineage",
      "outcome": {
        "final_score": 0.54,
        "id": "Q99518587",
        "kind": "entity",
        "label": "pango nomenclature"
      },
      "row": -1
    },
    {
      "candidates": [],
      "col": 0,
      "mention": "Cases",
      "outcome": {
        "kind": "nil"
      },
      "row": 0
    },
    {
      "candidates": [],
      "col": 0,
      "mention": "of the",
      "note": "mention 'of the' normalizes to nothing linkable",
      "outcome": {
        "kind": "nil"
      },
      "row": 1
    }
  ],
  "orientation": "vertical",
  "table_id": "lineage-vertical"
}
"""


@pytest.mark.parametrize("vertical, expected", [
    (False, ANNOTATION_TEXT), (True, VERTICAL_ANNOTATION_TEXT)],
    ids=["horizontal", "vertical"])
def test_annotation_text(tmp_path, vertical, expected):
    records, closure, config, table = lineage_fixture()
    ann = link_table(VERTICAL_TABLE if vertical else table, Index(records),
                     closure, config)
    write_annotation(tmp_path / "ann.json", ann)
    assert (tmp_path / "ann.json").read_text(encoding="utf-8") == expected
