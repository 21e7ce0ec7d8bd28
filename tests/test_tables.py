import re

import pytest

from tablink import (
    EntityId,
    Index,
    ItemRecord,
    ParseError,
    Table,
    classify_orientation,
    column_type_vote,
    detect_literal,
    link_table,
    parse_config_obj,
    read_annotation,
    read_table,
    read_table_csv,
    validate_config,
    write_annotation,
)
from tablink.linker import ScoredCandidate
from tablink.tables import annotation_from_obj, annotation_to_obj, table_from_obj, table_to_obj

from fixture_kb import lineage_fixture

q = EntityId.parse


@pytest.mark.parametrize("cell,want", [
    ("", "EMPTY"),
    ("   ", "EMPTY"),
    ("-", "EMPTY"),
    ("–", "EMPTY"),
    ("N/A", "EMPTY"),
    ("n/a", "EMPTY"),
    ("N/a", "EMPTY"),
    ("NCT04280705", "CLINICAL_TRIAL_ID"),
    ("NCT1234567", None),       # seven digits
    ("NCT123456789", None),     # nine digits
    ("ACGTACGT", "SEQUENCE"),
    ("acgtuNACGT", "SEQUENCE"),
    ("ACGTACG", None),          # seven bases
    ("ACGTACGX", None),
    ("12%", "PERCENT"),
    ("12.5 %", "PERCENT"),
    ("-3%", "PERCENT"),
    ("1,200%", "PERCENT"),
    ("42", "NUMBER"),
    ("-7", "NUMBER"),
    ("+3.14", "NUMBER"),
    (".5", "NUMBER"),
    ("1,234,567.89", "NUMBER"),
    ("1,23", None),             # broken thousands grouping
    ("10-20", "NUMBER"),
    ("1.5 – 2.5", "NUMBER"),
    ("2020", "NUMBER"),         # bare year: number check runs first
    ("03-2021", "NUMBER"),      # month-year parses as a numeric range first
    ("2021-03-04", "DATE"),
    ("2021-3-4", None),
    ("measles", None),
    ("B.1.1.7", None),
    ("12 apples", None),
])
def test_detect_literal(cell, want):
    assert detect_literal(cell) == want


def test_table_validation():
    with pytest.raises(ValueError):
        Table("t", "", (), ())
    with pytest.raises(ValueError):
        Table("t", "", ("a", "b"), (("1",),))
    table = Table("t", "cap", ["a", "b"], [["1", "2"]])
    assert table.header_row == ("a", "b")
    assert table.rows == (("1", "2"),)


def test_table_obj_round_trip():
    table = Table("t9", "caption", ("H1", "H2"), (("x", "1"), ("y", "2")))
    assert table_from_obj(table_to_obj(table)) == table


@pytest.mark.parametrize("text", [
    pytest.param("{nope", id="not-json"),
    pytest.param('{"table_id": "t"}', id="missing-fields"),
    pytest.param('{"table_id": "t", "headers": ["H1", "H2"], '
                 '"rows": [["alpha", 5]]}', id="numeric-cell"),
    pytest.param('{"table_id": "t", "headers": "ab", "rows": ["xy"]}',
                 id="string-headers-and-row"),
    pytest.param('{"table_id": "t", "headers": ["H1", "H2"], "rows": ["xy"]}',
                 id="string-row"),
    pytest.param('{"table_id": "t", "caption": null, "headers": ["H1"], '
                 '"rows": [["x"]]}', id="null-caption"),
    pytest.param('{"table_id": 7, "headers": ["H1"], "rows": [["x"]]}',
                 id="numeric-table-id"),
    pytest.param('{"table_id": "t", "headers": ["H1"], "rows": {"x": ["y"]}}',
                 id="object-rows"),
])
def test_read_table_rejects_bad_json(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
        read_table(path)


def test_read_table_csv(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("Name,Count\nalpha,1\nbeta\n", encoding="utf-8")
    table = read_table_csv(path)
    assert table.table_id == "grid"
    assert table.header_row == ("Name", "Count")
    assert table.rows == (("alpha", "1"), ("beta", ""))  # short row padded

    headerless = read_table_csv(path, has_header=False, table_id="t1")
    assert headerless.table_id == "t1"
    assert headerless.header_row == ("col0", "col1")
    assert len(headerless.rows) == 3

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        read_table_csv(empty)


def test_orientation_horizontal_and_vertical():
    horizontal = Table("h", "", ("Name", "Count"),
                       (("alpha", "1"), ("beta", "2"), ("gamma", "3")))
    assert classify_orientation(horizontal) == "horizontal"
    vertical = Table("v", "", ("Lineage", "B.1.1.7", "B.1.351", "P.1"),
                     (("Cases", "120", "85", "44"),
                      ("Share", "10%", "20%", "30%")))
    assert classify_orientation(vertical) == "vertical"


def test_orientation_ties_and_degenerate_go_horizontal():
    uniform = Table("u", "", ("a", "b"), (("x", "y"), ("z", "w")))
    assert classify_orientation(uniform) == "horizontal"
    headers_only = Table("e", "", ("a", "b"), ())
    assert classify_orientation(headers_only) == "horizontal"


def _vote_candidate(eid, final, types):
    record = ItemRecord(id=q(eid), label="x",
                        direct_types=tuple(q(t) for t in types))
    return ScoredCandidate(
        record=record, match_tier="exact_label", type_tier="UNKNOWN",
        inferred_type_names=frozenset(), token_overlap=1.0, type_score=0.2,
        match_score=1.0, prominence=0.0, context_sim=0.0, boosts=0.0,
        weighted_base=final, final_score=final)


def test_column_type_vote_weights_and_support():
    sets = [
        (_vote_candidate("Q1", 0.9, ["Q100"]), _vote_candidate("Q2", 0.3, ["Q200"])),
        (_vote_candidate("Q3", 0.8, ["Q100"]),),
        (_vote_candidate("Q4", 0.7, ["Q200"]),),
    ]
    # Q100 weight 1.7 in 2/3 of the cells; Q200 weight 1.0.
    assert column_type_vote(sets, 0.5) == q("Q100")
    assert column_type_vote(sets, 0.7) is None  # support 2/3 < 0.7
    assert column_type_vote([], 0.5) is None
    assert column_type_vote([()], 0.5) is None


def test_column_type_vote_tie_goes_to_lowest_id():
    sets = [
        (_vote_candidate("Q1", 0.5, ["Q300"]),),
        (_vote_candidate("Q2", 0.5, ["Q200"]),),
    ]
    assert column_type_vote(sets, 0.5) == q("Q200")


def _lineage_setup():
    records, closure, config, table = lineage_fixture()
    return Index(records), closure, config, table


def test_link_table_two_pass_header_flip():
    index, closure, config, table = _lineage_setup()
    ann = link_table(table, index, closure, config)
    assert ann.orientation == "horizontal"
    assert ann.dominant_types == {0: q("Q104450895"), 1: None}

    by_coord = ann.by_coord()
    header = by_coord[(-1, 0)]
    # Pass 1 prefers the generic exact-label item (match 1.0 vs alias 0.8);
    # the column's dominant type pulls the header to the nomenclature item.
    assert header.kind == "entity"
    assert header.entity_id == q("Q99518587")
    assert header.final_score == pytest.approx(0.44 + 0.10)
    assert q("Q1517820") in header.candidates

    for row, (variant, eid) in enumerate([("B.1.1.7", "Q106288060"),
                                          ("B.1.351", "Q105557391"),
                                          ("P.1", "Q105429541")]):
        cell = by_coord[(row, 0)]
        assert (cell.mention, cell.kind) == (variant, "entity")
        assert cell.entity_id == q(eid)
        # Single-candidate pool: prominence 1.0 regardless of sitelinks.
        # 0.45*0.2 + 0.25*1.0 + 0.15*1.0 + 0.20 column boost.
        assert cell.final_score == pytest.approx(0.69)

    cases_header = by_coord[(-1, 1)]
    assert cases_header.kind == "nil"  # nothing in the KB matches "Cases"
    assert cases_header.candidates == ()
    for row in range(3):
        number_cell = by_coord[(row, 1)]
        assert number_cell.kind == "literal"
        assert number_cell.literal == "NUMBER"


def test_link_table_literals_empty_and_errors():
    index, closure, config, _ = _lineage_setup()
    table = Table("t", "", ("Lineage", "Share"),
                  (("B.1.1.7", "10%"),
                   ("N/A", "20%"),
                   ("of the", "NCT04280705")))
    ann = link_table(table, index, closure, config)
    by_coord = ann.by_coord()
    assert by_coord[(1, 0)].kind == "literal"
    assert by_coord[(1, 0)].literal == "EMPTY"
    assert by_coord[(2, 1)].literal == "CLINICAL_TRIAL_ID"
    empty_mention = by_coord[(2, 0)]
    assert empty_mention.kind == "nil"
    assert empty_mention.note  # per-cell error recorded, table not aborted
    assert by_coord[(0, 0)].kind == "entity"


def _strict_config(min_link_score):
    return validate_config(parse_config_obj({
        "type_dictionary": {},
        "tiers": {},
        "params": {"min_link_score": min_link_score},
    }))


def test_link_table_nil_candidates_recorded():
    index, closure, _, _ = _lineage_setup()
    config = _strict_config(0.5)
    # Partial hit on the nomenclature item scores 0.29, below the raised
    # threshold; the candidate has no direct types, so no vote can rescue it.
    table = Table("t", "", ("Header",), (("pango zzgarbage",),))
    ann = link_table(table, index, closure, config)
    cell = ann.by_coord()[(0, 0)]
    assert cell.kind == "nil"
    assert cell.candidates == (q("Q99518587"),)


def test_pass2_rescues_below_threshold_cells():
    index, closure, _, table = _lineage_setup()
    config = _strict_config(0.5)
    ann = link_table(table, index, closure, config)
    by_coord = ann.by_coord()
    # Pass 1 leaves every variant cell at 0.49, a hair under the threshold,
    # but they still carry candidates, so the column vote sees them and the
    # +0.20 type boost lifts them back over the bar.
    assert ann.dominant_types[0] == q("Q104450895")
    for row, eid in enumerate(["Q106288060", "Q105557391", "Q105429541"]):
        cell = by_coord[(row, 0)]
        assert cell.kind == "entity"
        assert cell.entity_id == q(eid)
        assert cell.final_score == pytest.approx(0.69)
    # The header is rescued by the dominant-type token boost the same way.
    header = by_coord[(-1, 0)]
    assert header.kind == "entity"
    assert header.entity_id == q("Q99518587")
    assert header.final_score == pytest.approx(0.54)


def test_link_table_vertical_coordinates():
    index, closure, config, _ = _lineage_setup()
    table = Table("v", "circulating variants",
                  ("Lineage", "B.1.1.7", "B.1.351", "P.1"),
                  (("Cases", "120", "85", "44"),
                   ("Share", "10%", "20%", "30%")))
    ann = link_table(table, index, closure, config)
    assert ann.orientation == "vertical"
    by_coord = ann.by_coord()

    # Working headers are the original first column.
    header_coords = {(a.row, a.col) for a in ann.headers}
    assert header_coords == {(-1, 0), (0, 0), (1, 0)}

    # Original header cells beyond column 0 are body cells of the transpose.
    for col, eid in [(1, "Q106288060"), (2, "Q105557391"), (3, "Q105429541")]:
        cell = by_coord[(-1, col)]
        assert cell.kind == "entity"
        assert cell.entity_id == q(eid)
    assert by_coord[(0, 1)].literal == "NUMBER"
    assert by_coord[(1, 1)].literal == "PERCENT"
    # The transposed entity lane still votes a dominant type.
    assert q("Q104450895") in ann.dominant_types.values()


def test_annotation_round_trip(tmp_path):
    index, closure, config, table = _lineage_setup()
    ann = link_table(table, index, closure, config)
    again = annotation_from_obj(annotation_to_obj(ann))
    assert annotation_to_obj(again) == annotation_to_obj(ann)
    path = tmp_path / "ann.json"
    write_annotation(path, ann)
    assert annotation_to_obj(read_annotation(path)) == annotation_to_obj(ann)
