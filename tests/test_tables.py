import json
import random
import re
from collections import Counter

import pytest

import tablink.linker
import tablink.tables
from tablink import (
    EntityId,
    Index,
    ItemRecord,
    LinkCache,
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
    write_annotation,
)
from tablink.linker import (
    Diagnostics,
    LinkResult,
    ScoredCandidate,
    boost,
    scored_sort_key,
)
from tablink.tables import annotation_from_obj, annotation_to_obj, table_from_obj, table_to_obj

from fixture_kb import lineage_fixture
from oracles import o_detect_literal

q = EntityId.parse


LITERAL_CASES = [
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
]


@pytest.mark.parametrize("cell,want", LITERAL_CASES)
def test_detect_literal(cell, want):
    assert detect_literal(cell) == want


def _literal_fuzz(rng: random.Random, n: int) -> list[str]:
    """n strings near every literal kind's edges: trial ids, bases in both
    cases, signed and grouped numbers with % or a range dash, date shapes
    and free strings over the same alphabet, padded with whitespace, one in
    four with a character replaced or inserted."""
    digits = "0123456789"
    alphabet = [*digits, *"+-.,%–", *"ACGTUNacgtun", "NCT", "N/A", " ", "\t"]

    def run(chars: str, lo: int, hi: int) -> str:
        return "".join(rng.choices(chars, k=rng.randint(lo, hi)))

    def number() -> str:
        whole = (run(digits, 1, 3) + "".join("," + run(digits, 2, 4)
                                             for _ in range(rng.randint(1, 2)))
                 if rng.random() < 0.3 else run(digits, 0, 5))
        frac = "." + run(digits, 0, 3) if rng.random() < 0.4 else ""
        return rng.choice(["", "", "+", "-"]) + whole + frac

    def space() -> str:
        return rng.choice(["", "", "", " ", "  ", "\t", "\n"])

    makers = [
        lambda: "NCT" + run(digits, 7, 9),
        lambda: run("ACGTUNacgtun", 6, 12),
        lambda: number() + space() + "%",
        number,
        lambda: number() + space() + rng.choice("-–") + space() + number(),
        lambda: "-".join(run(digits, *rng.choice([(4, 4), (2, 2), (1, 3)]))
                         for _ in range(rng.randint(1, 3))),
        lambda: "-".join([run(digits, 4, 4), run(digits, 2, 2),
                          run(digits, 2, 2)]),
        lambda: "".join(rng.choices(alphabet, k=rng.randint(0, 10))),
    ]
    cells = []
    for _ in range(n):
        s = rng.choice(makers)()
        if rng.random() < 0.25:
            at = rng.randint(0, len(s))
            s = s[:at] + rng.choice(alphabet) + s[at + rng.randint(0, 1):]
        cells.append(space() + s + space())
    return cells


def test_detect_literal_matches_the_six_pattern_reference():
    cells = [cell for cell, _ in LITERAL_CASES]
    cells += _literal_fuzz(random.Random(0x11E7), 120_000)
    kinds = Counter()
    for cell in cells:
        want = o_detect_literal(cell)
        assert detect_literal(cell) == want, cell
        kinds[want] += 1
    # Every outcome, entity included, is drawn often.
    assert set(kinds) == {"EMPTY", "CLINICAL_TRIAL_ID", "SEQUENCE", "PERCENT",
                          "NUMBER", "DATE", None}
    assert min(kinds.values()) >= 1000, kinds


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


def test_read_table_refuses_a_repeated_key(tmp_path):
    """json.loads alone keeps the last "rows", and the table has no rows."""
    path = tmp_path / "t.json"
    path.write_text('{"table_id": "t", "headers": ["H1"], "rows": [["x"]], '
                    '"rows": []}', encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: bad "
                       r"document \(ValueError: repeated key 'rows'\)$"):
        read_table(path)


def test_read_table_csv(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("Name,Count\nalpha,1\nbeta\n", encoding="utf-8")
    table = read_table_csv(path)
    assert table.table_id == "grid"
    assert table.header_row == ("Name", "Count")
    assert table.rows == (("alpha", "1"), ("beta", ""))  # short row padded

    headerless = read_table_csv(path, has_header=False)
    assert headerless.table_id == "grid"
    assert headerless.header_row == ("col0", "col1")
    assert len(headerless.rows) == 3

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        read_table_csv(empty)


def test_read_table_csv_drops_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"Name,Count\nalpha,1\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for has_header in (True, False):
        assert (read_table_csv(marked, has_header)[1:]
                == read_table_csv(plain, has_header)[1:])
    assert read_table_csv(marked).header_row == ("Name", "Count")


@pytest.mark.parametrize("data, has_header", [
    pytest.param(b"\nalpha,1\n", True, id="blank-header-row"),
    pytest.param(b"\n\n", False, id="only-blank-rows"),
    pytest.param(b"Name,Count\nalpha,\xff\n", True, id="not-utf8"),
])
def test_read_table_csv_refuses_a_bad_file_naming_it(tmp_path, data,
                                                     has_header):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError,
                       match=f"^{re.escape(str(path))}: bad document "):
        read_table_csv(path, has_header=has_header)


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
    # A lighter type with a lower id loses to the tie above it, and a
    # heavier type wins over lower ids.
    sets.append((_vote_candidate("Q3", 0.25, ["Q100"]),))
    assert column_type_vote(sets, 0.3) == q("Q200")
    sets.append((_vote_candidate("Q4", 0.75, ["Q900"]),))
    assert column_type_vote(sets, 0.25) == q("Q900")


def _reference_vote(candidate_sets, threshold):
    """column_type_vote's rule, written plainly: a sum per type, then a
    generator over every candidate set for the support."""
    weights = {}
    for cands in candidate_sets:
        for cand in cands:
            for t in cand.record.direct_types:
                weights[t] = weights.get(t, 0.0) + cand.final_score
    if not weights:
        return None
    top = max(weights.values())
    winner = min(t for t, w in weights.items() if w == top)
    support = sum(any(winner in c.record.direct_types for c in cands)
                  for cands in candidate_sets)
    return winner if support / len(candidate_sets) >= threshold else None


def _reference_boost(result, hit, amount, min_link_score):
    """linker.boost's rule, written plainly: _replace and a sort by the
    sort key's fields, with no shared ranking step."""
    if not any(map(hit, result.candidates)):
        return result
    ranked = sorted(
        (c._replace(boosts=c.boosts + amount,
                    final_score=c.weighted_base + (c.boosts + amount))
         if hit(c) else c for c in result.candidates),
        key=lambda c: (-c.final_score, -c.record.sitelinks_count, c.record.id))
    below = sum(c.final_score < min_link_score for c in ranked)
    chosen = ranked[0] if ranked and ranked[0].final_score >= min_link_score \
        else None
    return LinkResult(result.mention, result.mode, chosen, tuple(ranked),
                      Diagnostics(*result.diagnostics[:2], below))


def _pool_candidate(n, types, base, boosts, sitelinks=0):
    return ScoredCandidate(
        record=ItemRecord(id=q(f"Q{n}"), label="x",
                          direct_types=tuple(q(t) for t in types),
                          sitelinks_count=sitelinks),
        match_tier="exact_label", type_tier="UNKNOWN",
        inferred_type_names=frozenset(), token_overlap=1.0, type_score=0.2,
        match_score=1.0, prominence=0.0, context_sim=0.0, boosts=boosts,
        weighted_base=base, final_score=base + boosts)


def test_column_type_vote_sums_in_candidate_order():
    # Q200's 0.1, 0.2, 0.3 sum to 0.6000000000000001 left to right and to
    # 0.6 right to left, where Q100's 0.6 would win the tie on its id.
    sets = [(_pool_candidate(1, ["Q200"], 0.1, 0.0),),
            (_pool_candidate(2, ["Q200"], 0.2, 0.0),),
            (_pool_candidate(3, ["Q200"], 0.3, 0.0),
             _pool_candidate(4, ["Q100"], 0.6, 0.0))]
    assert column_type_vote(sets, 0.5) == _reference_vote(sets, 0.5) == q("Q200")


def test_column_type_vote_and_boost_equal_their_reference_rules():
    rng = random.Random(37)
    # Eighths tie often and tenths round; a candidate has zero to three
    # direct types out of six, which its pool's other candidates share.
    scores = [i / 8 for i in range(9)] + [i / 10 for i in range(1, 10)]
    types = [f"Q{100 + i}" for i in range(6)]
    for _ in range(300):
        candidate_sets = [
            tuple(sorted((_pool_candidate(
                n, rng.sample(types, rng.randint(0, 3)), rng.choice(scores),
                rng.choice([0.0, 0.1, 0.3]), rng.choice([0, 1, 5]))
                for n in rng.sample(range(1, 40), rng.randint(0, 6))),
                key=scored_sort_key))
            for _ in range(rng.randint(1, 6))]
        threshold = rng.choice([0.0, 0.25, 0.5, 1.0])
        dominant = column_type_vote(candidate_sets, threshold)
        assert dominant == _reference_vote(candidate_sets, threshold)
        hit_type = dominant or q(rng.choice(types))
        amount, min_score = rng.choice(scores), rng.choice([0.25, 0.5, 0.75])
        for cands in candidate_sets:
            result = LinkResult("x", "cell", None, cands, Diagnostics(9, 3, 0))

            def hit(c):
                return hit_type in c.record.direct_types
            got = boost(result, hit, amount, min_score)
            want = _reference_boost(result, hit, amount, min_score)
            # Equal floats, down to their sign, and ties in id order.
            assert got == want
            assert [list(map(repr, c)) for c in got.candidates] == \
                [list(map(repr, c)) for c in want.candidates]


def _lineage_setup():
    records, closure, config, table = lineage_fixture()
    return Index(records), closure, config, table


def test_link_table_detects_each_distinct_string_once(monkeypatch):
    index, closure, config, _ = _lineage_setup()
    table = Table("repeats", "circulating variants",
                  ("Lineage", "Cases", "Lineage"),
                  (("B.1.1.7", "120", "P.1"),
                   ("B.1.1.7", "85", "120"),
                   ("P.1", "N/A", "B.1.1.7")))
    want = annotation_to_obj(link_table(table, index, closure, config))
    calls = []
    monkeypatch.setattr(tablink.tables, "detect_literal",
                        lambda cell: calls.append(cell) or detect_literal(cell))
    got = annotation_to_obj(link_table(table, index, closure, config))
    assert got == want
    distinct = {"Lineage", "Cases", "B.1.1.7", "P.1", "120", "85", "N/A"}
    assert Counter(calls) == Counter(distinct)


def test_link_table_links_each_repeated_cell_once(monkeypatch):
    index, closure, config, _ = _lineage_setup()
    table = Table("repeats", "circulating variants",
                  ("Lineage", "Lineage"),
                  (("B.1.1.7", "P.1"), ("B.1.1.7", "P.1"), ("P.1", "B.1.1.7")))
    want = annotation_to_obj(link_table(table, index, closure, config))
    calls = []
    real_link = tablink.linker.link
    monkeypatch.setattr(tablink.linker, "link",
                        lambda mention, mode, *rest: calls.append(
                            (mention, mode)) or real_link(mention, mode, *rest))
    cache = LinkCache()
    got = annotation_to_obj(link_table(table, index, closure, config,
                                       cache=cache))
    assert got == want
    assert len(calls) == len(set(calls)) == cache.misses
    assert cache.hits > 0


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
    return parse_config_obj({
        "type_dictionary": {},
        "tiers": {},
        "params": {"min_link_score": min_link_score},
    })


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


def test_pass2_counts_a_boosted_result_below_threshold_again(monkeypatch):
    index, closure, _, table = _lineage_setup()
    config = _strict_config(0.5)
    pairs = []

    def boost(result, *args):
        pairs.append((result, tablink.linker.boost(result, *args)))
        return pairs[-1][1]

    monkeypatch.setattr(tablink.tables, "boost", boost)
    link_table(table, index, closure, config)
    rescued = 0
    for before, after in pairs:
        assert after.diagnostics == before.diagnostics._replace(
            below_threshold=sum(c.final_score < 0.5 for c in after.candidates))
        rescued += before.chosen is None and after.chosen is not None
    # The three variant cells and the header, as in the test above.
    assert rescued == 4


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


def test_annotation_column_numbers_round_trip_past_nine():
    index, closure, config, table = _lineage_setup()
    obj = annotation_to_obj(link_table(table, index, closure, config))
    obj["dominant_types"] = {"0": None, "9": "Q1", "10": "Q2", "11": None}
    ann = annotation_from_obj(obj)
    assert ann.dominant_types == {0: None, 9: q("Q1"), 10: q("Q2"), 11: None}
    assert annotation_to_obj(ann) == obj


@pytest.mark.parametrize("section", ["cells", "headers"])
def test_annotation_refuses_two_cells_at_one_coordinate(tmp_path, section):
    # by_coord() would keep the last of the two, and eval would score it.
    index, closure, config, table = _lineage_setup()
    obj = annotation_to_obj(link_table(table, index, closure, config))
    obj["cells"].append(dict(obj[section][0], outcome={"kind": "nil"}))
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    message = (f"{path}: bad document "
               "(ValueError: two cells share one (row, col))")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        read_annotation(path)


@pytest.mark.parametrize("key", ["1_0", "01", "+1", "1 ", "\u0661"],
                         ids=["underscored", "padded", "signed", "spaced",
                              "arabic-indic-digit"])
def test_annotation_refuses_a_column_key_it_never_writes(key):
    index, closure, config, table = _lineage_setup()
    obj = annotation_to_obj(link_table(table, index, closure, config))
    obj["dominant_types"] = {key: None}
    with pytest.raises(ValueError, match="is not a column number"):
        annotation_from_obj(obj)
