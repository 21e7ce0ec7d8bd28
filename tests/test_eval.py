import random

import pytest

from tablink import (
    CellAnnotation,
    EntityId,
    GoldMismatch,
    GoldRecord,
    TableAnnotation,
    evaluate,
    read_gold,
    write_annotation,
    write_gold,
)
from tablink.cli import main

q = EntityId.parse


def entity_cell(row, col, chosen, candidates):
    return CellAnnotation(row, col, f"m{row}.{col}", "entity",
                          entity_id=q(chosen), entity_label="x",
                          final_score=0.5,
                          candidates=tuple(q(c) for c in candidates))


def nil_cell(row, col, candidates=()):
    return CellAnnotation(row, col, f"m{row}.{col}", "nil",
                          candidates=tuple(q(c) for c in candidates))


def literal_cell(row, col):
    return CellAnnotation(row, col, "42", "literal", literal="NUMBER")


def _fixture():
    """One table, ten scored gold cells: recall 8/10, precision 5/10."""
    cells = [
        # 5 correct links (recall + precision).
        entity_cell(0, 0, "Q1", ["Q1", "Q9"]),
        entity_cell(1, 0, "Q2", ["Q2"]),
        entity_cell(2, 0, "Q3", ["Q3", "Q8"]),
        entity_cell(3, 0, "Q4", ["Q4"]),
        entity_cell(4, 0, "Q5", ["Q5"]),
        # 2 wrong links whose candidate list still holds the answer (recall).
        entity_cell(5, 0, "Q99", ["Q99", "Q6"]),
        entity_cell(6, 0, "Q99", ["Q99", "Q7"]),
        # 1 NIL that at least retrieved the answer (recall, not linked).
        nil_cell(7, 0, ["Q8"]),
        # 1 wrong link that never retrieved the answer.
        entity_cell(8, 0, "Q99", ["Q99"]),
        # 1 NIL with nothing retrieved.
        nil_cell(9, 0),
        # 2 literal cells carrying expected-null gold.
        literal_cell(0, 1),
        literal_cell(1, 1),
    ]
    header = entity_cell(-1, 0, "Q50", ["Q50"])
    ann = TableAnnotation("t1", "horizontal", {0: None, 1: None},
                          (header,), tuple(cells))
    gold = [GoldRecord("t1", r, 0, q(f"Q{r + 1}")) for r in range(10)]
    gold += [GoldRecord("t1", 0, 1, None), GoldRecord("t1", 1, 1, None)]
    gold += [GoldRecord("t1", -1, 0, q("Q50"))]
    return ann, gold


def test_metrics_from_hand_counts():
    ann, gold = _fixture()
    report = evaluate([ann], gold)
    assert report.cells_with_gold == 11  # 10 body + header; nulls excluded
    assert report.candidate_recall == pytest.approx(9 / 11)
    assert report.precision == pytest.approx(6 / 11)
    assert report.linked_cells == 9
    assert not report.degenerate
    score = report.per_table["t1"]
    assert (score.cells_with_gold, score.recall_hits,
            score.precision_hits, score.linked_cells) == (11, 9, 6, 9)


def test_gold_order_and_annotation_order_do_not_matter():
    ann, gold = _fixture()
    base = evaluate([ann], gold)
    rng = random.Random(5)
    for _ in range(5):
        shuffled = gold[:]
        rng.shuffle(shuffled)
        assert evaluate([ann], shuffled) == base


def test_missing_coordinate_rejected():
    ann, gold = _fixture()
    with pytest.raises(GoldMismatch):
        evaluate([ann], gold + [GoldRecord("t1", 40, 40, q("Q1"))])
    with pytest.raises(GoldMismatch):
        evaluate([ann], [GoldRecord("other-table", 0, 0, q("Q1"))])


def test_duplicate_gold_coordinate_rejected():
    ann, gold = _fixture()
    with pytest.raises(GoldMismatch):
        evaluate([ann], gold + [gold[0]])
    # Duplicate expected-null coordinates are rejected too.
    with pytest.raises(GoldMismatch):
        evaluate([ann], gold + [GoldRecord("t1", 0, 1, None)])


def test_two_annotations_of_one_table_rejected(tmp_path, capsys):
    # Scoring either copy alone would make the report depend on input (for
    # eval --annotations DIR, file-name) order: these two score 6/11 and 1/11.
    ann, gold = _fixture()
    wrong = ann._replace(cells=tuple(
        c._replace(entity_id=q("Q99")) if c.kind == "entity" else c
        for c in ann.cells))
    for pair in ([ann, wrong], [wrong, ann], [ann, ann]):
        with pytest.raises(GoldMismatch, match="'t1'"):
            evaluate(pair, gold)
    write_annotation(tmp_path / "a.json", ann)
    write_annotation(tmp_path / "b.json", wrong)
    write_gold(tmp_path / "gold.jsonl", gold)
    code = main(["eval", "--annotations", str(tmp_path),
                "--gold", str(tmp_path / "gold.jsonl")])
    assert code == 1
    assert "error: two annotations of table 't1'" in capsys.readouterr().err


def test_all_null_gold_is_degenerate():
    ann, _ = _fixture()
    report = evaluate([ann], [GoldRecord("t1", 0, 1, None)])
    assert report.degenerate
    assert report.cells_with_gold == 0
    assert report.candidate_recall == 0.0
    assert report.precision == 0.0
    assert evaluate([ann], []).degenerate


def test_two_tables_aggregate():
    ann1, gold1 = _fixture()
    cells = (entity_cell(0, 0, "Q1", ["Q1"]),)
    ann2 = TableAnnotation("t2", "horizontal", {0: None},
                           (nil_cell(-1, 0),), cells)
    gold2 = [GoldRecord("t2", 0, 0, q("Q1"))]
    report = evaluate([ann1, ann2], gold1 + gold2)
    assert report.cells_with_gold == 12
    assert set(report.per_table) == {"t1", "t2"}
    assert report.per_table["t2"].precision_hits == 1
    assert report.candidate_recall == pytest.approx(10 / 12)


def test_gold_round_trip(tmp_path):
    gold = [
        GoldRecord("t1", -1, 0, q("P1193")),
        GoldRecord("t1", 0, 0, q("Q42")),
        GoldRecord("t1", 0, 1, None),
    ]
    path = tmp_path / "gold.jsonl"
    assert write_gold(path, gold) == 3
    assert read_gold(path) == gold
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3


def test_evaluation_matches_brute_force_on_synth(small_kb):
    # Independent recount of the generator gold against its own annotations.
    from tablink import link_table, read_table

    annotations = []
    for meta in small_kb.truth["tables"]:
        table = read_table(small_kb.dir / "tables" / meta["file"])
        annotations.append(link_table(table, small_kb.index, small_kb.closure,
                                      small_kb.config))
    report = evaluate(annotations, small_kb.gold)

    by_coord = {}
    for ann in annotations:
        for cell in ann.headers + ann.cells:
            by_coord[(ann.table_id, cell.row, cell.col)] = cell
    scored = [g for g in small_kb.gold if g.expected is not None]
    recall = sum(1 for g in scored
                 if g.expected in by_coord[(g.table_id, g.row, g.col)].candidates)
    precision = sum(1 for g in scored
                    if by_coord[(g.table_id, g.row, g.col)].kind == "entity"
                    and by_coord[(g.table_id, g.row, g.col)].entity_id == g.expected)
    assert report.cells_with_gold == len(scored)
    assert report.candidate_recall == pytest.approx(recall / len(scored))
    assert report.precision == pytest.approx(precision / len(scored))
