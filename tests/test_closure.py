import random
import re

import pytest

from tablink import (
    ParseError,
    EntityId,
    ItemRecord,
    TypeEdge,
    build_closure,
    has_type,
    read_closure,
    write_closure,
)

from oracles import warshall_ancestors

q = EntityId.parse


def edge(child, parent):
    c, p = q(child), q(parent)
    rel = "subclass_of" if c.is_item else "subproperty_of"
    return TypeEdge(c, p, rel)


def test_chain_and_diamond():
    closure = build_closure([
        edge("Q1", "Q2"), edge("Q2", "Q4"),
        edge("Q1", "Q3"), edge("Q3", "Q4"),
        edge("Q4", "Q5"),
    ])
    assert closure.ancestors_of(q("Q1")) == {q("Q2"), q("Q3"), q("Q4"), q("Q5")}
    assert closure.ancestors_of(q("Q4")) == {q("Q5")}
    assert closure.ancestors_of(q("Q5")) == frozenset()
    assert closure.reaches(q("Q1"), q("Q5"))
    assert not closure.reaches(q("Q5"), q("Q1"))


def test_cycle_members_are_mutual_ancestors_self_excluded():
    closure = build_closure([
        edge("Q1", "Q2"), edge("Q2", "Q3"), edge("Q3", "Q1"),
        edge("Q3", "Q9"),
    ])
    assert closure.ancestors_of(q("Q1")) == {q("Q2"), q("Q3"), q("Q9")}
    assert closure.ancestors_of(q("Q2")) == {q("Q1"), q("Q3"), q("Q9")}
    assert closure.ancestors_of(q("Q3")) == {q("Q1"), q("Q2"), q("Q9")}
    for node in ("Q1", "Q2", "Q3"):
        assert q(node) not in closure.ancestors_of(q(node))


def test_self_loop_contributes_nothing():
    closure = build_closure([edge("Q1", "Q1")])
    assert closure.ancestors_of(q("Q1")) == frozenset()
    assert q("Q1") in closure


def test_cross_kind_edges_rejected_and_counted():
    bad = TypeEdge(q("Q1"), q("P1"), "subclass_of")
    closure = build_closure([bad, edge("Q1", "Q2")])
    assert closure.rejected_edges == (bad,)
    assert q("P1") not in closure
    assert closure.ancestors_of(q("Q1")) == {q("Q2")}


def test_property_and_item_hierarchies_coexist():
    closure = build_closure([edge("Q1", "Q2"), edge("P1", "P2")])
    assert closure.ancestors_of(q("P1")) == {q("P2")}
    assert closure.ancestors_of(q("Q1")) == {q("Q2")}


def test_extra_nodes_included_without_ancestry():
    closure = build_closure([edge("Q1", "Q2")], extra_nodes=[q("Q50"), q("Q2")])
    assert q("Q50") in closure
    assert closure.ancestors_of(q("Q50")) == frozenset()
    assert len(closure) == 3


def test_write_read_round_trip(tmp_path):
    closure = build_closure([
        edge("Q1", "Q2"), edge("Q2", "Q3"), edge("P5", "P6"),
    ], extra_nodes=[q("Q40")])
    path = tmp_path / "closure.txt"
    n = write_closure(path, closure)
    assert n == len(closure) == 6
    text = path.read_text(encoding="utf-8")
    assert "Q1 Q2 Q3\n" in text
    assert "Q40\n" in text
    again = read_closure(path)
    assert again.nodes() == closure.nodes()
    for node in closure.nodes():
        assert again.ancestors_of(node) == closure.ancestors_of(node)


def test_has_type_direct_and_inherited():
    closure = build_closure([edge("Q10", "Q20"), edge("Q20", "Q30")])
    record = ItemRecord(id=q("Q1"), label="x", direct_types=(q("Q10"),))
    assert has_type(record, q("Q10"), closure)
    assert has_type(record, q("Q20"), closure)
    assert has_type(record, q("Q30"), closure)
    assert not has_type(record, q("Q99"), closure)
    untyped = ItemRecord(id=q("Q2"), label="y")
    assert not has_type(untyped, q("Q10"), closure)


def _random_edges(rng, n_nodes, n_edges):
    edges = []
    for _ in range(n_edges):
        a = rng.randrange(n_nodes)
        b = rng.randrange(n_nodes)
        edges.append((a, b))
    # Force at least one cycle through three random nodes.
    a, b, c = rng.sample(range(n_nodes), 3)
    edges += [(a, b), (b, c), (c, a)]
    return edges


def test_matches_matrix_reference_on_random_graphs():
    rng = random.Random(20260817)
    for _ in range(60):
        n = rng.randrange(3, 60)
        pairs = _random_edges(rng, n, rng.randrange(1, 3 * n))
        closure = build_closure(
            [edge(f"Q{a + 1}", f"Q{b + 1}") for a, b in pairs],
            extra_nodes=[q(f"Q{i + 1}") for i in range(n)])
        expect = warshall_ancestors(n, pairs)
        for i in range(n):
            got = {int(x.raw[1:]) - 1 for x in closure.ancestors_of(q(f"Q{i + 1}"))}
            assert got == expect[i], f"node {i} mismatch"


def test_read_closure_names_file_and_line_of_a_bad_line(tmp_path):
    path = tmp_path / "closure.txt"
    path.write_text("Q1 Q2\n\nQ2\nQ3 foo\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:4: bad line .*'foo'"):
        read_closure(path)
    path.write_text("Q1 Q2\n\nQ2\n", encoding="utf-8")
    closure = read_closure(path)
    assert closure.nodes() == [q("Q1"), q("Q2")]
    assert closure.ancestors_of(q("Q1")) == {q("Q2")}
