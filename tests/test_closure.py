import random
import re

import pytest

from tablink import (
    ParseError,
    EntityId,
    TypeEdge,
    build_closure,
    read_closure,
    write_closure,
)

from oracles import o_read_closure, warshall_ancestors

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
    assert q("Q5") in closure.ancestors_of(q("Q1"))
    assert q("Q1") not in closure.ancestors_of(q("Q5"))


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


def test_types_of_is_direct_types_plus_their_ancestors():
    closure = build_closure([edge("Q10", "Q20"), edge("Q20", "Q30"),
                             edge("Q40", "Q20")])
    assert closure.types_of((q("Q10"),)) == {q("Q10"), q("Q20"), q("Q30")}
    assert closure.types_of((q("Q40"), q("Q99"))) == {
        q("Q40"), q("Q20"), q("Q30"), q("Q99")}
    assert closure.types_of(()) == set()
    # Answers are kept and shared between callers, so none can be changed.
    assert isinstance(closure.types_of((q("Q10"),)), frozenset)
    assert closure.types_of((q("Q10"),)) == {q("Q10"), q("Q20"), q("Q30")}


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


@pytest.mark.parametrize("text, reason", [
    ("Q1 Q2\nQ1 Q3\n", "Q1 already has a line"),
    ("Q2\nQ1 Q1 Q2\n", "Q1 is listed as its own ancestor"),
    ("Q2\nQ1 P2\n", "Q1 has an ancestor of the other kind"),
    ("P2\nP1 Q2\n", "P1 has an ancestor of the other kind"),
], ids=["repeated-node", "self-ancestor", "property-ancestor", "item-ancestor"])
def test_read_closure_refuses_what_build_closure_never_writes(tmp_path, text,
                                                              reason):
    path = tmp_path / "closure.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError,
                       match=rf"^{re.escape(str(path))}:2: bad line .*{reason}"):
        read_closure(path)


def test_read_closure_refuses_a_closure_that_is_not_transitive(tmp_path):
    path = tmp_path / "closure.txt"
    path.write_text("Q1 Q2\nQ2 Q3\nQ3\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: closure "
                       r"is not transitive: Q1 lists Q2 but not all of its "
                       r"ancestors$"):
        read_closure(path)
    # Members of a cycle list one another, and each is its own ancestor's
    # ancestor: that stays legal.
    path.write_text("Q1 Q2 Q3\nQ2 Q1 Q3\nQ3\n", encoding="utf-8")
    assert read_closure(path).types_of((q("Q1"),)) == {q("Q1"), q("Q2"), q("Q3")}


def test_every_closure_build_closure_writes_reads_back(tmp_path):
    rng = random.Random(20261018)
    path = tmp_path / "closure.txt"
    for _ in range(30):
        n = rng.randrange(3, 40)
        pairs = _random_edges(rng, n, rng.randrange(1, 3 * n))
        closure = build_closure(
            [edge(f"Q{a + 1}", f"Q{b + 1}") for a, b in pairs])
        write_closure(path, closure)
        assert read_closure(path).digest == closure.digest


def _closure_lines(rng) -> list[str]:
    """The lines of a random build_closure output: items and properties,
    cycles, cross-kind edges (skipped) and nodes without ancestors."""
    ids = ([f"Q{rng.randrange(1, 90)}" for _ in range(rng.randrange(1, 25))]
           + [f"P{rng.randrange(1, 40)}" for _ in range(rng.randrange(0, 8))])
    edges = [TypeEdge(q(a), q(b), "subproperty_of" if a[0] == "P"
                      else "subclass_of")
             for a, b in (rng.choices(ids, k=2)
                          for _ in range(rng.randrange(0, 3 * len(ids))))]
    return list(build_closure(edges, extra_nodes=[q(i) for i in ids]).lines())


def _mutated(rng, lines: list[str]) -> tuple[str, list[str]]:
    """One single-line mutation of lines, and its name."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    kind = rng.choice(["not-an-id", "other-kind", "repeated-node",
                       "own-ancestor", "dropped-ancestor", "spacing"])
    if kind == "not-an-id":
        tokens.insert(rng.randrange(len(tokens) + 1),
                      rng.choice(["Q01", "q5", "X3", "Q", "P-1", "Q1.5"]))
    elif kind == "other-kind":
        other = "P" if tokens[0][0] == "Q" else "Q"
        tokens.insert(rng.randrange(1, len(tokens) + 1),
                      f"{other}{rng.randrange(1, 90)}")
    elif kind == "repeated-node":
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice(lines).split()[0] + "\n")
    elif kind == "own-ancestor":
        tokens.insert(rng.randrange(1, len(tokens) + 1), tokens[0])
    elif kind == "dropped-ancestor" and len(tokens) > 1:
        del tokens[rng.randrange(1, len(tokens))]
    elif kind == "spacing":
        return kind, lines[:i] + [" \t".join(tokens) + " \r\n", "\n"] + lines[i + 1:]
    lines[i] = " ".join(tokens) + "\n"
    return kind, lines


def test_read_closure_matches_the_line_by_line_reference(tmp_path):
    """On build_closure outputs and single-line mutations of them,
    read_closure returns the reference's closure and digest, or refuses
    with its message."""
    rng = random.Random(20261019)
    path = tmp_path / "closure.txt"
    refused = set()
    for case in range(400):
        lines = _closure_lines(rng)
        kind, text = ("as-built", lines) if case % 4 == 0 else _mutated(rng, lines)
        path.write_text("".join(text), encoding="utf-8", newline="")
        try:
            expected = o_read_closure(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                read_closure(path)
            assert str(info.value) == str(exc), kind
            refused.add(kind)
            continue
        closure = read_closure(path)
        assert ({node: closure.ancestors_of(node) for node in closure.nodes()},
                closure.digest) == expected, kind
    assert refused == {"not-an-id", "other-kind", "repeated-node",
                       "own-ancestor", "dropped-ancestor"}
