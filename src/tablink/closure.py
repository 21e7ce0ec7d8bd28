"""Transitive type-hierarchy closure.

Materializes, for every type node, the full set of strict ancestors reachable
through subclass_of (items) or subproperty_of (properties) edges, so that
"instance of T, direct or inherited" is a set lookup at link time.
"""

from __future__ import annotations

import hashlib
import io
from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from pathlib import Path

from .errors import ParseError
from .kb import (
    EntityId,
    TypeEdge,
    _id_parser,
    decode_lines,
)

_NO_IDS: frozenset[EntityId] = frozenset()


class TypeClosure:
    """Immutable ancestor map. Self is excluded even inside cycles; members
    of a cycle are mutual ancestors. No cross-kind ancestry by construction.
    It keeps its types_of() answers, and memo holds the linker's tables."""

    def __init__(self, ancestors: Mapping[EntityId, frozenset[EntityId]],
                 rejected_edges: tuple[TypeEdge, ...] = ()):
        self._ancestors = dict(ancestors)
        self.rejected_edges = rejected_edges
        # types_of() answers, by direct-types tuple.
        self._types: dict[tuple[EntityId, ...], frozenset[EntityId]] = {}
        self.memo: dict = {}

    def __contains__(self, type_id: EntityId) -> bool:
        return type_id in self._ancestors

    def __len__(self) -> int:
        return len(self._ancestors)

    def nodes(self) -> list[EntityId]:
        return sorted(self._ancestors)

    def ancestors_of(self, type_id: EntityId) -> frozenset[EntityId]:
        return self._ancestors.get(type_id, frozenset())

    def types_of(self, direct_types: tuple[EntityId, ...]) -> frozenset[EntityId]:
        """Every type an entity with these direct types has: the direct
        types plus every ancestor of one (ids absent from the closure have
        none). Answers are kept, so a repeat is one dict lookup."""
        types = self._types.get(direct_types)
        if types is None:
            types = frozenset(direct_types).union(
                *[self._ancestors.get(t, ()) for t in direct_types])
            self._types[direct_types] = types
        return types

    def lines(self) -> Iterator[str]:
        """Canonical text form, one line per node: the node id, then its
        ancestors in ascending order, space-separated."""
        for node in self.nodes():
            ancestors = sorted(self._ancestors[node])
            yield " ".join([node.raw] + [a.raw for a in ancestors]) + "\n"

    @cached_property
    def digest(self) -> str:
        """sha256 of the closure's own text: the bytes of the file
        read_closure() read or write_closure() wrote, which set it, or else
        of lines(). Any edit to a closure file changes it; rejected edges do
        not count."""
        return hashlib.sha256("".join(self.lines()).encode("utf-8")).hexdigest()


def build_closure(edges: Iterable[TypeEdge],
                  extra_nodes: Iterable[EntityId] = ()) -> TypeClosure:
    """Compute full reachability over the kind-consistent edges.

    Cross-kind or unknown-relation edges are skipped into rejected_edges.
    extra_nodes (typically every direct_types target seen in the records) are
    included with whatever ancestry the edges give them, or none.
    """
    parents: dict[EntityId, set[EntityId]] = {}
    nodes: set[EntityId] = set(extra_nodes)
    rejected = []
    for edge in edges:
        if not edge.is_kind_consistent:
            rejected.append(edge)
            continue
        nodes.add(edge.child)
        nodes.add(edge.parent)
        parents.setdefault(edge.child, set()).add(edge.parent)

    ancestors: dict[EntityId, frozenset[EntityId]] = {}
    for node in nodes:
        # BFS from the node's direct parents; reaching the node again via a
        # cycle never re-enqueues it, keeping self out of its own ancestry.
        seen: set[EntityId] = set()
        queue = deque(parents.get(node, ()))
        while queue:
            cur = queue.popleft()
            if cur in seen:
                continue
            seen.add(cur)
            queue.extend(p for p in parents.get(cur, ()) if p not in seen)
        seen.discard(node)
        ancestors[node] = frozenset(seen)
    return TypeClosure(ancestors, tuple(rejected))


def write_closure(path: str | Path, closure: TypeClosure) -> int:
    """Write closure.lines(); returns the node count."""
    data = "".join(closure.lines()).encode("utf-8")
    Path(path).write_bytes(data)
    closure.digest = hashlib.sha256(data).hexdigest()
    return len(closure)


def read_closure(path: str | Path) -> TypeClosure:
    """A line that is not ids, repeats an earlier line's node, or lists the
    node itself or an id of the other kind among its ancestors raises
    ParseError naming the file and line. So does a closure that is not
    transitively closed, naming the file and the node: an ancestor's own
    ancestors must be the node's too, or the node itself (in a cycle)."""
    ancestors: dict[EntityId, frozenset[EntityId]] = {}
    # Equal ids share one object, which the set tests below compare faster.
    parse_id = _id_parser()

    def decode(line: str) -> None:
        node, *rest = map(parse_id, line.split())
        if node in ancestors:
            raise ValueError(f"{node} already has a line")
        own = frozenset(rest)
        if node in own:
            raise ValueError(f"{node} is listed as its own ancestor")
        # Every token is an id, so only an id of the other kind holds the
        # other kind's letter.
        if ("P" if node.is_item else "Q") in line:
            raise ValueError(f"{node} has an ancestor of the other kind")
        ancestors[node] = own

    data = Path(path).read_bytes()
    for _ in decode_lines(path, io.BytesIO(data), decode):
        pass
    for node, own in ancestors.items():
        closed = own | {node}
        unclosed = [a for a in own if not ancestors.get(a, _NO_IDS) <= closed]
        if unclosed:
            raise ParseError(f"{path}: closure is not transitive: {node} lists "
                             f"{min(unclosed)} but not all of its ancestors")
    closure = TypeClosure(ancestors)
    closure.digest = hashlib.sha256(data).hexdigest()
    return closure
