"""Transitive type-hierarchy closure.

Materializes, for every type node, the full set of strict ancestors reachable
through subclass_of (items) or subproperty_of (properties) edges, so that
"instance of T, direct or inherited" is a set lookup at link time.
"""

from __future__ import annotations

import hashlib
import logging
from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from pathlib import Path

from .errors import InvalidEntityId, ParseError
from .kb import EntityId, ItemRecord, TypeEdge, parse_id_list

log = logging.getLogger(__name__)


class TypeClosure:
    """Immutable ancestor map. Self is excluded even inside cycles; members
    of a cycle are mutual ancestors. No cross-kind ancestry by construction."""

    def __init__(self, ancestors: Mapping[EntityId, frozenset[EntityId]],
                 rejected_edges: tuple[TypeEdge, ...] = ()):
        self._ancestors = dict(ancestors)
        self.rejected_edges = rejected_edges

    def __contains__(self, type_id: EntityId) -> bool:
        return type_id in self._ancestors

    def __len__(self) -> int:
        return len(self._ancestors)

    def nodes(self) -> list[EntityId]:
        return sorted(self._ancestors)

    def ancestors_of(self, type_id: EntityId) -> frozenset[EntityId]:
        return self._ancestors.get(type_id, frozenset())

    def reaches(self, child: EntityId, ancestor: EntityId) -> bool:
        return ancestor in self._ancestors.get(child, frozenset())

    def lines(self) -> Iterator[str]:
        """Canonical text form, one line per node: the node id, then its
        ancestors in ascending order, space-separated."""
        for node in self.nodes():
            ancestors = sorted(self._ancestors[node])
            yield " ".join([node.raw] + [a.raw for a in ancestors]) + "\n"

    @cached_property
    def digest(self) -> str:
        """sha256 of the canonical lines, equal to the hash of the file
        write_closure() writes. Rejected edges do not count."""
        h = hashlib.sha256()
        for line in self.lines():
            h.update(line.encode("utf-8"))
        return h.hexdigest()


def build_closure(edges: Iterable[TypeEdge],
                  extra_nodes: Iterable[EntityId] = ()) -> TypeClosure:
    """Compute full reachability over the kind-consistent edges.

    Cross-kind or unknown-relation edges are logged and skipped, never fatal.
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
    if rejected:
        log.warning("skipped %d cross-kind or unknown-relation type edge(s)",
                    len(rejected))

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


def has_type(record: ItemRecord, type_id: EntityId, closure: TypeClosure) -> bool:
    """True iff type_id is a direct type of the record or an ancestor of one.
    Ids absent from the closure simply have no ancestors."""
    for direct in record.direct_types:
        if direct == type_id or closure.reaches(direct, type_id):
            return True
    return False


def write_closure(path: str | Path, closure: TypeClosure) -> int:
    """Write closure.lines(); returns the node count."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        for line in closure.lines():
            fp.write(line)
            n += 1
    return n


def read_closure(path: str | Path) -> TypeClosure:
    """A line that is not ids raises ParseError naming the file and line."""
    ancestors = {}
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            try:
                ids = parse_id_list(line.split())
            except InvalidEntityId as exc:
                raise ParseError(f"{path}:{lineno}: bad line ({exc})") from exc
            if ids:
                ancestors[ids[0]] = frozenset(ids[1:])
    return TypeClosure(ancestors)
