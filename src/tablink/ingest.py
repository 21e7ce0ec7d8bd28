"""Stream parser turning entity-dump JSON into item records and type edges.

Input is the newline-delimited entity-document subset: one JSON object per
line, with dump-array decoration (leading "[", trailing "]", trailing commas)
tolerated and stripped per line. Only the accepted fields are read; everything
else in a document is ignored.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError
from .kb import (
    SUBCLASS_OF,
    SUBPROPERTY_OF,
    EntityId,
    ItemRecord,
    TypeEdge,
    dump_json_line,
    edge_to_obj,
    record_to_obj,
    typed_field,
)

log = logging.getLogger(__name__)

@dataclass
class IngestStats:
    docs_seen: int = 0
    records_emitted: int = 0
    skipped_no_label: int = 0
    edges_emitted: int = 0
    parse_errors: int = 0

    def check(self) -> None:
        if self.docs_seen != self.records_emitted + self.skipped_no_label + self.parse_errors:
            raise AssertionError(f"inconsistent ingest stats: {self}")


def _claim_targets(statements, want_kind: str) -> list[EntityId]:
    """Ids of non-deprecated, entity-valued main claims of the wanted kind.
    somevalue/novalue snaks and other datavalue types contribute nothing."""
    targets = []
    for st in statements:
        if not isinstance(st, Mapping):
            raise ParseError("statement is not an object")
        if st.get("rank") == "deprecated":
            continue
        snak = st.get("mainsnak")
        if not isinstance(snak, Mapping) or snak.get("snaktype") != "value":
            continue
        dv = snak.get("datavalue")
        if not isinstance(dv, Mapping) or dv.get("type") != "wikibase-entityid":
            continue
        value = dv.get("value")
        if not isinstance(value, Mapping):
            raise ParseError("entityid datavalue without an object value")
        if "id" in value:
            target = EntityId.parse(value["id"])
        elif "numeric-id" in value:
            kind = typed_field(value, "entity-type", str, default="item")
            prefix = {"item": "Q", "property": "P"}.get(kind)
            if prefix is None:
                raise ParseError(f"entity-type {kind!r} is not item or property")
            target = EntityId.parse(prefix + str(typed_field(value, "numeric-id", int)))
        else:
            raise ParseError("entityid datavalue without id or numeric-id")
        if target.kind == want_kind:
            targets.append(target)
    return targets


def _has_live_statement(statements) -> bool:
    return any(isinstance(st, Mapping) and st.get("rank") != "deprecated"
               for st in statements)


def parse_entity_doc(doc: Mapping,
                     watchlist: frozenset[EntityId] = frozenset(),
                     ) -> tuple[ItemRecord | None, list[TypeEdge]]:
    """Parse one entity document.

    Returns (record, edges). The record is None when the document has no
    English label; type edges are extracted either way so the hierarchy stays
    complete over unlabeled intermediate classes. Raises ParseError on any
    malformed document.
    """
    try:
        if not isinstance(doc, Mapping):
            raise ParseError("document is not an object")
        entity_id = EntityId.parse(doc["id"])
        claims = doc.get("claims") or {}
        if not isinstance(claims, Mapping):
            raise ParseError("claims is not an object")

        edges = []
        if entity_id.is_item and "P279" in claims:
            for parent in _claim_targets(claims["P279"], "item"):
                edges.append(TypeEdge(entity_id, parent, SUBCLASS_OF))
        if entity_id.is_property and "P1647" in claims:
            for parent in _claim_targets(claims["P1647"], "property"):
                edges.append(TypeEdge(entity_id, parent, SUBPROPERTY_OF))

        label_entry = typed_field(doc.get("labels") or {}, "en", dict, default={})
        label = label_entry.get("value", "")
        if not label.strip():
            return None, edges

        alias_entries = typed_field(doc.get("aliases") or {}, "en", list, default=())
        aliases = tuple(a["value"] for a in alias_entries if a.get("value"))
        desc_entry = typed_field(doc.get("descriptions") or {}, "en", dict, default={})
        description = typed_field(desc_entry, "value", str, default="")

        direct_types = tuple(_claim_targets(claims["P31"], "item")) if "P31" in claims else ()
        flagged = frozenset(p for p in watchlist
                            if p.raw in claims and _has_live_statement(claims[p.raw]))
        sitelinks = doc.get("sitelinks") or {}
        if not isinstance(sitelinks, Mapping):
            raise ParseError("sitelinks is not an object")

        record = ItemRecord(
            id=entity_id,
            label=label,
            aliases=aliases,
            description=description,
            direct_types=direct_types,
            sitelinks_count=len(sitelinks),
            flagged_props=flagged,
        )
        return record, edges
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"malformed entity document: {exc}") from exc


def strip_decoration(line: str) -> str:
    """Remove dump-array decoration from one line. An empty result means the
    line held no document (pure decoration) and is not counted."""
    s = line.strip()
    if s.startswith("["):
        s = s[1:].lstrip()
    if s.endswith(","):
        s = s[:-1].rstrip()
    if s.endswith("]"):
        s = s[:-1].rstrip()
    return s


def ingest_dump(dump_path: str | Path,
                out_records: str | Path,
                out_edges: str | Path,
                watchlist: Iterable[EntityId] = ()) -> IngestStats:
    """Parse a dump file into record and edge files, one line at a time, so
    memory stays bounded by the longest line whatever the dump's size."""
    watch = frozenset(watchlist)
    stats = IngestStats()
    with open(dump_path, "rb") as dump_fp, \
            open(out_records, "w", encoding="utf-8", newline="\n") as rec_fp, \
            open(out_edges, "w", encoding="utf-8", newline="\n") as edge_fp:
        for raw in dump_fp:
            try:
                body = strip_decoration(raw.decode("utf-8"))
            except UnicodeDecodeError:
                body = None  # decoration is ASCII, so the line held a document
            if body == "":
                continue
            stats.docs_seen += 1
            try:
                if body is None:
                    raise ParseError("dump line is not UTF-8")
                record, edges = parse_entity_doc(json.loads(body), watch)
            except (json.JSONDecodeError, ParseError) as exc:
                stats.parse_errors += 1
                log.debug("skipping malformed dump line: %s", exc)
                continue
            for edge in edges:
                edge_fp.write(dump_json_line(edge_to_obj(edge)))
            stats.edges_emitted += len(edges)
            if record is None:
                stats.skipped_no_label += 1
            else:
                rec_fp.write(dump_json_line(record_to_obj(record)))
                stats.records_emitted += 1
    stats.check()
    return stats
