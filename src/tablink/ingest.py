"""Stream parser turning entity-dump JSON into item records and type edges.

Input is the newline-delimited entity-document subset: one JSON object per
line, with dump-array decoration (leading "[", trailing "]", trailing commas)
tolerated and stripped per line. Only the accepted fields are read; everything
else in a document is ignored.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from .errors import InvalidEntityId, ParseError
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


_OBJECT = (dict, Mapping)  # a dict, as json.loads makes, skips the ABC check


class IngestStats(NamedTuple):
    docs_seen: int
    records_emitted: int
    skipped_no_label: int
    edges_emitted: int
    parse_errors: int

    def check(self) -> None:
        if self.docs_seen != self.records_emitted + self.skipped_no_label + self.parse_errors:
            raise AssertionError(f"inconsistent ingest stats: {self}")


def _live_claims(statements) -> list[EntityId | None]:
    """One entry per non-deprecated statement: the id its entity-valued
    main claim targets, or None for a somevalue/novalue snak or another
    datavalue type. Raises ParseError on a malformed statement."""
    claims = []
    for st in statements:
        if not isinstance(st, _OBJECT):
            raise ParseError("statement is not an object")
        if st.get("rank") == "deprecated":
            continue
        claims.append(_claim_target(st.get("mainsnak")))
    return claims


def _claim_target(snak) -> EntityId | None:
    if not isinstance(snak, _OBJECT) or snak.get("snaktype") != "value":
        return None
    dv = snak.get("datavalue")
    if not isinstance(dv, _OBJECT) or dv.get("type") != "wikibase-entityid":
        return None
    value = dv.get("value")
    if not isinstance(value, _OBJECT):
        raise ParseError("entityid datavalue without an object value")
    if "id" in value:
        return EntityId.parse(value["id"])
    if "numeric-id" in value:
        kind = typed_field(value, "entity-type", str, default="item")
        prefix = {"item": "Q", "property": "P"}.get(kind)
        if prefix is None:
            raise ParseError(f"entity-type {kind!r} is not item or property")
        return EntityId.parse(prefix + str(typed_field(value, "numeric-id", int)))
    raise ParseError("entityid datavalue without id or numeric-id")


def _claim_targets(statements, want_kind: str) -> list[EntityId]:
    """Ids of non-deprecated, entity-valued main claims of the wanted kind.
    somevalue/novalue snaks and other datavalue types contribute nothing."""
    return [t for t in _live_claims(statements)
            if t is not None and t.kind == want_kind]


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
        if not isinstance(doc, _OBJECT):
            raise ParseError("document is not an object")
        entity_id = EntityId.parse(doc["id"])
        claims = doc.get("claims") or {}
        if not isinstance(claims, _OBJECT):
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
        description = desc_entry.get("value", "")

        direct_types = tuple(_claim_targets(claims["P31"], "item")) if "P31" in claims else ()
        # A watched property's statements are checked as P31's are.
        flagged = frozenset(p for p in watchlist
                            if p.raw in claims and _live_claims(claims[p.raw]))
        sitelinks = doc.get("sitelinks") or {}
        if not isinstance(sitelinks, _OBJECT):
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


# A sharded ingest gives each range at least this many bytes of the dump.
_MIN_RANGE = 1 << 20

# Compressed formats a dump ships in: magic number, name, decompressor.
_COMPRESSED = ((b"\x1f\x8b", "gzip", "zcat"), (b"BZh", "bzip2", "bzcat"),
               (b"\xfd7zXZ\x00", "xz", "xzcat"))


def ingest_dump(dump_path: str | Path,
                out_records: str | Path,
                out_edges: str | Path,
                watchlist: Iterable[EntityId] = ()) -> IngestStats:
    """Parse a dump file into record and edge files, one line at a time, so
    memory stays bounded by the longest line whatever the dump's size.

    A regular file of at least two _MIN_RANGE-byte ranges is cut into
    line-aligned byte ranges, one per CPU available. This process parses
    the first; a forked child parses each other range into temporary files
    next to out_records, which are then appended in range order. The files
    and the stats are byte for byte those of one pass over the dump. A
    watchlist id that is not a property id, or a dump that starts with a
    gzip, bzip2 or xz magic number, is refused before any output is opened.
    """
    watch = frozenset(watchlist)
    for eid in sorted(watch):
        if not eid.is_property:
            raise InvalidEntityId(f"watchlist id {eid} is not a property id")
    with open(dump_path, "rb") as dump_fp:
        head = dump_fp.peek(6)[:6]  # peek leaves a pipe's bytes unread
        for magic, name, tool in _COMPRESSED:
            if head.startswith(magic):
                raise ParseError(f"{dump_path}: a {name}-compressed dump; "
                                 f"decompress it first, for example: {tool} "
                                 f"{dump_path} | tablink ingest --dump /dev/stdin")
        points = _split_points(dump_fp)
        if len(points) < 3:
            with _outputs(out_records, out_edges) as outs:
                stats = _ingest_lines(dump_fp, *outs, watch)
        else:
            stats = _ingest_sharded(dump_path, dump_fp, points,
                                    out_records, out_edges, watch)
    stats.check()
    return stats


def _ingest_lines(lines: Iterable[bytes], rec_fp, edge_fp,
                  watch: frozenset[EntityId]) -> IngestStats:
    """Parse dump lines, writing each record and edge as it is read."""
    docs_seen = records_emitted = skipped_no_label = edges_emitted = parse_errors = 0
    for raw in lines:
        try:
            body = strip_decoration(raw.decode("utf-8"))
        except UnicodeDecodeError:
            body = None  # decoration is ASCII, so the line held a document
        if body == "":
            continue
        docs_seen += 1
        try:
            if body is None:
                raise ParseError("dump line is not UTF-8")
            record, edges = parse_entity_doc(json.loads(body), watch)
        except (json.JSONDecodeError, ParseError):
            parse_errors += 1
            continue
        for edge in edges:
            edge_fp.write(dump_json_line(edge_to_obj(edge)))
        edges_emitted += len(edges)
        if record is None:
            skipped_no_label += 1
        else:
            rec_fp.write(dump_json_line(record_to_obj(record)))
            records_emitted += 1
    return IngestStats(docs_seen, records_emitted, skipped_no_label,
                       edges_emitted, parse_errors)


@contextmanager
def _outputs(records: str | Path, edges: str | Path):
    with open(records, "w", encoding="utf-8", newline="\n") as rec_fp, \
            open(edges, "w", encoding="utf-8", newline="\n") as edge_fp:
        yield rec_fp, edge_fp


def _split_points(dump_fp) -> list[int]:
    """Offsets [0, ..., size] that cut the open dump into line-aligned
    ranges of at least _MIN_RANGE bytes, at most one per CPU. Fewer than
    three offsets mean one range: a small dump, one CPU, or a dump that is
    not a regular file (a pipe cannot be read twice), or no os.fork."""
    import stat
    info = os.fstat(dump_fp.fileno())
    size = info.st_size
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    n = min(cpus, size // _MIN_RANGE)
    if n < 2 or not hasattr(os, "fork") or not stat.S_ISREG(info.st_mode):
        return []
    points = [0]
    for i in range(1, n):
        # The range starts at the first line that starts at or after the
        # nominal offset: read on from the byte before it to a line end.
        dump_fp.seek(size * i // n - 1)
        dump_fp.readline()
        point = dump_fp.tell()
        if points[-1] < point < size:
            points.append(point)
    dump_fp.seek(0)
    return points + [size]


def _lines_in(dump_fp, start: int, end: int) -> Iterator[bytes]:
    """The lines of the dump between two line-aligned offsets."""
    dump_fp.seek(start)
    left = end - start
    for raw in dump_fp:
        yield raw
        left -= len(raw)
        if left <= 0:
            return


def _ingest_sharded(dump_path, dump_fp, points: list[int], out_records,
                    out_edges, watch: frozenset[EntityId]) -> IngestStats:
    """Parse points' first range here and each other range in a forked
    child, then append the children's files in order. On any failure every
    child is killed and reaped, and the temporary files are removed."""
    import tempfile
    with tempfile.TemporaryDirectory(prefix=".ingest-",
                                     dir=Path(out_records).parent) as tmp:
        pids: dict[int, int] = {}     # range i -> the child parsing it
        try:
            for i in range(1, len(points) - 1):
                pids[i] = _fork(dump_path, points[i], points[i + 1],
                                _parts(tmp, i), watch)
            with _outputs(out_records, out_edges) as outs:
                counts = [_ingest_lines(
                    _lines_in(dump_fp, 0, points[1]), *outs, watch)]
                for i in list(pids):
                    _, status = os.waitpid(pids[i], 0)
                    del pids[i]
                    *parts, stats_path = _parts(tmp, i)
                    report = (stats_path.read_text("utf-8", "replace")
                              if stats_path.exists() else "")
                    if status != 0 or not report.startswith("ok "):
                        raise ChildProcessError(
                            f"{dump_path}: parsing bytes {points[i]}-"
                            f"{points[i + 1]} failed in a worker process: "
                            f"{report or f'wait status {status}'}")
                    counts.append(tuple(map(int, report.split()[1:])))
                    for out, part in zip(outs, parts):
                        _append(out, part)
        finally:
            import signal
            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return IngestStats(*map(sum, zip(*counts)))


def _parts(tmp: str, i: int) -> tuple[Path, Path, Path]:
    """The records, edges and stats files of range i's child."""
    return tuple(Path(tmp, f"{i}.{kind}") for kind in
                 ("records", "edges", "stats"))


def _fork(dump_path, start: int, end: int, parts: tuple[Path, Path, Path],
          watch: frozenset[EntityId]) -> int:
    """Start a child parsing the dump's bytes start..end into the records
    and edges parts; before it exits it writes "ok" and its stats, or its
    error, to the stats part. The child opens its own handle on the dump
    (an inherited one shares its offset) and leaves through os._exit, so
    none of the caller's code runs in it. Returns its pid."""
    pid = os.fork()
    if pid == 0:
        status, report = 1, ""
        try:
            with open(dump_path, "rb") as dump_fp, _outputs(*parts[:2]) as outs:
                stats = _ingest_lines(_lines_in(dump_fp, start, end), *outs,
                                      watch)
            status, report = 0, " ".join(map(str, ["ok", *stats]))
        except BaseException as exc:
            # Reported to the parent, not raised: the child leaves only
            # through os._exit.
            report = f"{type(exc).__name__}: {exc}"
        finally:
            try:
                parts[2].write_text(report, "utf-8", "replace")
            finally:
                os._exit(status)
    return pid


def _append(out_fp, path: Path) -> None:
    """Append the bytes of the file at path to the text file out_fp, through
    its buffer once its own pending text is flushed."""
    import shutil
    out_fp.flush()
    with open(path, "rb") as src:
        shutil.copyfileobj(src, out_fp.buffer)
