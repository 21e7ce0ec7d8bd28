"""Command-line entry point.

One binary, subcommand style. Standard output carries machine-readable
payloads only; all diagnostics go to standard error. Every run emits a small
manifest (subcommand, input hashes, versions, wall time) for reproducibility,
either to --manifest or to standard error.

Exit codes: 0 success, 1 validation or usage error, 2 I/O error. As a
process (the `tablink` console script, or `python -m tablink.cli`), the
command flushes standard output and standard error and then ends through
os._exit, without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path

from .closure import build_closure, read_closure, write_closure
from .errors import TablinkError
from .index import Index, load_index, save_index
from .kb import (
    EntityId,
    dump_json,
    load_config,
    read_direct_types,
    read_edges,
    read_lines,
    read_records,
    write_json,
)
from .linker import LinkCache, link, result_to_obj
from .tables import (
    annotation_to_obj,
    link_table,
    read_annotation,
    read_table,
    read_table_csv,
)
from .version import FORMAT_VERSION, __version__

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract here is 1."""

    def error(self, message):
        raise _UsageError(message)


def _emit(obj: dict, out: str | None, *, sort_keys: bool = False) -> None:
    if out:
        write_json(out, obj, sort_keys=sort_keys)
    else:
        sys.stdout.write(dump_json(obj, sort_keys=sort_keys))


def _load_table(path: str, has_header: bool):
    if path.lower().endswith(".csv"):
        return read_table_csv(path, has_header=has_header)
    return read_table(path)


def _comma_list(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [part.strip() for part in raw.split(",") if part.strip()]


def _numbers(raw: str | None, types: tuple[type, ...],
             valid: Callable[[float], bool], usage: str) -> tuple:
    """The comma-separated parts of raw, one per type, converted by it; each
    value must pass valid."""
    parts = _comma_list(raw)
    try:
        if len(parts) == len(types):
            values = tuple(t(part) for t, part in zip(types, parts))
            if all(map(valid, values)):
                return values
    except ValueError:
        pass
    raise _UsageError(usage)


def _count(raw: str) -> int:
    """argparse type of gen-kb's sizes: a whole number."""
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"needs a whole number, not {raw!r}")
    return int(raw)


def ingest_dump(*args, **kwargs):
    """tablink.ingest.ingest_dump, imported on the first call: only the
    ingest command runs it. _cmd_ingest calls it through this module, where
    a timing wrapper can replace it."""
    from .ingest import ingest_dump
    return ingest_dump(*args, **kwargs)


# subcommand bodies -----------------------------------------------------------
# Each writes its own payload, so --out targets work uniformly, and returns
# its manifest fields. eval and bench import evalbench, and gen-kb synth, in
# their bodies: no other command needs those modules.


def _cmd_ingest(args) -> dict:
    watchlist = [EntityId.parse(p) for p in _comma_list(args.watchlist)]
    stats = ingest_dump(args.dump, args.out_records, args.out_edges,
                        watchlist=watchlist)
    _emit(stats._asdict(), None)
    return {}


def _cmd_closure(args) -> dict:
    edges = list(read_edges(args.edges))
    extra = {t for types in read_direct_types(args.records)
             for t in types} if args.records else ()
    closure = build_closure(edges, extra_nodes=extra)
    write_closure(args.out, closure)
    _emit({"nodes": len(closure), "edges_in": len(edges),
           "rejected_edges": len(closure.rejected_edges)}, None)
    return {"closure_hash": closure.digest}


def _cmd_build_index(args) -> dict:
    index = Index(read_records(args.records))
    save_index(index, args.out)
    _emit({"build_id": index.build_id, "record_count": len(index),
           "duplicate_ids": index.duplicate_ids}, None)
    return {"index_build_id": index.build_id}


def _load_kb(args):
    """The index, closure and config named by --index, --closure and
    --config, plus the manifest fields that pin them."""
    index = load_index(args.index)
    closure = read_closure(args.closure)
    config = load_config(args.config)
    manifest = {"config_hash": config.content_hash,
                "index_build_id": index.build_id,
                "closure_hash": closure.digest}
    return index, closure, config, manifest


def _cmd_link(args) -> dict:
    index, closure, config, manifest = _load_kb(args)
    expected = _comma_list(args.expect)
    unknown = [name for name in expected if name not in config.type_dictionary]
    if unknown:
        raise _UsageError(f"--expect: unknown type name(s): {', '.join(unknown)}")
    result = link(args.mention, args.mode, index, closure, config,
                  context=args.context, expected_types=expected or None)
    _emit(result_to_obj(result), args.out)
    return manifest


def _cmd_link_table(args) -> dict:
    table = _load_table(args.table, args.has_header)
    index, closure, config, manifest = _load_kb(args)
    annotation = link_table(table, index, closure, config, cache=LinkCache())
    # The file and standard output get the same bytes.
    _emit(annotation_to_obj(annotation), args.out, sort_keys=True)
    return manifest


def _cmd_eval(args) -> dict:
    from .evalbench import evaluate, read_gold
    root = Path(args.annotations)
    paths = sorted(root.glob("*.json")) if root.is_dir() else [root]
    annotations = [read_annotation(p) for p in paths]
    report = evaluate(annotations, read_gold(args.gold))
    _emit(report.to_obj(), args.out)
    return {}


def _cmd_bench(args) -> dict:
    from .evalbench import bench
    latencies = _numbers(args.online_latency, (float, float),
                         lambda d: 0 <= d < float("inf"),
                         "--online-latency needs two comma-separated, finite, "
                         "non-negative seconds")
    projection = (_numbers(args.projection, (int, int), lambda n: n > 0,
                           "--projection needs tables,cells_per_table, "
                           "two positive whole numbers")
                  if args.projection else None)
    mentions = list(read_lines(args.mentions, str))
    index, closure, config, manifest = _load_kb(args)
    report = bench(mentions, index, closure, config,
                   online_latencies=latencies, projection=projection)
    _emit(report.to_obj(), args.out)
    return manifest


def _cmd_gen_kb(args) -> dict:
    from .synth import generate_synthetic_kb
    try:
        res = generate_synthetic_kb(args.out, seed=args.seed,
                                    n_items=args.items, n_types=args.types,
                                    n_tables=args.tables)
    except ValueError as exc:  # too few types, refused before any write
        raise _UsageError(f"--types: {exc}") from None
    _emit({"out_dir": str(res.out_dir), "labeled": res.labeled,
           "unlabeled": res.unlabeled, "malformed": res.malformed,
           "files": res.truth["files"]}, None)
    return {}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tablink", description=__doc__.splitlines()[0])
    # A plain flag, answered after parsing: argparse's version action would
    # print and exit before an unknown option is reported.
    parser.add_argument("--version", action="store_true",
                        help="print the version and exit")
    parser.add_argument("--manifest", metavar="PATH",
                        help="write the run manifest to PATH instead of standard error")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    # The inputs of every command that links: link, link-table and bench.
    linking = argparse.ArgumentParser(add_help=False)
    for name in ("--index", "--closure", "--config"):
        linking.add_argument(name, required=True)

    p = sub.add_parser("ingest", help="parse an entity dump into records and edges")
    p.add_argument("--dump", required=True)
    p.add_argument("--out-records", required=True)
    p.add_argument("--out-edges", required=True)
    p.add_argument("--watchlist", help="comma-separated property ids to flag")
    # ingest's --jobs and link-table's --jobs and --cache are accepted for
    # old command lines and ignored: ingest shards the dump over the CPUs
    # available, link-table runs on one thread, and link results are
    # memoized in memory only, within one process.
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("closure", help="build the type-ancestor closure from edges")
    p.add_argument("--edges", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--records", help="also include these records' direct types as nodes")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("build-index", help="build the candidate index from records")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_index)

    p = sub.add_parser("link", parents=[linking], help="link one mention string")
    p.add_argument("--mention", required=True)
    p.add_argument("--mode", choices=["cell", "header"], default="cell")
    p.add_argument("--context")
    p.add_argument("--expect", help="comma-separated expected type names")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("link-table", parents=[linking], help="annotate a whole table")
    p.add_argument("--table", required=True, help="table JSON, or CSV by suffix")
    p.add_argument("--has-header", action="store_true",
                   help="CSV input: first row is the header row")
    p.add_argument("--cache", help=argparse.SUPPRESS)
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_link_table)

    p = sub.add_parser("eval", help="score annotations against a gold file")
    p.add_argument("--annotations", required=True,
                   help="annotation file, or directory of *.json annotations")
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="time offline linking against a modeled online backend",
                       parents=[linking])
    p.add_argument("--mentions", required=True, help="one mention per line")
    p.add_argument("--online-latency", default="12,18",
                   help="online candidate,type stage latencies in seconds")
    p.add_argument("--projection", help="tables,cells_per_table: project corpus "
                   "days from each backend's median seconds per mention")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen-kb", help="generate a deterministic synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--items", type=_count, default=2000)
    p.add_argument("--types", type=_count, default=120)
    p.add_argument("--tables", type=_count, default=6)
    p.set_defaults(func=_cmd_gen_kb)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.version:
        sys.stdout.write(f"tablink {__version__} (format {FORMAT_VERSION})\n")
        return 0

    if not getattr(args, "func", None):
        sys.stderr.write(parser.format_usage())
        sys.stderr.write("error: a subcommand is required\n")
        return 1

    started = time.perf_counter()
    try:
        manifest_fields = args.func(args)
        manifest = {
            "subcommand": args.command,
            "config_hash": None,
            "index_build_id": None,
            "closure_hash": None,
            "artifact_version": __version__,
            "format_version": FORMAT_VERSION,
            "wall_time_s": round(time.perf_counter() - started, 6),
        }
        manifest.update(manifest_fields)
        text = json.dumps(manifest, ensure_ascii=False) + "\n"
        if args.manifest:
            Path(args.manifest).write_text(text, encoding="utf-8", newline="\n")
        else:
            sys.stderr.write(text)
    except (_UsageError, TablinkError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


def console_main() -> None:
    """main() as a whole process. Once the streams are flushed, nothing is
    left to write, so the process ends through os._exit and skips the
    interpreter's teardown, which frees every object one by one. If a
    flush fails, sys.exit ends it as before and reports the failure."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a broken pipe, a closed stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
