"""Processes the benchmark starts, so that the OS reports their peak RSS.

``child.py cli TRACE PHASE REQUEST -- ARGS...`` runs ``tablink ARGS`` with
the tracer installed and appends its spans to TRACE.

``child.py batch SPEC`` is the in-process phase: it loads the KB as a
library user does, links the workload's tables with ``link_table`` for the
rounds the spec sets, checks the annotations, and writes its measurements
to the spec's ``out`` file.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import sys
from pathlib import Path

import tablink.cli
import tablink.closure
import tablink.evalbench
import tablink.index
import tablink.kb
import tablink.linker
import tablink.tables
from tablink.tables import read_table

import calibrate
import reference
import tracing


def annotation_bytes(ann, scratch: Path) -> bytes:
    """The bytes ``tablink link-table --out`` writes for an annotation."""
    tablink.tables.write_annotation(scratch, ann)
    return scratch.read_bytes()


def run_cli(argv: list[str]) -> int:
    trace_path, phase, request, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: child.py cli TRACE PHASE REQUEST -- ARGS...")
    tracer = tracing.Tracer(phase, request)
    tracer.install()
    try:
        return tablink.cli.main(args)
    finally:
        tracer.uninstall()
        tracer.write(trace_path)


def load_kb(spec: dict):
    return (tablink.index.load_index(spec["index"]),
            tablink.closure.read_closure(spec["closure"]),
            tablink.kb.load_config(spec["config"]))


class Phase:
    """The in-process phase: a fixed number of rounds, each linking every
    table once (on the rerun workload, a cold and then a warm pass). Each
    estimate is the median over rounds of that round's value: the linkable
    cells its ``link_table`` calls annotated over their summed reference
    seconds, and the p50 and p90 of its call latencies (on the rerun
    workload, of the warm pass). A cost that every round pays counts in
    full; a burst of machine noise in one round does not; and as the round
    count is fixed, a faster build gets no more samples. Every pass must
    reproduce the first pass's annotations byte for byte."""

    def __init__(self, clock: calibrate.Clock, scratch: Path):
        self.clock = clock
        self.scratch = scratch
        self.per_round: list[dict] = []
        self.raw_seconds = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.first: list[bytes] | None = None
        self.linkable: list[int] = []                 # per table
        self._round = {"cells": 0, "seconds": 0.0, "latencies": []}

    def run_pass(self, kb, tables, cache, timed: bool = True) -> float:
        """Link every table once; returns the pass's reference seconds. The
        calls' latencies count towards the round's percentiles if
        ``timed``."""
        rnd = self._round
        out, total = [], 0.0
        for i, table in enumerate(tables):
            self.attempted += 1
            try:
                ann, raw, scaled = self.clock.time(
                    tablink.tables.link_table, table, *kb, cache=cache)
            except Exception as exc:  # counted as a failed operation
                self.failures.append(f"{table.table_id}: {exc!r}")
                if self.first is None:
                    self.linkable.append(0)
                out.append(b"")
                continue
            if timed:
                rnd["latencies"].append(scaled)
            total += scaled
            self.raw_seconds += raw
            data = annotation_bytes(ann, self.scratch)
            if self.first is None:
                self.linkable.append(linkable_cells(data))
            elif data != self.first[i]:
                self.failures.append(f"{table.table_id}: annotation "
                                     "differs from the first pass")
            rnd["cells"] += self.linkable[i]
            out.append(data)
        if self.first is None:
            self.first = out
        rnd["seconds"] += total
        return total

    def end_round(self) -> None:
        rnd = self._round
        lat = rnd["latencies"]
        self.per_round.append({
            "cells": rnd["cells"], "calls": len(lat),
            "cells_per_s": rnd["cells"] / rnd["seconds"],
            "p50": statistics.median(lat),
            "p90": statistics.quantiles(lat, n=10)[8]})
        self._round = {"cells": 0, "seconds": 0.0, "latencies": []}

    def to_obj(self) -> dict:
        rounds = self.per_round

        def med(key):
            return statistics.median(r[key] for r in rounds)

        return {"cells_per_s": med("cells_per_s"), "p50": med("p50"),
                "p90": med("p90"),
                "cells": sum(r["cells"] for r in rounds),
                "calls": sum(r["calls"] for r in rounds),
                "raw_link_seconds": self.raw_seconds / len(rounds),
                "rounds": len(rounds), "attempted": self.attempted,
                "failures": self.failures}


def linkable_cells(data: bytes) -> int:
    obj = json.loads(data)
    return sum(1 for c in obj["headers"] + obj["cells"]
               if c["outcome"]["kind"] != "literal")


def dir_usage(path: Path) -> tuple[int, int]:
    files = [p for p in path.iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def measure(spec: dict, kb, tables, clock: calibrate.Clock, rounds: int,
            tracer: tracing.Tracer | None, tag: str) -> tuple[Phase, dict]:
    """Link ``rounds`` rounds. A round is one pass without a cache, or on the
    rerun workload a cold pass that fills an empty cache directory followed
    by a warm pass through a fresh LinkCache over the same directory, as a
    rerun in a new process sees it."""
    phase = Phase(clock, Path(spec["scratch"]))
    cache_info: dict = {}
    for r in range(rounds):
        if spec["rerun"]:
            cache_dir = Path(spec["cache_root"]) / f"{tag}{r}"
            for kind in ("cold", "warm"):
                if tracer:
                    tracer.phase = f"batch-{kind}"
                spent = phase.run_pass(kb, tables,
                                       tablink.linker.LinkCache(cache_dir),
                                       timed=kind == "warm")
                cache_info.setdefault(f"{kind}_pass_s", spent)
            if "files" not in cache_info:
                cache_info["files"], cache_info["bytes"] = dir_usage(cache_dir)
        else:
            phase.run_pass(kb, tables, None)
        phase.end_round()
    # Removed only now, so that deleting files never overlaps a timed pass.
    shutil.rmtree(spec["cache_root"], ignore_errors=True)
    return phase, cache_info


def check_gold(spec: dict, first: list[bytes], tables) -> tuple[int, list[str]]:
    anns = [tablink.tables.annotation_from_obj(json.loads(data))
            for data in first if data]
    return len(tables), reference.gold_failures(
        anns, tablink.evalbench.read_gold(spec["gold"]))


def check_search(spec: dict, kb, first: list[bytes]) -> tuple[int, list[str]]:
    """Search must agree with the linear scan on a fixed sample of the run's
    cell mentions, and each sampled cell's annotated candidates must come
    from the reference top k."""
    index, _, config = kb
    k = config.params.k
    cells: dict[str, list[list[str]]] = {}
    for data in first:
        if data:
            for c in json.loads(data)["cells"]:
                if c["outcome"]["kind"] != "literal" and reference.tokens(c["mention"]):
                    cells.setdefault(c["mention"], []).append(c["candidates"])
    sample = random.Random(spec["seed"]).sample(
        sorted(cells), min(spec["reference_sample"], len(cells)))
    ref = reference.LinearSearch(spec["records"])
    failures = []
    for mention in sample:
        want = ref.search(mention, k)
        got = [(c.record.id.raw, c.match_tier, c.token_overlap)
               for c in tablink.index.search(index, mention, k)]
        ids = {rid for rid, _, _ in want}
        if got != want:
            failures.append(f"search({mention!r}) disagrees with the linear scan")
        elif any(not set(cands) <= ids for cands in cells[mention]):
            failures.append(f"{mention!r}: annotated candidates outside the "
                            "reference top k")
    return len(sample), failures


def descriptors(kb, tables, first: list[bytes]) -> dict:
    """Exact input properties of the workload; they move no metric."""
    index, _, config = kb
    keys, repeats, mentions = set(), 0, set()
    for table, data in zip(tables, first):
        obj = json.loads(data) if data else {"headers": [], "cells": []}
        header_row = tuple(h["mention"] for h in obj["headers"])
        # A cache key holds the mention, the mode and the context; a
        # header's context is the caption plus its sibling headers.
        for mode, cells, ctx in (("header", obj["headers"],
                                  (table.caption, header_row)),
                                 ("cell", obj["cells"], None)):
            for c in cells:
                if c["outcome"]["kind"] == "literal":
                    continue
                mentions.add(c["mention"])
                key = (reference.normalize(c["mention"]), mode, ctx)
                repeats += key in keys
                keys.add(key)
    linkable = sum(linkable_cells(d) for d in first if d)
    searched = [m for m in sorted(mentions) if reference.tokens(m)]
    postings, partial = [], 0
    for m in searched:
        toks = dict.fromkeys(reference.tokens(m))
        postings.append(sum(len(index.postings(t)) for t in toks))
        partial += any(c.match_tier == tablink.index.PARTIAL
                       for c in tablink.index.search(index, m, config.params.k))
    label_tokens: dict[str, int] = {}
    for record in index.records_by_id.values():
        for t in set(reference.tokens(record.label)):
            label_tokens[t] = label_tokens.get(t, 0) + 1
    return {
        "workload.tables": len(tables),
        "workload.linkable_cells": linkable,
        "workload.repeat_share": repeats / linkable if linkable else 0.0,
        "workload.partial_share": partial / len(searched) if searched else 0.0,
        "workload.postings_per_mention.p50": statistics.median(postings),
        "workload.postings_per_mention.max": max(postings),
        "workload.top_token_share": max(label_tokens.values()) / len(index),
    }


def run_batch(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result: dict = {"loads": [], "raw_loads": []}
    clock = calibrate.Clock()
    kb = None
    for _ in range(spec["loads"]):
        kb = None
        gc.collect()
        kb, raw, scaled = clock.time(load_kb, spec)
        result["loads"].append(scaled)
        result["raw_loads"].append(raw)
    tables = [read_table(p) for p in spec["tables"]]

    phase, cache_info = measure(spec, kb, tables, clock, spec["rounds"],
                                None, "u")
    first = phase.first
    result["untraced"] = phase.to_obj()
    result["cache"] = cache_info
    attempted, failures = phase.attempted, list(phase.failures)

    out_dir = Path(spec["annotations_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, data in zip(spec["tables"], first):
        (out_dir / Path(path).name).write_bytes(data)
    checks = check_gold(spec, first, tables) if spec["gold"] \
        else check_search(spec, kb, first)
    attempted += checks[0]
    failures += checks[1]

    if spec["trace"] is not None:
        result["descriptors"] = descriptors(kb, tables, first)
        tracer = tracing.Tracer("batch")
        tracer.install()
        try:
            kb, _, result["traced_load"] = clock.time(load_kb, spec)
            traced, traced_cache = measure(spec, kb, tables, clock, 1,
                                           tracer, "t")
        finally:
            tracer.uninstall()
        tracer.write(spec["trace"])
        result["traced"] = traced.to_obj()
        result["traced_cache"] = traced_cache
        attempted += traced.attempted
        failures += traced.failures
        if traced.first != first:
            failures.append("traced annotations differ from untraced ones")

    result["attempted"] = attempted
    result["failures"] = failures
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        return run_cli(argv[1:])
    if argv[0] == "batch":
        return run_batch(argv[1])
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
