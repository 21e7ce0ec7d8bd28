"""The determinism check, pinned: the three seed-1 benchmark workloads of
perfbench/workloads.py, set up and linked in one process, give the records,
edges, closure, annotations and LinkCache counts recorded in
determinism.json.

Each workload is ingested, its closure built over the records' direct
types (as the benchmark's `tablink closure --records` does) and its index
built, all in process; then its 120 tables are linked once without a cache,
once through one LinkCache and once more without a cache through the now
warm closure, and all three must agree byte for byte. The two
skewed workloads share one dump, generated and set up once. build_id
hashes a marshal blob, whose bytes may differ between Python minor
versions, so it is pinned per minor version and checked only where one is
recorded.

A change that moves a pinned digest on purpose regenerates the file with
`PYTHONPATH=src python3 tests/test_determinism.py` and says which digest
moved and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from tablink import (
    EntityId,
    Index,
    LinkCache,
    build_closure,
    ingest_dump,
    link_table,
    load_config,
    read_edges,
    read_records,
    read_table,
    write_annotation,
    write_closure,
)
from tablink.kb import read_direct_types

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
EXPECTED = Path(__file__).with_name("determinism.json")
SEED = 1


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _set_up(inputs, out: Path):
    """The workload's index and closure, built as the benchmark's set-up
    builds them, and the digests of the files it writes."""
    out.mkdir()
    records, edges = out / "records.jsonl", out / "edges.jsonl"
    ingest_dump(inputs.dump, records, edges,
                watchlist=[EntityId.parse(p) for p in inputs.watchlist.split(",")])
    closure = build_closure(read_edges(edges), extra_nodes={
        t for types in read_direct_types(records) for t in types})
    write_closure(out / "closure.txt", closure)
    index = Index(read_records(records))
    return index, closure, {"records": _sha256(records), "edges": _sha256(edges),
                            "closure": closure.digest}


def _annotations_digest(tables, kb, cache, scratch: Path) -> str:
    """sha256 over the bytes `tablink link-table --out` writes for each
    table, in table order."""
    digest = hashlib.sha256()
    for table in tables:
        write_annotation(scratch, link_table(table, *kb, cache=cache))
        digest.update(scratch.read_bytes())
    return digest.hexdigest()


def observe(work: Path) -> tuple[dict, dict]:
    """Each workload's pinned values, and each workload's build_id."""
    workloads = _workloads_module()
    skew = workloads.generate("batch-skew", SEED, work / "skew")
    inputs = {
        "cli-tables": workloads.generate("cli-tables", SEED, work / "cli"),
        "batch-skew": skew,
        "rerun-cached": dataclasses.replace(skew, tables=workloads.compose_tables(
            skew.dump, work / "rerun-tables", SEED,
            workloads.PROFILES["rerun-cached"])),
    }
    observed, build_ids, kbs = {}, {}, {}
    for name, inp in inputs.items():
        if inp.dump not in kbs:
            kbs[inp.dump] = _set_up(inp, work / f"kb-{name}")
        index, closure, digests = kbs[inp.dump]
        kb = (index, closure, load_config(inp.config))
        tables = [read_table(p) for p in inp.tables]
        scratch = work / "annotation.json"
        plain = _annotations_digest(tables, kb, None, scratch)
        cache = LinkCache()
        cached = _annotations_digest(tables, kb, cache, scratch)
        assert cached == plain, f"{name}: annotations differ through a LinkCache"
        # Once more without a cache: the closure's linker tables, warm now,
        # serve the repeats, and must give the same bytes.
        steady = _annotations_digest(tables, kb, None, scratch)
        assert steady == plain, f"{name}: annotations differ in steady state"
        observed[name] = {**digests, "tables": len(tables), "annotations": plain,
                          "cache_hits": cache.hits, "cache_misses": cache.misses}
        build_ids[name] = index.build_id
    return observed, build_ids


def _python() -> str:
    return "%d.%d" % sys.version_info[:2]


def test_seed_1_workloads_reproduce_their_pinned_digests(tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    observed, build_ids = observe(tmp_path)
    assert observed == expected["workloads"]
    pinned = expected["build_id"].get(_python())
    if pinned is not None:
        assert build_ids == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        observed, build_ids = observe(Path(tmp))
    old = (json.loads(EXPECTED.read_text(encoding="utf-8"))
           if EXPECTED.exists() else {"build_id": {}})
    EXPECTED.write_text(json.dumps(
        {"workloads": observed,
         "build_id": {**old["build_id"], _python(): build_ids}},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
