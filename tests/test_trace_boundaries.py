"""The benchmark's tracer (perfbench/tracing.py) times tablink by replacing
module attributes named in its BOUNDARIES list. A renamed function, or one
no longer called through the module the tracer wraps, silently drops its
span, so this test installs the real list and checks that `build-index`
followed by a cached `link-table` run still produces every span the
benchmark reads.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import tablink.cli
import tablink.tables
from tablink import save_config, write_closure, write_records

from fixture_kb import lineage_fixture

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_boundaries_cover_a_cached_table_link(tmp_path):
    records, closure, config, table = lineage_fixture()
    write_records(tmp_path / "records.jsonl", records)
    write_closure(tmp_path / "closure.txt", closure)
    save_config(tmp_path / "config.json", config)
    (tmp_path / "table.json").write_text(
        json.dumps(tablink.tables.table_to_obj(table)), encoding="utf-8")
    original = tablink.tables.link_table

    tracing = _tracing_module()
    tracer = tracing.Tracer(phase="test")
    tracer.install(tracing.BOUNDARIES)
    try:
        assert tablink.cli.main([
            "--manifest", str(tmp_path / "build.json"), "build-index",
            "--records", str(tmp_path / "records.jsonl"),
            "--out", str(tmp_path / "index")]) == 0
        assert tablink.cli.main([
            "--manifest", str(tmp_path / "manifest.json"), "link-table",
            "--table", str(tmp_path / "table.json"),
            "--index", str(tmp_path / "index"),
            "--closure", str(tmp_path / "closure.txt"),
            "--config", str(tmp_path / "config.json"),
            "--cache", str(tmp_path / "cache"),
            "--out", str(tmp_path / "annotation.json")]) == 0
    finally:
        tracer.uninstall()

    assert tablink.tables.link_table is original
    spans = {span[2] for span in tracer.spans}
    assert {"kb.read_records", "index.build", "index.save_index",
            "index.load_index", "closure.read_closure",
            "kb.load_config", "tables.link_table", "tables.cached_link",
            "linker.cache_get", "linker.link", "index.search",
            "linker.link_from_candidates"} <= spans
    counters = {name for _, name in tracer.counters()}
    assert {"linker.classify_type_tier", "linker.context_similarity",
            "tables.column_type_vote"} <= counters
    assert (tmp_path / "annotation.json").is_file()
