from types import SimpleNamespace

import pytest

from kb_bundles import build_bundle, skew_dump
from tablink import Index, ingest_dump, read_records


@pytest.fixture(scope="session")
def small_kb(tmp_path_factory):
    return build_bundle(tmp_path_factory.mktemp("kb_small"),
                        seed=1, n_items=2000, n_types=120, n_tables=6)


@pytest.fixture(scope="session")
def big_kb(tmp_path_factory):
    """Acceptance-scale corpus; session-scoped because it takes seconds."""
    return build_bundle(tmp_path_factory.mktemp("kb_big"),
                        seed=7, n_items=100_000, n_types=1500, n_tables=12)


@pytest.fixture(scope="session")
def skew_kb(big_kb, tmp_path_factory):
    """big_kb's dump with shared nouns in 30% of its item labels, ingested
    and indexed."""
    out = tmp_path_factory.mktemp("kb_skew")
    skew_dump(big_kb.result.dump_path, out / "dump.jsonl", seed=7)
    ingest_dump(out / "dump.jsonl", out / "records.jsonl", out / "edges.jsonl")
    records = list(read_records(out / "records.jsonl"))
    return SimpleNamespace(records=records, index=Index(records))
