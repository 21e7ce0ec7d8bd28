import json
import random
from types import SimpleNamespace

import pytest

from tablink import (
    Index,
    build_closure,
    generate_synthetic_kb,
    ingest_dump,
    load_config,
    read_edges,
    read_gold,
    read_records,
)


def build_bundle(out_dir, **kw):
    """Generate a synthetic corpus and load every pipeline stage from it."""
    result = generate_synthetic_kb(out_dir, **kw)
    records = list(read_records(result.records_path))
    edges = list(read_edges(result.edges_path))
    extra = sorted({t for r in records for t in r.direct_types})
    closure = build_closure(edges, extra_nodes=extra)
    with open(result.mentions_path, "r", encoding="utf-8") as fp:
        mentions = [line.rstrip("\n") for line in fp if line.strip()]
    return SimpleNamespace(
        dir=result.out_dir,
        result=result,
        truth=json.loads(result.truth_path.read_text(encoding="utf-8")),
        records=records,
        edges=edges,
        closure=closure,
        index=Index(records),
        config=load_config(result.config_path),
        gold=read_gold(result.gold_path),
        mentions=mentions,
    )


@pytest.fixture(scope="session")
def small_kb(tmp_path_factory):
    return build_bundle(tmp_path_factory.mktemp("kb_small"),
                        seed=1, n_items=2000, n_types=120, n_tables=6)


@pytest.fixture(scope="session")
def big_kb(tmp_path_factory):
    """Acceptance-scale corpus; session-scoped because it takes seconds."""
    return build_bundle(tmp_path_factory.mktemp("kb_big"),
                        seed=7, n_items=100_000, n_types=1500, n_tables=12)


# Head nouns of biomedical labels. Each holds a letter gen-kb's words never
# use, so a noun never collides with a generated word.
SKEW_NOUNS = ("virus", "protein", "strain", "gene", "receptor", "antigen",
              "enzyme", "factor", "kinase", "syndrome", "toxin", "plasmid")


def skew_dump(src, dst, seed, share=0.30, zipf_s=1.0):
    """Rewrite a gen-kb dump so that `share` of item labels end in one noun
    of SKEW_NOUNS, drawn with weight 1/rank**zipf_s: real labels share
    common domain nouns, which gives search long posting lists. Other lines
    pass through unchanged."""
    rng = random.Random(f"skew/{seed}")
    weights = [1.0 / rank ** zipf_s for rank in range(1, len(SKEW_NOUNS) + 1)]
    with open(src, encoding="utf-8") as inp, \
            open(dst, "w", encoding="utf-8", newline="\n") as out:
        for line in inp:
            body = line.rstrip("\n")
            try:
                doc = json.loads(body[:-1]) if body.endswith(",") else None
            except ValueError:
                doc = None
            label = (doc.get("labels", {}).get("en")
                     if isinstance(doc, dict) and doc.get("type") == "item"
                     else None)
            if not isinstance(label, dict) or rng.random() >= share:
                out.write(line)
                continue
            label["value"] += " " + rng.choices(SKEW_NOUNS, weights=weights)[0]
            out.write(json.dumps(doc, ensure_ascii=False,
                                 separators=(",", ":")) + ",\n")


@pytest.fixture(scope="session")
def skew_kb(big_kb, tmp_path_factory):
    """big_kb's dump with shared nouns in 30% of its item labels, ingested
    and indexed."""
    out = tmp_path_factory.mktemp("kb_skew")
    skew_dump(big_kb.result.dump_path, out / "dump.jsonl", seed=7)
    ingest_dump(out / "dump.jsonl", out / "records.jsonl", out / "edges.jsonl")
    records = list(read_records(out / "records.jsonl"))
    return SimpleNamespace(records=records, index=Index(records))
