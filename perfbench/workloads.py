"""Input generation for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical dumps, configs and tables. The program under test only ever
sees the generated files.

The default-profile corpus comes from the public ``generate_synthetic_kb``.
The skewed workloads rewrite its dump so that labels share domain nouns,
then compose their own table corpus over the rewritten labels. The shape of
the skew and the mix of mentions are assumptions, not measurements of a real
knowledge base; see the comments at SKEW_SHARE and _MentionSource.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from tablink.synth import generate_synthetic_kb

# Head nouns of biomedical entity labels. Every one holds a letter that the
# synthetic word generator never emits (its syllables use only
# "bdfhjklmprsvwyz" + "eio"), so a noun can never collide with a generated
# word, and none is a stopword or parses as a literal.
NOUNS = ("virus", "protein", "strain", "gene", "receptor", "antigen",
         "enzyme", "factor", "kinase", "syndrome", "toxin", "plasmid")

# Why the skew has this shape: partial-tier search only does list-merging
# work when mention tokens have long posting lists (the regime of Li, Lu &
# Lu, ICDE 2008), and the default synthetic profile never gets there: its
# posting lists hold 1 to 5 records. Shared head nouns make long lists. The
# numbers are unverified assumptions with no source: a minority of labels
# (30%) carries one noun, and the nouns follow a rank-frequency power law
# (Zipf exponent 1 over twelve nouns). Together they give the longest
# posting list about a tenth of all labels (workload.top_token_share
# reports it) and leave the rest of the vocabulary unique. Replace them with
# figures measured on a real dump once one is in the repository.
SKEW_SHARE = 0.30
ZIPF_S = 1.0


@dataclass(frozen=True)
class Profile:
    """Corpus parameters of one workload; recorded in every result file."""

    items: int
    types: int
    gen_tables: int          # tables from generate_synthetic_kb
    tables: int              # tables the run links in process
    rows: int = 6
    entity_cols: int = 3
    skew_share: float = 0.0
    zipf_s: float = 0.0
    repeat_target: float = 0.0

    def to_obj(self) -> dict:
        nouns = list(NOUNS) if self.skew_share else []
        return dataclasses.asdict(self) | {"nouns": nouns}


PROFILES = {
    # Big enough that loading the index dominates a link-table process.
    "cli-tables": Profile(items=20000, types=600, gen_tables=120, tables=120),
    "batch-skew": Profile(items=10000, types=300, gen_tables=1, tables=120,
                          skew_share=SKEW_SHARE, zipf_s=ZIPF_S),
    # About three quarters of cells repeat an earlier cell. The share is an
    # unverified assumption (no measured corpus behind it); the run reports
    # the exact share it got as workload.repeat_share.
    "rerun-cached": Profile(items=10000, types=300, gen_tables=1, tables=120,
                            skew_share=SKEW_SHARE, zipf_s=ZIPF_S,
                            repeat_target=0.75),
}


def zipf_weights(n: int, s: float) -> list[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def skew_dump(src: Path, dst: Path, seed: int, share: float, s: float) -> int:
    """Rewrite a gen-kb dump so that ``share`` of item labels end in one
    shared noun drawn Zipf-wise from NOUNS. Lines that are not item
    documents (decoration, properties, malformed lines) pass through
    unchanged. Returns the number of labels rewritten."""
    rng = random.Random(f"skew/{seed}")
    weights = zipf_weights(len(NOUNS), s)
    changed = 0
    with open(src, encoding="utf-8") as inp, \
            open(dst, "w", encoding="utf-8", newline="\n") as out:
        for line in inp:
            body = line.rstrip("\n")
            doc = None
            if body.endswith(","):
                try:
                    doc = json.loads(body[:-1])
                except ValueError:
                    doc = None
            label = (doc.get("labels", {}).get("en")
                     if isinstance(doc, dict) and doc.get("type") == "item"
                     else None)
            if not isinstance(label, dict) or rng.random() >= share:
                out.write(line)
                continue
            noun = rng.choices(NOUNS, weights=weights)[0]
            label["value"] = f"{label['value']} {noun}"
            out.write(json.dumps(doc, ensure_ascii=False,
                                 separators=(",", ":")) + ",\n")
            changed += 1
    return changed


def _dump_docs(path: Path):
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            body = line.rstrip("\n")
            if body.endswith(","):
                try:
                    doc = json.loads(body[:-1])
                except ValueError:
                    continue
                if isinstance(doc, dict) and "en" in doc.get("labels", {}):
                    yield doc


def _surfaces(dump: Path) -> tuple[list[str], list[str], list[str]]:
    """Item labels, item aliases and property labels of a dump, in dump
    order."""
    labels, aliases, props = [], [], []
    for doc in _dump_docs(dump):
        label = doc["labels"]["en"].get("value")
        if not isinstance(label, str) or not label.strip():
            continue
        if doc.get("type") == "property":
            props.append(label)
            continue
        labels.append(label)
        aliases.extend(a["value"] for a in doc.get("aliases", {}).get("en", ())
                       if isinstance(a.get("value"), str) and a["value"].strip())
    return labels, aliases, props


class _MentionSource:
    """Cell mentions mixed 40% exact labels, 20% aliases and 40% partial
    variants (a word of an existing label plus a shared noun, often a
    combination no label has).

    The mix is an unverified assumption with no measured source. The partial
    share is what makes search dominate batch-skew; the run reports the
    share of mentions with partial-tier hits as workload.partial_share."""

    def __init__(self, rng: random.Random, labels: list[str],
                 aliases: list[str], s: float):
        self.rng = rng
        self.labels = labels
        self.aliases = aliases
        self.words = sorted({w for lab in labels for w in lab.split()
                             if w not in NOUNS})
        self.weights = zipf_weights(len(NOUNS), s)

    def next(self) -> str:
        r = self.rng.random()
        if r < 0.4:
            return self.rng.choice(self.labels)
        if r < 0.6:
            return self.rng.choice(self.aliases)
        noun = self.rng.choices(NOUNS, weights=self.weights)[0]
        return f"{self.rng.choice(self.words)} {noun}"


def _write_table(path: Path, table_id: str, caption: str, headers: list[str],
                 rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        json.dump({"table_id": table_id, "caption": caption,
                   "headers": headers, "rows": rows}, fp, ensure_ascii=False,
                  indent=2)
        fp.write("\n")


def compose_tables(dump: Path, tables_dir: Path, seed: int,
                   profile: Profile) -> list[Path]:
    """Tables over a (skewed) dump's labels: ``entity_cols`` columns of
    mentions plus one integer column, which keeps the orientation
    horizontal. With ``repeat_target`` set, cells and header rows are drawn
    from pools sized so that about that share of cells repeats an earlier
    cell's mention and context."""
    rng = random.Random(f"tables/{seed}")
    labels, aliases, props = _surfaces(dump)
    source = _MentionSource(rng, labels, aliases, profile.zipf_s)
    n_cells = profile.tables * profile.rows * profile.entity_cols

    def header_row() -> tuple[str, list[str]]:
        caption = " ".join(rng.choice(source.words) for _ in range(3))
        return caption, rng.sample(props, profile.entity_cols) + ["count"]

    if profile.repeat_target:
        # Drawing n cells uniformly from a pool of p mentions leaves about
        # p * (1 - exp(-n/p)) distinct ones; p = n * (1 - target) * 1.02
        # lands the distinct share near 1 - target for targets around 3/4.
        pool = [source.next()
                for _ in range(max(1, round(n_cells * (1 - profile.repeat_target)
                                            * 1.02)))]
        header_pool = [header_row() for _ in range(max(1, profile.tables // 15))]
        draw = functools.partial(rng.choice, pool)
        draw_header = functools.partial(rng.choice, header_pool)
    else:
        draw, draw_header = source.next, header_row

    tables_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for t in range(profile.tables):
        caption, headers = draw_header()
        rows = [[draw() for _ in range(profile.entity_cols)]
                + [str(rng.randint(1, 5000))] for _ in range(profile.rows)]
        path = tables_dir / f"s{t:03d}.json"
        _write_table(path, f"s{t:03d}", caption, headers, rows)
        paths.append(path)
    return paths


@dataclass
class Inputs:
    """Paths of one workload's generated inputs."""

    dump: Path
    config: Path
    tables: list[Path]
    gold: Path | None
    watchlist: str
    labels_rewritten: int = 0


def generate(workload: str, seed: int, work: Path) -> Inputs:
    profile = PROFILES[workload]
    res = generate_synthetic_kb(work / "gen", seed=seed, n_items=profile.items,
                                n_types=profile.types,
                                n_tables=profile.gen_tables)
    watchlist = ",".join(res.truth["watch_props"])
    if not profile.skew_share:
        tables = sorted(res.tables_dir.glob("*.json"))
        return Inputs(res.dump_path, res.config_path, tables, res.gold_path,
                      watchlist)
    dump = work / "dump.jsonl"
    changed = skew_dump(res.dump_path, dump, seed, profile.skew_share,
                        profile.zipf_s)
    tables = compose_tables(dump, work / "tables", seed, profile)
    return Inputs(dump, res.config_path, tables, None, watchlist, changed)
