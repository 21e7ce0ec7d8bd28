"""Deterministic synthetic knowledge-base generator.

Emits everything an end-to-end run needs: an entity dump (with the array
decoration, unlabeled docs, and malformed lines real dumps have), the records
and edges that ingesting that dump must produce, a domain config, tables with
gold annotations, and a mentions list for benchmarks.

Planted ambiguities come with provable margins: when two items share a label,
the intended winner follows from the documented scoring rules (bad-type
rejection, tier gap, sitelinks gap, exact-label-over-alias, column type
voting), never from tuned constants. Gold is derived from those rules, not
from running the linker, so evaluation against it stays meaningful.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .evalbench import GoldRecord, write_gold
from .ingest import ingest_dump
from .kb import EntityId, dump_json_line, parse_config_obj, save_config, validate_config
from .tables import Table, classify_orientation, table_to_obj
from .text import STOPWORDS

_CONSONANTS = "bdfhjklmprsvwyz"
_VOWELS = "eio"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

# The fewest types a corpus is generated with; each group of the type
# hierarchy has a floor size (see build_types).
MIN_TYPES = 60

WATCH_GOOD = "P50001"
WATCH_OK = "P50002"

_EMPTY_TOKENS = ("", "-", "–", "N/A")


class WordGen:
    """Deterministic unique-word source. Words are syllable strings built so
    they can never collide with the literal detectors (no digits, never all
    nucleotide letters) or with the stopword list."""

    def __init__(self):
        self.n = 0

    def next(self) -> str:
        while True:
            n, digits = self.n, []
            self.n += 1
            while n:
                n, d = divmod(n, len(_SYLLABLES))
                digits.append(d)
            while len(digits) < 2:
                digits.append(0)
            word = "".join(_SYLLABLES[d] for d in reversed(digits))
            if word not in STOPWORDS:
                return word

    def phrase(self, k: int) -> str:
        return " ".join(self.next() for _ in range(k))


@dataclass
class _Entity:
    id: str
    label: str
    kind: str = "item"
    aliases: list[str] = field(default_factory=list)
    description: str = ""
    types: list[str] = field(default_factory=list)
    sitelinks: int = 0
    flagged: list[str] = field(default_factory=list)
    parents: list[str] = field(default_factory=list)
    deprecated_types: list[str] = field(default_factory=list)
    novalue_type_claim: bool = False


@dataclass
class SynthResult:
    out_dir: Path
    dump_path: Path
    records_path: Path
    edges_path: Path
    config_path: Path
    gold_path: Path
    tables_dir: Path
    mentions_path: Path
    truth_path: Path
    labeled: int
    unlabeled: int
    malformed: int
    truth: dict = field(default_factory=dict)


class _Builder:
    def __init__(self, seed: int, n_items: int, n_types: int, n_tables: int):
        self.rng = random.Random(seed)
        self.words = WordGen()
        self.seed = seed
        self.n_items = n_items
        self.n_types = n_types
        self.n_tables = n_tables
        self.entities: list[_Entity] = []
        self.by_id: dict[str, _Entity] = {}
        self.groups: dict[str, dict] = {}
        self.next_type = 1_000_000
        self.next_item = 2_000_000
        self.next_prop = 200
        self.plants: list[dict] = []
        self.adversarial: list[str] = []
        self.table_pool: list[_Entity] = []
        self._plant_cursor: dict[str, int] = {}

    def _add(self, ent: _Entity) -> _Entity:
        self.entities.append(ent)
        self.by_id[ent.id] = ent
        return ent

    def new_item(self, **kw) -> _Entity:
        eid = f"Q{self.next_item}"
        self.next_item += 1
        return self._add(_Entity(id=eid, kind="item", **kw))

    def new_prop(self, **kw) -> _Entity:
        eid = f"P{self.next_prop}"
        self.next_prop += 1
        return self._add(_Entity(id=eid, kind="property", **kw))

    # type hierarchy ------------------------------------------------------

    def build_group(self, name: str, size: int, n_reserved: int) -> None:
        """One isolated subclass subtree. Reserved leaves hang directly off
        the root, are never parents, and never join injected cycles, so a
        reserved leaf is provably not an ancestor of any other node."""
        rng = self.rng
        root = self._add(_Entity(id=f"Q{self.next_type}",
                                 label=self.words.next(),
                                 sitelinks=rng.randint(0, 3)))
        self.next_type += 1
        reserved = []
        for _ in range(n_reserved):
            leaf = self._add(_Entity(id=f"Q{self.next_type}",
                                     label=self.words.next(),
                                     parents=[root.id],
                                     sitelinks=rng.randint(0, 3)))
            self.next_type += 1
            reserved.append(leaf.id)
        tangle = []
        for _ in range(max(0, size - 1 - n_reserved)):
            pool = [root.id] + tangle
            n_par = 1 if len(pool) < 3 or rng.random() < 0.6 else 2
            node = self._add(_Entity(id=f"Q{self.next_type}",
                                     label=self.words.next(),
                                     parents=rng.sample(pool, n_par),
                                     sitelinks=rng.randint(0, 3)))
            self.next_type += 1
            tangle.append(node.id)
        # Close some parent chains into cycles; the closure must tolerate
        # them without making any node its own ancestor.
        parent_map = {t: list(self.by_id[t].parents) for t in tangle}
        for _ in range(max(1, len(tangle) // 15)):
            if not tangle:
                break
            v = rng.choice(tangle)
            ancestors: set[str] = set()
            frontier = list(parent_map.get(v, []))
            while frontier:
                cur = frontier.pop()
                if cur in ancestors or cur not in parent_map:
                    continue
                ancestors.add(cur)
                frontier.extend(parent_map[cur])
            if ancestors:
                u = rng.choice(sorted(ancestors))
                self.by_id[u].parents.append(v)
        self.groups[name] = {"root": root.id, "reserved": reserved,
                             "tangle": tangle}

    def build_types(self) -> None:
        n = self.n_types
        self.build_group("good", max(14, int(n * 0.27)), 8)
        self.build_group("ok", max(7, int(n * 0.15)), 4)
        self.build_group("bad", max(7, int(n * 0.22)), 4)
        self.build_group("neutral", max(9, int(n * 0.24)), 6)
        self.build_group("loc", 5, 2)
        self.build_group("fac", 4, 2)
        self.build_group("org", 4, 2)

        prop_ids: list[str] = []
        for i in range(24):
            parents = []
            if prop_ids and i >= 6 and self.rng.random() < 0.5:
                parents = [self.rng.choice(prop_ids)]
            prop_ids.append(self.new_prop(label=self.words.next(),
                                          parents=parents).id)
        self._add(_Entity(id=WATCH_GOOD, label=self.words.next(),
                          kind="property"))
        self._add(_Entity(id=WATCH_OK, label=self.words.next(),
                          kind="property"))

    def random_type_pick(self, group: str) -> list[str]:
        g = self.groups[group]
        pool = [g["root"]] + g["tangle"]
        k = 2 if self.rng.random() < 0.15 and len(pool) > 1 else 1
        return self.rng.sample(pool, k)

    def leaf(self, group: str) -> str:
        return self.rng.choice(self.groups[group]["reserved"])

    # item population -----------------------------------------------------

    def build_items(self) -> None:
        rng = self.rng
        group_names = ["good", "ok", "bad", "neutral"]
        group_weights = [0.30, 0.15, 0.25, 0.30]
        n_families = max(3, self.n_items // 1000)
        family_starts = set(rng.sample(range(self.n_items),
                                       min(n_families, self.n_items)))

        i = 0
        while i < self.n_items:
            if i in family_starts and i + 4 < self.n_items:
                # Token-sharing family: exercises partial matching. Kept out
                # of tables so table candidate pools stay fully controlled.
                shared = self.words.next()
                fam_size = rng.randint(2, 4)
                self.new_item(label=shared,
                              types=self.random_type_pick("neutral"),
                              sitelinks=rng.randint(0, 30),
                              description=self.words.phrase(rng.randint(3, 6)))
                for _ in range(fam_size):
                    self.new_item(label=f"{shared} {self.words.next()}",
                                  types=self.random_type_pick("neutral"),
                                  sitelinks=rng.randint(0, 30),
                                  description=self.words.phrase(rng.randint(3, 6)))
                i += fam_size + 1
                continue
            r = rng.random()
            n_words = 1 if r < 0.70 else (2 if r < 0.95 else 3)
            r = rng.random()
            n_alias = 0 if r < 0.70 else (1 if r < 0.90 else 2)
            group = rng.choices(group_names, weights=group_weights)[0]
            ent = self.new_item(
                label=self.words.phrase(n_words),
                aliases=[self.words.next() for _ in range(n_alias)],
                types=[] if rng.random() < 0.10 else self.random_type_pick(group),
                flagged=[rng.choice([WATCH_GOOD, WATCH_OK])]
                if rng.random() < 0.08 else [],
                sitelinks=min(300, int(rng.paretovariate(1.1))),
                description="" if rng.random() < 0.2
                else self.words.phrase(rng.randint(3, 8)))
            if rng.random() < 0.02:
                ent.deprecated_types = [self.groups["bad"]["root"]]
                self.adversarial.append(ent.id)
            if rng.random() < 0.01:
                ent.novalue_type_claim = True
            if group != "bad":
                self.table_pool.append(ent)
            i += 1

        for group, count in (("loc", 3), ("fac", 3), ("org", 3)):
            g = self.groups[group]
            for _ in range(count):
                node = rng.choice([g["root"]] + g["tangle"])
                ent = self.new_item(label=self.words.next(), types=[node],
                                    sitelinks=rng.randint(0, 20),
                                    description=self.words.phrase(4))
                self.plants.append({"pattern": "expected_type_demo",
                                    "group": group, "id": ent.id,
                                    "label": ent.label})

    # ambiguity plants ------------------------------------------------------

    def plant_twins(self) -> None:
        rng = self.rng
        n_each = max(3, self.n_items // 2500)
        for _ in range(n_each):
            label = self.words.next()
            s1 = rng.randint(5, 40)
            a1 = self.new_item(label=label, types=[self.leaf("good")],
                               sitelinks=s1, description=self.words.phrase(4))
            a2 = self.new_item(label=label, types=[self.leaf("bad")],
                               sitelinks=s1 + rng.randint(10, 200),
                               description=self.words.phrase(4))
            self.plants.append({"pattern": "bad_twin", "label": label,
                                "gold": a1.id, "other": a2.id})
        for k in range(n_each):
            label = self.words.next()
            if k % 2 == 0:
                # GOOD vs UNKNOWN: the 0.18 tier gap beats any possible
                # prominence deficit (at most 0.15), so sitelinks are free.
                b1 = self.new_item(label=label, types=[self.leaf("good")],
                                   sitelinks=rng.randint(0, 100),
                                   description=self.words.phrase(4))
                b2 = self.new_item(label=label, types=[self.leaf("neutral")],
                                   sitelinks=rng.randint(0, 100),
                                   description=self.words.phrase(4))
            else:
                # OK vs UNKNOWN gap is only 0.09; equal sitelinks keep the
                # prominence term from flipping it.
                s = rng.randint(0, 100)
                b1 = self.new_item(label=label, types=[self.leaf("ok")],
                                   sitelinks=s,
                                   description=self.words.phrase(4))
                b2 = self.new_item(label=label, types=[self.leaf("neutral")],
                                   sitelinks=s,
                                   description=self.words.phrase(4))
            self.plants.append({"pattern": "tier_twin", "label": label,
                                "gold": b1.id, "other": b2.id})
        for _ in range(n_each):
            label = self.words.next()
            leaf = self.leaf("good")
            s2 = rng.randint(0, 100)
            c1 = self.new_item(label=label, types=[leaf],
                               sitelinks=s2 + rng.randint(1, 150),
                               description=self.words.phrase(4))
            c2 = self.new_item(label=label, types=[leaf], sitelinks=s2,
                               description=self.words.phrase(4))
            self.plants.append({"pattern": "sitelink_twin", "label": label,
                                "gold": c1.id, "other": c2.id})
        for _ in range(n_each):
            label = self.words.next()
            leaf = self.leaf("good")
            s = rng.randint(0, 60)
            e1 = self.new_item(label=label, types=[leaf], sitelinks=s,
                               description=self.words.phrase(4))
            e2 = self.new_item(label=self.words.next(), aliases=[label],
                               types=[leaf], sitelinks=s,
                               description=self.words.phrase(4))
            self.plants.append({"pattern": "alias_twin", "label": label,
                                "gold": e1.id, "other": e2.id})

    def _next_plants(self, pattern: str, n: int) -> list[dict]:
        plants = [p for p in self.plants if p["pattern"] == pattern]
        start = self._plant_cursor.get(pattern, 0)
        out = [plants[(start + i) % len(plants)] for i in range(n)]
        self._plant_cursor[pattern] = start + n
        return out

    # tables ---------------------------------------------------------------

    def _literal_cells(self, kind: str, n: int) -> list[str]:
        rng = self.rng
        out = []
        for _ in range(n):
            if kind == "percent":
                out.append(f"{rng.uniform(0, 100):.1f}%")
            elif kind == "number":
                out.append(str(rng.randint(-500, 5000)))
            elif kind == "date":
                out.append(f"{rng.randint(2015, 2024)}-"
                           f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
            elif kind == "sequence":
                out.append("".join(rng.choice("ACGT")
                                   for _ in range(rng.randint(8, 14))))
            else:
                out.append("NCT" + "".join(rng.choice("0123456789")
                                           for _ in range(8)))
        return out

    def _take_items(self, n: int) -> list[_Entity]:
        out = []
        while self.table_pool and len(out) < n:
            ent = self.table_pool.pop()
            if len(ent.label.split()) <= 2:
                out.append(ent)
        while len(out) < n:
            out.append(self.new_item(label=self.words.next(),
                                     types=self.random_type_pick("neutral"),
                                     sitelinks=self.rng.randint(0, 40),
                                     description=self.words.phrase(4)))
        return out

    def _entity_column(self, sub: str, n_rows: int
                       ) -> tuple[list[str], list[str | None]]:
        rng = self.rng
        if sub == "plain":
            items = self._take_items(n_rows)
            return [it.label for it in items], [it.id for it in items]
        if sub == "ambD":
            t_leaf = self.leaf("good")
            u_leaf = t_leaf
            while u_leaf == t_leaf:
                u_leaf = self.leaf("good")
            supports = [self.new_item(label=self.words.next(), types=[t_leaf],
                                      sitelinks=rng.randint(1, 50),
                                      description=self.words.phrase(4))
                        for _ in range(n_rows - 1)]
            label = self.words.next()
            s1 = rng.randint(1, 20)
            d1 = self.new_item(label=label, types=[t_leaf], sitelinks=s1,
                               description=self.words.phrase(4))
            d2 = self.new_item(label=label, types=[u_leaf],
                               sitelinks=s1 + rng.randint(5, 100),
                               description=self.words.phrase(4))
            self.plants.append({"pattern": "column_vote", "label": label,
                                "gold": d1.id, "other": d2.id,
                                "column_type": t_leaf})
            pos = rng.randrange(n_rows)
            items = supports[:pos] + [d1] + supports[pos:]
            return [it.label for it in items], [it.id for it in items]
        pattern = {"ambA": "bad_twin", "ambC": "sitelink_twin",
                   "ambE": "alias_twin"}[sub]
        n_plant = min(3, n_rows)
        plants = self._next_plants(pattern, n_plant)
        cells = [p["label"] for p in plants]
        golds: list[str | None] = [p["gold"] for p in plants]
        for it in self._take_items(n_rows - n_plant):
            cells.append(it.label)
            golds.append(it.id)
        return cells, golds

    def build_tables(self, tables_dir: Path
                     ) -> tuple[list[dict], list[GoldRecord]]:
        rng = self.rng
        rng.shuffle(self.table_pool)
        amb_cycle = ["ambD", "ambA", "ambC", "ambE", "plain"]
        literal_kinds = ["percent", "number", "date", "sequence", "nct"]
        tables_meta = []
        gold: list[GoldRecord] = []

        for t_i in range(self.n_tables):
            n_rows = rng.randint(5, 7)
            specs = [("entity", amb_cycle[t_i % len(amb_cycle)]),
                     ("entity", "plain"),
                     ("literal", literal_kinds[t_i % len(literal_kinds)])]
            if rng.random() < 0.5:
                specs.append(("entity", "plain"))
            if rng.random() < 0.5:
                specs.append(
                    ("literal", literal_kinds[(t_i + 2) % len(literal_kinds)]))
            rng.shuffle(specs)
            vertical = t_i % 3 == 2
            if vertical and specs[0][0] == "literal":
                # Working column 0 turns into the emitted header row, which
                # orientation scoring ignores. Keep the literal contrast in
                # the emitted body.
                j = next(i for i, s in enumerate(specs) if s[0] == "entity")
                specs[0], specs[j] = specs[j], specs[0]

            headers: list[str] = []
            header_gold: list[str | None] = []
            col_cells: list[list[str]] = []
            col_gold: list[list[str | None]] = []
            f_planted = False
            for kind, sub in specs:
                if kind == "literal":
                    cells = self._literal_cells(sub, n_rows)
                    golds: list[str | None] = [None] * n_rows
                    if not f_planted and t_i % 3 == 0:
                        # Item and property sharing a label; header mode must
                        # prefer the property. Zero sitelinks on both keep
                        # prominence out of the margin.
                        fq = self.new_item(label=self.words.next(), sitelinks=0)
                        fp = self.new_prop(label=fq.label, sitelinks=0)
                        headers.append(fq.label)
                        header_gold.append(fp.id)
                        self.plants.append({"pattern": "header_prop",
                                            "label": fq.label, "gold": fp.id,
                                            "other": fq.id})
                        f_planted = True
                    elif sub == "number" and rng.random() < 0.4:
                        headers.append(str(rng.randint(2015, 2024)))
                        header_gold.append(None)
                    else:
                        prop = self.new_prop(label=self.words.next())
                        headers.append(prop.label)
                        header_gold.append(prop.id)
                else:
                    prop = self.new_prop(label=self.words.next())
                    headers.append(prop.label)
                    header_gold.append(prop.id)
                    cells, golds = self._entity_column(sub, n_rows)
                col_cells.append(cells)
                col_gold.append(golds)

            plain_cols = [j for j, (k, s) in enumerate(specs)
                          if (k, s) == ("entity", "plain")]
            for _ in range(rng.randint(0, 2)):
                if not plain_cols:
                    break
                j = rng.choice(plain_cols)
                r = rng.randrange(n_rows)
                col_cells[j][r] = rng.choice(_EMPTY_TOKENS)
                col_gold[j][r] = None

            table_id = f"t{t_i:03d}"
            caption = self.words.phrase(3)
            width = len(headers)
            body = [[col_cells[j][r] for j in range(width)]
                    for r in range(n_rows)]

            if vertical:
                full = [headers] + body
                flipped = [list(col) for col in zip(*full)]
                table = Table(table_id, caption, tuple(flipped[0]),
                              tuple(tuple(r) for r in flipped[1:]))

                def coord(r: int | None, j: int) -> tuple[int, int]:
                    if r is None:
                        return j - 1, 0
                    return j - 1, r + 1
            else:
                table = Table(table_id, caption, tuple(headers),
                              tuple(tuple(r) for r in body))

                def coord(r: int | None, j: int) -> tuple[int, int]:
                    if r is None:
                        return -1, j
                    return r, j

            for j in range(width):
                row, col = coord(None, j)
                gold.append(GoldRecord(table_id, row, col,
                                       EntityId.parse(header_gold[j])
                                       if header_gold[j] else None))
                for r in range(n_rows):
                    row, col = coord(r, j)
                    gold.append(GoldRecord(table_id, row, col,
                                           EntityId.parse(col_gold[j][r])
                                           if col_gold[j][r] else None))

            want = "vertical" if vertical else "horizontal"
            if classify_orientation(table) != want:
                raise RuntimeError(
                    f"{table_id}: composed table does not classify as {want}")

            path = tables_dir / f"{table_id}.json"
            with open(path, "w", encoding="utf-8", newline="\n") as fp:
                json.dump(table_to_obj(table), fp, ensure_ascii=False, indent=2)
                fp.write("\n")
            tables_meta.append({
                "table_id": table_id,
                "file": path.name,
                "orientation": "vertical" if vertical else "horizontal",
            })
        return tables_meta, gold

    # mentions ---------------------------------------------------------------

    def build_mentions(self) -> list[str]:
        rng = self.rng
        items = [e for e in self.entities if e.kind == "item"]
        mentions = [e.label for e in rng.sample(items, min(600, len(items)))]
        with_alias = [e for e in items if e.aliases]
        for e in rng.sample(with_alias, min(200, len(with_alias))):
            mentions.append(rng.choice(e.aliases))
        multi = [e for e in items if " " in e.label]
        for e in rng.sample(multi, min(150, len(multi))):
            mentions.append(f"{e.label.split()[0]} {self.words.next()}")
        mentions.extend(p["label"] for p in self.plants if "label" in p)
        mentions.extend(self.words.next() for _ in range(100))
        for e in rng.sample(items, min(80, len(items))):
            mentions.append("  " + e.label.upper() + "  ")
        mentions.extend(["the of", "is the", "and or"])
        rng.shuffle(mentions)
        return mentions

    # config -------------------------------------------------------------

    def config_obj(self) -> dict:
        g = self.groups
        return {
            "type_dictionary": {
                "core-class": [g["good"]["root"]],
                "assay-marker": [g["good"]["root"]],
                "aux-class": [g["ok"]["root"]],
                "aux-marker": [g["ok"]["root"]],
                "noise-class": [g["bad"]["root"]],
                "location": [g["loc"]["root"]],
                "facility": [g["fac"]["root"]],
                "organization": [g["org"]["root"]],
                "broad-class": [g["good"]["root"], g["ok"]["root"]],
            },
            "tiers": {
                "target": ["location"],
                "near_miss": ["facility", "organization"],
                "good": ["core-class", "assay-marker"],
                "ok": ["aux-class", "aux-marker"],
                "bad": ["noise-class"],
            },
            "near_miss_map": {"location": ["facility", "organization"]},
            "property_inference": [
                {"if_property": WATCH_GOOD, "then_type_name": "assay-marker"},
                {"if_property": WATCH_OK, "then_type_name": "aux-marker"},
            ],
        }

    # dump ------------------------------------------------------------------

    def _claim_value(self, target: str) -> dict:
        eid = EntityId.parse(target)
        if self.rng.random() < 0.5:
            return {"entity-type": eid.kind, "numeric-id": eid.num}
        return {"id": target}

    def _entity_claim(self, prop: str, target: str, rank: str = "normal") -> dict:
        return {"mainsnak": {"snaktype": "value", "property": prop,
                             "datavalue": {"type": "wikibase-entityid",
                                           "value": self._claim_value(target)}},
                "rank": rank}

    def _doc_for(self, ent: _Entity) -> dict:
        claims: dict[str, list] = {}
        type_claims = [self._entity_claim("P31", t) for t in ent.types]
        type_claims.extend(self._entity_claim("P31", t, rank="deprecated")
                           for t in ent.deprecated_types)
        if ent.novalue_type_claim:
            type_claims.append({"mainsnak": {"snaktype": "novalue",
                                             "property": "P31"},
                                "rank": "normal"})
        if type_claims:
            claims["P31"] = type_claims
        if ent.parents:
            rel = "P279" if ent.kind == "item" else "P1647"
            claims[rel] = [self._entity_claim(rel, p) for p in ent.parents]
        for prop in ent.flagged:
            claims[prop] = [{"mainsnak": {"snaktype": "value", "property": prop,
                                          "datavalue": {"type": "string",
                                                        "value": "x-" + ent.id}},
                             "rank": "normal"}]
        doc = {
            "id": ent.id,
            "type": ent.kind,
            "labels": {"en": {"language": "en", "value": ent.label}},
        }
        if ent.aliases:
            doc["aliases"] = {"en": [{"language": "en", "value": a}
                                     for a in ent.aliases]}
        if ent.description:
            doc["descriptions"] = {"en": {"language": "en",
                                          "value": ent.description}}
        if claims:
            doc["claims"] = claims
        if ent.sitelinks:
            doc["sitelinks"] = {f"s{i}wiki": {"site": f"s{i}wiki",
                                              "title": ent.label}
                                for i in range(ent.sitelinks)}
        return doc

    def build_dump_lines(self) -> tuple[list[str], int, int]:
        rng = self.rng
        # Dump-array lines end in a comma where JSON Lines end the line.
        doc_lines = [dump_json_line(self._doc_for(e))[:-1] + ","
                     for e in self.entities]

        n_unlabeled = max(5, self.n_items // 2000)
        neutral_pool = ([self.groups["neutral"]["root"]]
                        + self.groups["neutral"]["tangle"])
        for i in range(n_unlabeled):
            doc = {
                "id": f"Q{1_500_000 + i}",
                "type": "item",
                "labels": {"de": {"language": "de", "value": self.words.next()}},
                "claims": {"P279": [self._entity_claim(
                    "P279", rng.choice(neutral_pool))]},
            }
            doc_lines.append(dump_json_line(doc)[:-1] + ",")

        bad_docs = [
            '{"id":"X5","labels":{"en":{"language":"en","value":"broken"}}},',
            '{"id":"Q7","claims":"not-an-object"},',
            '{"labels":{"en":{"language":"en","value":"missing id"}}},',
        ]
        garbage = ['{"id": "Q8", "labels": ', "!!not json!!,", "{]},"]
        malformed = bad_docs + garbage
        n_extra = max(0, self.n_items // 5000 - len(malformed))
        malformed.extend('{"oops": %d' % i for i in range(n_extra))
        for line in malformed:
            doc_lines.insert(rng.randrange(len(doc_lines) + 1), line)

        lines = ["["] + doc_lines + ["]"]
        return lines, n_unlabeled, len(malformed)


def generate_synthetic_kb(out_dir: str | Path,
                          seed: int = 1,
                          n_items: int = 2000,
                          n_types: int = 120,
                          n_tables: int = 6) -> SynthResult:
    """Generate a complete synthetic corpus under out_dir.

    Deterministic: the same arguments produce byte-identical files. The
    records/edges files are exactly what ingesting the emitted dump produces;
    generation fails loudly if its own bookkeeping disagrees with the ingest
    stats. Raises ValueError when n_types is below MIN_TYPES.
    """
    if n_types < MIN_TYPES:
        raise ValueError(f"n_types must be at least {MIN_TYPES}, not {n_types}")
    out = Path(out_dir)
    tables_dir = out / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)

    b = _Builder(seed, n_items, n_types, n_tables)
    b.build_types()
    b.build_items()
    b.plant_twins()
    tables_meta, gold = b.build_tables(tables_dir)
    mentions = b.build_mentions()
    lines, n_unlabeled, n_malformed = b.build_dump_lines()

    dump_path = out / "dump.jsonl"
    with open(dump_path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write("\n".join(lines) + "\n")

    config_path = out / "config.json"
    save_config(config_path, validate_config(parse_config_obj(b.config_obj())))

    records_path = out / "records.jsonl"
    edges_path = out / "edges.jsonl"
    watchlist = [EntityId.parse(WATCH_GOOD), EntityId.parse(WATCH_OK)]
    stats = ingest_dump(dump_path, records_path, edges_path, watchlist)
    if (stats.records_emitted != len(b.entities)
            or stats.skipped_no_label != n_unlabeled
            or stats.parse_errors != n_malformed):
        raise RuntimeError(f"generator bookkeeping mismatch: {stats} vs "
                           f"{len(b.entities)}/{n_unlabeled}/{n_malformed}")

    gold_path = out / "gold.jsonl"
    write_gold(gold_path, gold)

    mentions_path = out / "mentions.txt"
    with open(mentions_path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write("\n".join(mentions) + "\n")

    truth = {
        "seed": seed,
        "n_items": n_items,
        "n_types": b.n_types,
        "n_tables": n_tables,
        "counts": {
            "entities": len(b.entities),
            "labeled": len(b.entities),
            "unlabeled": n_unlabeled,
            "malformed": n_malformed,
            "adversarial_deprecated": len(b.adversarial),
        },
        "adversarial_ids": list(b.adversarial),
        "watch_props": [WATCH_GOOD, WATCH_OK],
        "flagged": {e.id: list(e.flagged) for e in b.entities if e.flagged},
        "groups": {name: g for name, g in b.groups.items()},
        "plants": b.plants,
        "tables": tables_meta,
        "files": {
            "dump": dump_path.name,
            "records": records_path.name,
            "edges": edges_path.name,
            "config": config_path.name,
            "gold": gold_path.name,
            "mentions": mentions_path.name,
            "tables_dir": "tables",
        },
    }
    truth_path = out / "truth.json"
    with open(truth_path, "w", encoding="utf-8", newline="\n") as fp:
        json.dump(truth, fp, ensure_ascii=False, indent=2, sort_keys=True)
        fp.write("\n")

    return SynthResult(
        out_dir=out, dump_path=dump_path, records_path=records_path,
        edges_path=edges_path, config_path=config_path, gold_path=gold_path,
        tables_dir=tables_dir, mentions_path=mentions_path,
        truth_path=truth_path, labeled=len(b.entities),
        unlabeled=n_unlabeled, malformed=n_malformed, truth=truth)
