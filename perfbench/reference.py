"""Output checks that do not come from the code under test.

``LinearSearch`` re-implements candidate retrieval from the matching rules
in the README ("How linking works", Retrieval) as a scan over every record
of the records file. It reads the records as plain JSON and does not call
``tablink.index``; only the shipped stopword list is shared, since it is
data the rules refer to.

``gold_failures`` scores annotations against gen-kb's rule-derived gold
with ``tablink.evalbench.evaluate``, the scorer ``tablink eval`` ships; the
gold comes from gen-kb's generation rules, not from the linker.
"""

from __future__ import annotations

import json
import math
import re
import unicodedata
from collections.abc import Iterable
from pathlib import Path

from tablink.errors import GoldMismatch
from tablink.evalbench import GoldRecord, evaluate
from tablink.tables import TableAnnotation
from tablink.text import STOPWORDS

_WS = re.compile(r"\s+")
_TIER_RANK = {"exact_label": 2, "exact_alias": 1, "partial": 0}


def normalize(text: str) -> str:
    """Unicode NFC, lowercase, collapsed whitespace."""
    return _WS.sub(" ", unicodedata.normalize("NFC", text).lower()).strip()


def tokens(text: str) -> list[str]:
    return [t for t in normalize(text).split(" ") if t and t not in STOPWORDS]


def _id_key(raw: str) -> tuple[int, int]:
    return (0 if raw[0] == "Q" else 1, int(raw[1:]))


class LinearSearch:
    def __init__(self, records_path: str | Path):
        self.rows = {}
        with open(records_path, encoding="utf-8") as fp:
            for line in fp:
                if line.strip():
                    obj = json.loads(line)
                    surfaces = [obj["label"], *obj.get("aliases", ())]
                    self.rows[obj["id"]] = (
                        normalize(obj["label"]),
                        {normalize(a) for a in obj.get("aliases", ())},
                        {t for s in surfaces for t in tokens(s)},
                        int(obj.get("sitelinks_count", 0)))

    def search(self, mention: str, k: int) -> list[tuple[str, str, float]]:
        """(id, match tier, token overlap) of the top k candidates."""
        norm = normalize(mention)
        distinct = list(dict.fromkeys(tokens(mention)))
        needed = math.ceil(len(distinct) / 2)
        hits = []
        for rid, (label, aliases, toks, sitelinks) in self.rows.items():
            if norm == label:
                tier, overlap = "exact_label", 1.0
            elif norm in aliases:
                tier, overlap = "exact_alias", 1.0
            else:
                covered = sum(1 for t in distinct if t in toks)
                if not covered or covered < needed:
                    continue
                tier, overlap = "partial", covered / len(distinct)
            hits.append((-_TIER_RANK[tier], -overlap, -sitelinks, _id_key(rid),
                         rid, tier, overlap))
        hits.sort()
        return [(h[4], h[5], h[6]) for h in hits[:k]]


def gold_failures(annotations: Iterable[TableAnnotation],
                  gold: Iterable[GoldRecord]) -> list[str]:
    """One failure per annotated table whose precision or candidate recall
    against gen-kb's gold, as ``tablink eval`` scores them with
    ``evaluate``, is below 1.0."""
    by_table: dict[str, list[GoldRecord]] = {}
    for g in gold:
        by_table.setdefault(g.table_id, []).append(g)
    failures = []
    for ann in annotations:
        mine = by_table.get(ann.table_id, [])
        if not any(g.expected is not None for g in mine):
            continue
        try:
            score = evaluate([ann], mine).per_table[ann.table_id]
        except GoldMismatch as exc:
            failures.append(f"{ann.table_id}: {exc}")
            continue
        if score.precision_hits < score.cells_with_gold \
                or score.recall_hits < score.cells_with_gold:
            failures.append(
                f"{ann.table_id}: precision {score.precision_hits}/"
                f"{score.cells_with_gold}, candidate recall "
                f"{score.recall_hits}/{score.cells_with_gold}")
    return failures
