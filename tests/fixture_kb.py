"""Hand-built fixture knowledge bases for the biomedical worked examples.

Each fixture encodes only well-known facts about the public KB items involved
(ids, labels, rough popularity ordering) plus whatever padding the scenario
needs, and returns ready-to-use (records, closure, config) triples.
"""

from __future__ import annotations

from tablink import (
    EntityId,
    ItemRecord,
    Table,
    TypeEdge,
    build_closure,
    parse_config_obj,
)

Q = EntityId.parse


def _rec(eid: str, label: str, *, aliases=(), description="", types=(),
         sitelinks=0, flagged=()) -> ItemRecord:
    return ItemRecord(
        id=Q(eid), label=label, aliases=tuple(aliases),
        description=description,
        direct_types=tuple(Q(t) for t in types),
        sitelinks_count=sitelinks,
        flagged_props=frozenset(Q(p) for p in flagged))


def _config(obj: dict):
    return parse_config_obj(obj)


def virus_fixture():
    """83 items all labeled "virus". Q808 (the infectious agent) has the most
    sitelinks among non-rejected items, but films/songs/albums outrank it in
    raw popularity and must be discarded by bad-type rejection."""
    records = [
        _rec("Q808", "virus", description="small infectious agent",
             types=["Q6999053"], sitelinks=180),
    ]
    # Creative works named "virus". Ten outrank Q808 in raw popularity, so
    # the retrieval pool leads with them; the rest pad the long tail. Q808
    # must stay inside the top-k pool for rejection to be able to save it.
    for i in range(40):
        kind = ["Q11424", "Q7366", "Q482994"][i % 3]  # film, song, album
        sitelinks = 291 - 10 * i if i < 10 else 5 + (i - 10)
        records.append(_rec(f"Q{6000 + i}", "virus",
                            description="creative work",
                            types=[kind], sitelinks=sitelinks))
    # Other same-label items: less prominent than Q808, not rejected.
    for i in range(42):
        records.append(_rec(f"Q{7000 + i}", "virus",
                            description="miscellaneous homonym",
                            sitelinks=i % 90))
    config = _config({
        "type_dictionary": {
            "creative-work": ["Q11424", "Q7366", "Q482994"],
        },
        "tiers": {"bad": ["creative-work"]},
    })
    return records, build_closure([]), config


def prevalence_fixture():
    """P1193 (property) and Q719602 (item) share the label "prevalence" and
    are otherwise tied; only the header-mode property boost separates them."""
    records = [
        _rec("Q719602", "prevalence", description="epidemiological measure",
             types=["Q1949963"], sitelinks=0),
        ItemRecord(id=Q("P1193"), label="prevalence",
                   description="portion of a population with a condition",
                   aliases=(), direct_types=(), sitelinks_count=0,
                   flagged_props=frozenset()),
    ]
    config = _config({"type_dictionary": {}, "tiers": {}})
    return records, build_closure([]), config


def lineage_fixture():
    """A "Lineage" column of SARS-CoV-2 variant names. Q1517820 ("lineage",
    the generic concept) wins the header in isolation; the column's dominant
    type (Q104450895, variant of SARS-CoV-2) must pull the header toward the
    nomenclature item instead."""
    records = [
        _rec("Q1517820", "lineage",
             description="group of organisms with common ancestry",
             sitelinks=12),
        _rec("Q99518587", "pango nomenclature", aliases=("lineage",),
             description="variant naming system for sars-cov-2 lineages",
             sitelinks=12),
        _rec("Q104450895", "variant of SARS-CoV-2",
             description="virus variant class", sitelinks=3),
        _rec("Q106288060", "B.1.1.7", types=["Q104450895"], sitelinks=40,
             description="alpha variant"),
        _rec("Q105557391", "B.1.351", types=["Q104450895"], sitelinks=35,
             description="beta variant"),
        _rec("Q105429541", "P.1", types=["Q104450895"], sitelinks=30,
             description="gamma variant"),
    ]
    config = _config({"type_dictionary": {}, "tiers": {}})
    table = Table(
        "lineage-table", "circulating variants",
        ("Lineage", "Cases"),
        (("B.1.1.7", "120"), ("B.1.351", "85"), ("P.1", "44")))
    return records, build_closure([]), config, table


def near_miss_fixture():
    """An institute typed as research institute (an organization subclass).
    With expected type "location" it is not a TARGET but must be accepted
    through the facility/organization near-miss mapping."""
    records = [
        _rec("Q1333425", "Wuhan Institute of Virology",
             description="research institute in wuhan",
             types=["Q31855"], sitelinks=40),
        _rec("Q31855", "research institute", sitelinks=5),
        _rec("Q43229", "organization", sitelinks=9),
        _rec("Q13226383", "facility", sitelinks=4),
        _rec("Q17334923", "location", sitelinks=6),
    ]
    edges = [TypeEdge(Q("Q31855"), Q("Q43229"), "subclass_of")]
    config = _config({
        "type_dictionary": {
            "location": ["Q17334923"],
            "facility": ["Q13226383"],
            "organization": ["Q43229"],
        },
        "near_miss_map": {"location": ["facility", "organization"]},
    })
    return records, build_closure(edges), config
