"""Knowledge-base data model: entity ids, item records, type edges, and the
domain configuration that parameterizes linking.

All types here are immutable after construction/validation and safe for
unrestricted concurrent reads.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    BadWeights,
    ConfigError,
    InvalidEntityId,
    TierConflict,
    UnresolvedTypeName,
)
from .text import normalize

ITEM = "item"
PROPERTY = "property"

SUBCLASS_OF = "subclass_of"
SUBPROPERTY_OF = "subproperty_of"

TIER_NAMES = ("target", "near_miss", "good", "ok", "bad")

_ID_RE = re.compile(r"^([QP])(0|[1-9][0-9]*)$")


@dataclass(frozen=True)
class EntityId:
    """A Q-item or P-property identifier. Ordering is (kind, num) with
    items before properties, used for every deterministic tie-break."""

    kind: str
    num: int

    @classmethod
    def parse(cls, raw: str) -> "EntityId":
        m = _ID_RE.match(raw)
        if m is None:
            raise InvalidEntityId(f"not a Q/P identifier: {raw!r}")
        return cls(ITEM if m.group(1) == "Q" else PROPERTY, int(m.group(2)))

    @property
    def raw(self) -> str:
        return ("Q" if self.kind == ITEM else "P") + str(self.num)

    @property
    def is_item(self) -> bool:
        return self.kind == ITEM

    @property
    def is_property(self) -> bool:
        return self.kind == PROPERTY

    def sort_key(self) -> tuple[int, int]:
        return (0 if self.kind == ITEM else 1, self.num)

    def __lt__(self, other: "EntityId") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return self.raw

    def __repr__(self) -> str:
        return f"EntityId({self.raw!r})"


def parse_id_list(raws: Iterable[str]) -> tuple[EntityId, ...]:
    return tuple(EntityId.parse(r) for r in raws)


@dataclass(frozen=True)
class ItemRecord:
    """One knowledge-base entity (item or property) as kept by the index.

    Construction enforces the record invariants: the label is non-empty,
    aliases are deduplicated by normalized form and never repeat the label,
    direct types are item ids, flagged props are property ids.
    """

    id: EntityId
    label: str
    aliases: tuple[str, ...] = ()
    description: str = ""
    direct_types: tuple[EntityId, ...] = ()
    sitelinks_count: int = 0
    flagged_props: frozenset[EntityId] = frozenset()

    def __post_init__(self):
        if not self.label or not normalize(self.label):
            raise ValueError(f"{self.id}: record label must be non-empty")
        if self.sitelinks_count < 0:
            raise ValueError(f"{self.id}: negative sitelinks count")
        label_norm = normalize(self.label)
        seen = {label_norm}
        aliases = []
        for a in self.aliases:
            norm = normalize(a)
            if not norm or norm in seen:
                continue
            seen.add(norm)
            aliases.append(a)
        object.__setattr__(self, "aliases", tuple(aliases))
        types = []
        type_seen = set()
        for t in self.direct_types:
            if not t.is_item:
                raise ValueError(f"{self.id}: direct type {t} is not an item id")
            if t not in type_seen:
                type_seen.add(t)
                types.append(t)
        object.__setattr__(self, "direct_types", tuple(types))
        flagged = frozenset(self.flagged_props)
        for p in flagged:
            if not p.is_property:
                raise ValueError(f"{self.id}: flagged prop {p} is not a property id")
        object.__setattr__(self, "flagged_props", flagged)


def record_to_obj(record: ItemRecord) -> dict:
    return {
        "id": record.id.raw,
        "label": record.label,
        "aliases": list(record.aliases),
        "description": record.description,
        "direct_types": [t.raw for t in record.direct_types],
        "sitelinks_count": record.sitelinks_count,
        "flagged_props": sorted((p.raw for p in record.flagged_props),
                                key=lambda r: EntityId.parse(r).sort_key()),
    }


def record_from_obj(obj: Mapping) -> ItemRecord:
    return ItemRecord(
        id=EntityId.parse(obj["id"]),
        label=obj["label"],
        aliases=tuple(obj.get("aliases", ())),
        description=obj.get("description", ""),
        direct_types=parse_id_list(obj.get("direct_types", ())),
        sitelinks_count=int(obj.get("sitelinks_count", 0)),
        flagged_props=frozenset(parse_id_list(obj.get("flagged_props", ()))),
    )


def dump_json_line(obj: Mapping) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_records(path: str | Path, records: Iterable[ItemRecord]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        for record in records:
            fp.write(dump_json_line(record_to_obj(record)) + "\n")
            n += 1
    return n


def read_records(path: str | Path) -> Iterator[ItemRecord]:
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                yield record_from_obj(json.loads(line))


@dataclass(frozen=True)
class TypeEdge:
    """A subclass-of (items) or subproperty-of (properties) edge.

    Kind consistency is not enforced here: the closure builder receives raw
    edges and is the place that rejects cross-kind ones.
    """

    child: EntityId
    parent: EntityId
    relation: str

    @property
    def is_kind_consistent(self) -> bool:
        if self.relation == SUBCLASS_OF:
            return self.child.is_item and self.parent.is_item
        if self.relation == SUBPROPERTY_OF:
            return self.child.is_property and self.parent.is_property
        return False


def edge_to_obj(edge: TypeEdge) -> dict:
    return {"child": edge.child.raw, "parent": edge.parent.raw,
            "relation": edge.relation}


def edge_from_obj(obj: Mapping) -> TypeEdge:
    return TypeEdge(EntityId.parse(obj["child"]), EntityId.parse(obj["parent"]),
                    obj["relation"])


def write_edges(path: str | Path, edges: Iterable[TypeEdge]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        for edge in edges:
            fp.write(dump_json_line(edge_to_obj(edge)) + "\n")
            n += 1
    return n


def read_edges(path: str | Path) -> Iterator[TypeEdge]:
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                yield edge_from_obj(json.loads(line))


@dataclass(frozen=True)
class InferenceRule:
    """Presence of a watched property implies a domain type name."""

    if_property: EntityId
    then_type_name: str


@dataclass(frozen=True)
class Weights:
    """Score component weights. Must be non-negative and sum to 1.0."""

    w_type: float = 0.45
    w_match: float = 0.25
    w_prom: float = 0.15
    w_ctx: float = 0.15

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w_type, self.w_match, self.w_prom, self.w_ctx)


@dataclass(frozen=True)
class Params:
    k: int = 20
    sample_size: int = 5
    support_threshold: float = 0.5
    min_link_score: float = 0.25
    header_property_boost: float = 0.10
    column_type_boost: float = 0.20
    header_column_boost: float = 0.10


@dataclass(frozen=True)
class DomainConfig:
    """The raw (name-level) domain configuration, before validation."""

    type_dictionary: Mapping[str, tuple[EntityId, ...]] = field(default_factory=dict)
    tiers: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    near_miss_map: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    property_inference: tuple[InferenceRule, ...] = ()
    weights: Weights = Weights()
    params: Params = Params()


@dataclass(frozen=True, eq=True)
class ValidatedConfig:
    """A DomainConfig with every type name resolved to id sets and all
    invariants checked. Immutable; safe to share across threads."""

    type_dictionary: Mapping[str, tuple[EntityId, ...]]
    tiers: Mapping[str, tuple[str, ...]]
    near_miss_map: Mapping[str, tuple[str, ...]]
    property_inference: tuple[InferenceRule, ...]
    weights: Weights
    params: Params
    target_ids: frozenset[EntityId]
    near_miss_tier_ids: frozenset[EntityId]
    good_ids: frozenset[EntityId]
    ok_ids: frozenset[EntityId]
    bad_ids: frozenset[EntityId]
    good_names: frozenset[str]
    ok_names: frozenset[str]
    near_miss_ids: Mapping[str, frozenset[EntityId]]
    content_hash: str

    def resolve_names(self, names: Iterable[str]) -> frozenset[EntityId]:
        """Union of dictionary ids for the given type names. Names missing
        from the dictionary resolve to nothing (runtime inputs such as
        expected types are not validated at config time)."""
        ids: set[EntityId] = set()
        for name in names:
            ids.update(self.type_dictionary.get(name, ()))
        return frozenset(ids)

    def to_obj(self) -> dict:
        """Canonical JSON-ready form; feeding it back through
        parse_config_obj + validate_config yields an equal config."""
        return {
            "type_dictionary": {
                name: [i.raw for i in sorted(ids, key=EntityId.sort_key)]
                for name, ids in sorted(self.type_dictionary.items())
            },
            "tiers": {tier: sorted(self.tiers.get(tier, ())) for tier in TIER_NAMES},
            "near_miss_map": {
                name: sorted(vals) for name, vals in sorted(self.near_miss_map.items())
            },
            "property_inference": [
                {"if_property": r.if_property.raw, "then_type_name": r.then_type_name}
                for r in sorted(self.property_inference,
                                key=lambda r: (r.if_property.sort_key(), r.then_type_name))
            ],
            "weights": {
                "w_type": self.weights.w_type,
                "w_match": self.weights.w_match,
                "w_prom": self.weights.w_prom,
                "w_ctx": self.weights.w_ctx,
            },
            "params": {
                "k": self.params.k,
                "sample_size": self.params.sample_size,
                "support_threshold": self.params.support_threshold,
                "min_link_score": self.params.min_link_score,
                "header_property_boost": self.params.header_property_boost,
                "column_type_boost": self.params.column_type_boost,
                "header_column_boost": self.params.header_column_boost,
            },
        }


def _require_keys(obj: Mapping, allowed: Iterable[str], where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def parse_config_obj(obj: Mapping) -> DomainConfig:
    """Strictly parse the external config document into a DomainConfig.

    Unknown keys are rejected everywhere; missing sections fall back to
    empty/default values.
    """
    if not isinstance(obj, Mapping):
        raise ConfigError("config document must be a JSON object")
    _require_keys(obj, ("type_dictionary", "tiers", "near_miss_map",
                        "property_inference", "weights", "params"), "config")

    type_dictionary = {}
    for name, raws in (obj.get("type_dictionary") or {}).items():
        if not isinstance(raws, list):
            raise ConfigError(f"type_dictionary[{name!r}] must be a list of ids")
        type_dictionary[str(name)] = parse_id_list(raws)

    tiers_obj = obj.get("tiers") or {}
    _require_keys(tiers_obj, TIER_NAMES, "tiers")
    tiers = {}
    for tier in TIER_NAMES:
        names = tiers_obj.get(tier, [])
        if not isinstance(names, list):
            raise ConfigError(f"tiers[{tier!r}] must be a list of type names")
        tiers[tier] = tuple(str(n) for n in names)

    near_miss_map = {}
    for name, vals in (obj.get("near_miss_map") or {}).items():
        if not isinstance(vals, list):
            raise ConfigError(f"near_miss_map[{name!r}] must be a list of type names")
        near_miss_map[str(name)] = tuple(str(v) for v in vals)

    rules = []
    for entry in obj.get("property_inference") or []:
        _require_keys(entry, ("if_property", "then_type_name"), "property_inference rule")
        if "if_property" not in entry or "then_type_name" not in entry:
            raise ConfigError("property_inference rule needs if_property and then_type_name")
        pid = EntityId.parse(entry["if_property"])
        if not pid.is_property:
            raise ConfigError(f"property_inference.if_property {pid} is not a property id")
        rules.append(InferenceRule(pid, str(entry["then_type_name"])))

    weights_obj = obj.get("weights")
    if weights_obj is None:
        weights = Weights()
    else:
        _require_keys(weights_obj, ("w_type", "w_match", "w_prom", "w_ctx"), "weights")
        missing = {"w_type", "w_match", "w_prom", "w_ctx"} - set(weights_obj)
        if missing:
            raise ConfigError(f"weights missing: {', '.join(sorted(missing))}")
        weights = Weights(float(weights_obj["w_type"]), float(weights_obj["w_match"]),
                          float(weights_obj["w_prom"]), float(weights_obj["w_ctx"]))

    params_obj = obj.get("params") or {}
    defaults = Params()
    _require_keys(params_obj, ("k", "sample_size", "support_threshold",
                               "min_link_score", "header_property_boost",
                               "column_type_boost", "header_column_boost"), "params")
    params = Params(
        k=int(params_obj.get("k", defaults.k)),
        sample_size=int(params_obj.get("sample_size", defaults.sample_size)),
        support_threshold=float(params_obj.get("support_threshold",
                                               defaults.support_threshold)),
        min_link_score=float(params_obj.get("min_link_score", defaults.min_link_score)),
        header_property_boost=float(params_obj.get("header_property_boost",
                                                   defaults.header_property_boost)),
        column_type_boost=float(params_obj.get("column_type_boost",
                                               defaults.column_type_boost)),
        header_column_boost=float(params_obj.get("header_column_boost",
                                                 defaults.header_column_boost)),
    )
    if params.k < 1:
        raise ConfigError("params.k must be >= 1")
    if params.sample_size < 1:
        raise ConfigError("params.sample_size must be >= 1")
    if not (0.0 < params.support_threshold <= 1.0):
        raise ConfigError("params.support_threshold must be in (0, 1]")
    for name in ("min_link_score", "header_property_boost", "column_type_boost",
                 "header_column_boost"):
        value = getattr(params, name)
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"params.{name} must be a finite number >= 0")

    return DomainConfig(type_dictionary, tiers, near_miss_map, tuple(rules),
                        weights, params)


def _renormalized(weights: Weights) -> Weights:
    values = weights.as_tuple()
    if any(w < 0 for w in values):
        raise BadWeights(f"negative weight in {values}")
    total = values[0] + values[1] + values[2] + values[3]
    if abs(total - 1.0) > 1e-6:
        raise BadWeights(f"weights sum to {total!r}, expected 1.0 within 1e-6")
    # Iterate to an exact floating-point fixpoint so validation is idempotent
    # and serialized configs round-trip bit-for-bit.
    for _ in range(16):
        if total == 1.0:
            return Weights(*values)
        values = tuple(w / total for w in values)
        total = values[0] + values[1] + values[2] + values[3]
    raise BadWeights(f"weight renormalization did not converge for {weights}")


def validate_config(cfg: DomainConfig) -> ValidatedConfig:
    """Resolve all type names, check tier conflicts, renormalize weights."""

    def resolve(names: Iterable[str], where: str) -> frozenset[EntityId]:
        ids: set[EntityId] = set()
        for name in names:
            if name not in cfg.type_dictionary:
                raise UnresolvedTypeName(f"{where} references unknown type name {name!r}")
            ids.update(cfg.type_dictionary[name])
        return frozenset(ids)

    tiers = {tier: tuple(cfg.tiers.get(tier, ())) for tier in TIER_NAMES}
    unknown_tiers = set(cfg.tiers) - set(TIER_NAMES)
    if unknown_tiers:
        raise ConfigError(f"unknown tier(s): {', '.join(sorted(unknown_tiers))}")

    target_ids = resolve(tiers["target"], "tiers.target")
    near_miss_tier_ids = resolve(tiers["near_miss"], "tiers.near_miss")
    good_ids = resolve(tiers["good"], "tiers.good")
    ok_ids = resolve(tiers["ok"], "tiers.ok")
    bad_ids = resolve(tiers["bad"], "tiers.bad")

    near_miss_ids = {}
    for name, vals in cfg.near_miss_map.items():
        if name not in cfg.type_dictionary:
            raise UnresolvedTypeName(f"near_miss_map key {name!r} is not in type_dictionary")
        near_miss_ids[name] = resolve(vals, f"near_miss_map[{name!r}]")

    for rule in cfg.property_inference:
        if rule.then_type_name not in cfg.type_dictionary:
            raise UnresolvedTypeName(
                f"property_inference rule for {rule.if_property} references "
                f"unknown type name {rule.then_type_name!r}")

    conflict = bad_ids & (target_ids | good_ids | ok_ids)
    if conflict:
        raws = ", ".join(i.raw for i in sorted(conflict, key=EntityId.sort_key))
        raise TierConflict(f"id(s) under bad and a positive tier: {raws}")

    weights = _renormalized(cfg.weights)

    validated = ValidatedConfig(
        type_dictionary=dict(cfg.type_dictionary),
        tiers=tiers,
        near_miss_map=dict(cfg.near_miss_map),
        property_inference=tuple(cfg.property_inference),
        weights=weights,
        params=cfg.params,
        target_ids=target_ids,
        near_miss_tier_ids=near_miss_tier_ids,
        good_ids=good_ids,
        ok_ids=ok_ids,
        bad_ids=bad_ids,
        good_names=frozenset(tiers["good"]),
        ok_names=frozenset(tiers["ok"]),
        near_miss_ids=near_miss_ids,
        content_hash="",
    )
    canonical = json.dumps(validated.to_obj(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    object.__setattr__(validated, "content_hash", digest)
    return validated


def load_config(path: str | Path) -> ValidatedConfig:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            obj = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    return validate_config(parse_config_obj(obj))


def save_config(path: str | Path, cfg: ValidatedConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        json.dump(cfg.to_obj(), fp, ensure_ascii=False, indent=2)
        fp.write("\n")
