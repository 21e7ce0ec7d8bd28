"""Knowledge-base data model: entity ids, item records, type edges, and the
domain configuration that parameterizes linking.

Every type here is a typing.NamedTuple: immutable, safe for unrestricted
concurrent reads, and compared as a tuple of its fields. A type with an
invariant (ItemRecord, Params, ValidatedConfig, and tables.Table) is a
Checked subclass of a private fields tuple, and defines only a __new__ that
checks its arguments and derives its remaining fields. Checked sends _make,
_replace, copy and pickle through that __new__, so no way of making one
skips the check or keeps a stale derived field.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cache
from pathlib import Path
from typing import NamedTuple, TypeVar

from .errors import (
    BadWeights,
    ConfigError,
    InvalidEntityId,
    ParseError,
    TierConflict,
    UnresolvedTypeName,
)
from .text import normalize

ITEM = "item"
PROPERTY = "property"

SUBCLASS_OF = "subclass_of"
SUBPROPERTY_OF = "subproperty_of"

TIER_NAMES = ("good", "ok", "bad")

_ID_RE = re.compile(r"([QP])(0|[1-9][0-9]*)")

T = TypeVar("T")


class EntityId(NamedTuple):
    """A Q-item or P-property identifier. As a tuple it orders by (kind,
    num), and "item" < "property", so items sort before properties and
    then by number; every deterministic tie-break uses this order."""

    kind: str
    num: int

    @classmethod
    def parse(cls, raw: str) -> "EntityId":
        m = _ID_RE.fullmatch(raw) if isinstance(raw, str) else None
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

    def __str__(self) -> str:
        return self.raw

    def __repr__(self) -> str:
        return f"EntityId({self.raw!r})"


def parse_id_list(raws: Iterable[str]) -> tuple[EntityId, ...]:
    return tuple(EntityId.parse(r) for r in raws)


def item_types(ids: Iterable[EntityId]) -> tuple[EntityId, ...]:
    """A record's direct types: ids in first-seen order without repeats,
    refused with ValueError unless each is an item id."""
    types = tuple(dict.fromkeys(ids))
    if not all(t.is_item for t in types):
        raise ValueError(f"direct types must be item ids: {types}")
    return types


def must_be(value, name: str, *types: type):
    """value, refused with TypeError unless its type is one of types (a
    bool is no int): the one wording of a field of the wrong type."""
    if type(value) not in types:
        raise TypeError(f"{name} must be "
                        f"{' or '.join(t.__name__ for t in types)}, "
                        f"not {type(value).__name__}")
    return value


class Checked:
    """Base of a named tuple whose __new__ checks it: _make, _replace, copy
    and pickle all build through that __new__. A subclass lists Checked
    before its fields tuple and passes args, how many leading fields are
    __new__'s arguments (all by default); __new__ derives the rest, so
    _make ignores them and _replace refuses them."""

    __slots__ = ()

    def __init_subclass__(cls, args: int | None = None) -> None:
        cls._args = len(cls._fields) if args is None else args

    @classmethod
    def _make(cls, fields: Iterable):
        if len(fields := tuple(fields)) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} fields, got {len(fields)}")
        return cls(*fields[:cls._args])

    def _replace(self, **changes):
        derived = changes.keys() & set(self._fields[self._args:])
        if derived:
            raise ValueError(f"derived field(s) {', '.join(sorted(derived))} "
                             "cannot be replaced")
        return super()._replace(**changes)

    def __getnewargs__(self) -> tuple:
        # The arguments copy and pickle pass to __new__.
        return tuple(self)[:self._args]


class _ItemRecordFields(NamedTuple):
    id: EntityId
    label: str
    aliases: tuple[str, ...]
    description: str
    direct_types: tuple[EntityId, ...]
    sitelinks_count: int
    flagged_props: frozenset[EntityId]
    surfaces: tuple[str, ...]


class ItemRecord(Checked, _ItemRecordFields, args=7):
    """One knowledge-base entity (item or property) as kept by the index.

    Construction checks that the id is an EntityId, the label a non-empty
    str, the description a str and the sitelinks count a non-negative int;
    it dedupes aliases by normalized form, never repeating the label, and
    checks that direct types are item ids and flagged props property ids.

    surfaces is the normalized label, then each kept alias's normalized
    form: what the alias dedupe computes and the index is built from. It is
    derived, so it is not an argument.
    """

    __slots__ = ()

    def __new__(cls, id: EntityId, label: str, aliases: Iterable[str] = (),
                description: str = "",
                direct_types: Iterable[EntityId] = (),
                sitelinks_count: int = 0,
                flagged_props: Iterable[EntityId] = frozenset()):
        must_be(id, "id", EntityId)
        must_be(label, "label", str)
        must_be(description, "description", str)
        must_be(sitelinks_count, "sitelinks_count", int)
        label_norm = normalize(label)
        if not label_norm:
            raise ValueError(f"{id}: record label must be non-empty")
        if sitelinks_count < 0:
            raise ValueError(f"{id}: negative sitelinks count")
        # Normalized form -> the first string with it; the label's first.
        kept = {label_norm: label}
        for a in aliases:
            norm = normalize(a)
            if norm and norm not in kept:
                kept[norm] = a
        flagged = frozenset(flagged_props)
        for p in flagged:
            if not p.is_property:
                raise ValueError(f"{id}: flagged prop {p} is not a property id")
        return tuple.__new__(cls, (
            id, label, tuple(kept.values())[1:], description,
            item_types(direct_types), sitelinks_count, flagged, tuple(kept)))


def record_to_obj(record: ItemRecord) -> dict:
    return {
        "id": record.id.raw,
        "label": record.label,
        "aliases": list(record.aliases),
        "description": record.description,
        "direct_types": [t.raw for t in record.direct_types],
        "sitelinks_count": record.sitelinks_count,
        "flagged_props": [p.raw for p in sorted(record.flagged_props)],
    }


_REQUIRED = object()


def typed_field(obj: Mapping, name: str, *types: type, default=_REQUIRED):
    """obj[name], refused as must_be() refuses it unless its JSON type is
    one of types. An absent name gives default, or a KeyError when there is
    none."""
    value = obj.get(name, _REQUIRED)
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise KeyError(name)
        return default
    return must_be(value, name, *types)


def record_from_obj(obj: Mapping,
                    parse_id: Callable[[str], EntityId] = EntityId.parse,
                    ) -> ItemRecord:
    """A field of the wrong JSON type is refused, never coerced: a list
    here, a scalar by ItemRecord; list elements are checked by normalize()
    and parse_id(), EntityId.parse or one that gives the same ids."""
    return ItemRecord(
        id=EntityId.parse(obj["id"]),
        label=obj["label"],
        aliases=tuple(typed_field(obj, "aliases", list, default=())),
        description=obj.get("description", ""),
        # ItemRecord refuses a direct type that is not an item id.
        direct_types=tuple(map(parse_id, typed_field(
            obj, "direct_types", list, default=()))),
        sitelinks_count=obj.get("sitelinks_count", 0),
        flagged_props=frozenset(map(parse_id, typed_field(
            obj, "flagged_props", list, default=()))),
    )


def _id_parser() -> Callable[[object], EntityId]:
    """EntityId.parse that parses each distinct id string once. Made per
    file read: the few type and property ids recur on many lines."""
    parse = cache(EntityId.parse)
    # A non-string (a list, say) is refused by EntityId.parse itself.
    return lambda raw: parse(raw) if type(raw) is str else EntityId.parse(raw)


# json.dumps() would build an encoder on every call that passes options.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def dump_json_line(obj: Mapping) -> str:
    """The one JSON Lines encoder: compact, non-ASCII kept, newline ended."""
    return _LINE_ENCODER.encode(obj) + "\n"


def write_jsonl(path: str | Path, objs: Iterable[Mapping]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        for obj in objs:
            fp.write(dump_json_line(obj))
            n += 1
    return n


# What a decoder raises for a missing field or a value of the wrong type or
# form; the readers below report it as ParseError naming the file.
_DECODE_ERRORS = (AttributeError, LookupError, TypeError, ValueError)


def read_lines(path: str | Path, decode: Callable[[str], T]) -> Iterator[T]:
    """decode() of each non-blank line, as UTF-8 text without its line
    ending. A line that is not UTF-8, or that decode() refuses, raises
    ParseError naming the file and line."""
    with open(path, "rb") as fp:
        yield from decode_lines(path, fp, decode)


def decode_lines(path: str | Path, raw_lines: Iterable[bytes],
                 decode: Callable[[str], T]) -> Iterator[T]:
    """read_lines() over raw_lines, the byte lines of the file at path."""
    for lineno, raw in enumerate(raw_lines, 1):
        try:
            line = raw.rstrip(b"\r\n").decode("utf-8")
            if not line.strip():
                continue
            value = decode(line)
        except _DECODE_ERRORS as exc:
            raise ParseError(f"{path}:{lineno}: bad line "
                             f"({type(exc).__name__}: {exc})") from exc
        yield value


def read_jsonl(path: str | Path, decode: Callable[[dict], T]) -> Iterator[T]:
    """decode() of the JSON object on each non-blank line, refused as
    read_lines() refuses a line."""
    return read_lines(path, lambda line: decode(json.loads(line)))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; json.loads would keep a repeated key's last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def read_json(path: str | Path, decode: Callable[[object], T]) -> T:
    """decode() of the file's one JSON document. A file that is not UTF-8
    JSON, repeats a key within an object, or that decode() refuses, raises
    ParseError naming the file; ConfigError and ParseError from decode()
    pass through unchanged."""
    data = Path(path).read_bytes()
    try:
        return decode(json.loads(data.decode("utf-8"),
                                 object_pairs_hook=_unique_keys))
    except _DECODE_ERRORS as exc:
        raise ParseError(f"{path}: bad document "
                         f"({type(exc).__name__}: {exc})") from exc


def dump_json(obj: object, *, sort_keys: bool = False) -> str:
    """The one JSON document encoder: indented, non-ASCII kept, newline ended."""
    return json.dumps(obj, ensure_ascii=False, indent=2,
                      sort_keys=sort_keys) + "\n"


def write_json(path: str | Path, obj: object, *, sort_keys: bool = False) -> None:
    Path(path).write_text(dump_json(obj, sort_keys=sort_keys),
                          encoding="utf-8", newline="\n")


def write_records(path: str | Path, records: Iterable[ItemRecord]) -> int:
    return write_jsonl(path, map(record_to_obj, records))


def read_records(path: str | Path) -> Iterator[ItemRecord]:
    parse_id = _id_parser()
    yield from read_jsonl(path, lambda obj: record_from_obj(obj, parse_id))


def read_direct_types(path: str | Path) -> Iterator[tuple[EntityId, ...]]:
    """Each records line's direct_types alone, checked as ItemRecord checks
    them; `closure --records` reads no other field."""
    parse_id = _id_parser()
    yield from read_jsonl(path, lambda obj: item_types(map(parse_id, typed_field(
        obj, "direct_types", list, default=()))))


class TypeEdge(NamedTuple):
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
                    typed_field(obj, "relation", str))


def read_edges(path: str | Path) -> Iterator[TypeEdge]:
    yield from read_jsonl(path, edge_from_obj)


class InferenceRule(NamedTuple):
    """Presence of a watched property implies a domain type name."""

    if_property: EntityId
    then_type_name: str


class Weights(NamedTuple):
    """Score component weights. Must be non-negative and sum to 1.0."""

    w_type: float = 0.45
    w_match: float = 0.25
    w_prom: float = 0.15
    w_ctx: float = 0.15


class _ParamsFields(NamedTuple):
    k: int = 20
    sample_size: int = 5
    support_threshold: float = 0.5
    min_link_score: float = 0.25
    header_property_boost: float = 0.10
    column_type_boost: float = 0.20
    header_column_boost: float = 0.10


class Params(Checked, _ParamsFields):
    """Linking parameters, each checked and converted as the parser does."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = tuple.__new__(cls, _numbers(
            cls, super().__new__(cls, *args, **kwargs), "params"))
        if self.k < 1:
            raise ConfigError("params.k must be >= 1")
        if self.sample_size < 1:
            raise ConfigError("params.sample_size must be >= 1")
        if not 0.0 < self.support_threshold <= 1.0:
            raise ConfigError("params.support_threshold must be in (0, 1]")
        for name in ("min_link_score", "header_property_boost",
                     "column_type_boost", "header_column_boost"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ConfigError(f"params.{name} must be >= 0")
        return self


class _ConfigFields(NamedTuple):
    type_dictionary: Mapping[str, tuple[EntityId, ...]]
    tiers: Mapping[str, tuple[str, ...]]
    near_miss_map: Mapping[str, tuple[str, ...]]
    property_inference: tuple[InferenceRule, ...]
    weights: Weights
    params: Params
    content_hash: str


class ValidatedConfig(Checked, _ConfigFields, args=6):
    """The domain configuration, all invariants checked. Immutable; safe to
    share across threads. Its type names resolve to ids through
    resolve_names() alone, as classify_type_tier() uses them.

    The first six fields are the configuration, stored as to_obj() writes
    it: name and id lists as sorted tuples (cfg.tiers["good"] reads back
    sorted), mappings in name order, tiers under exactly good, ok and bad,
    rules sorted, numbers as their parse gives them. Construction refuses,
    with the parser's messages, other tier names, names that are not str,
    values that are not lists or tuples of names or item EntityIds, item ids
    as if_property, unknown names, an id under bad and a positive tier, and
    bad weights, which it renormalizes; as must_be() does, weights, params
    and rules of another type. The last field, content_hash, is the sha256
    of to_obj()'s JSON: one hash, one config.
    """

    __slots__ = ()

    def __new__(cls, type_dictionary: Mapping[str, Iterable[EntityId]],
                tiers: Mapping[str, Iterable[str]],
                near_miss_map: Mapping[str, Iterable[str]],
                property_inference: Iterable[InferenceRule],
                weights: Weights, params: Params):
        def resolve(names: Iterable[str], where: str) -> frozenset[EntityId]:
            for name in names:
                if name not in type_dictionary:
                    raise UnresolvedTypeName(
                        f"{where} references unknown type name {name!r}")
            return frozenset().union(*(type_dictionary[name] for name in names))

        _require_keys(tiers, TIER_NAMES, "tiers")
        checked = _by_name(type_dictionary, "type_dictionary", EntityId, "ids")
        for name, type_ids in type_dictionary.items():
            for i in type_ids:
                if not i.is_item:
                    raise ConfigError(f"type_dictionary[{name!r}]: {i} is not an item id")
        type_dictionary = checked
        tiers = {tier: _sorted(tiers.get(tier, ()), f"tiers[{tier!r}]")
                 for tier in TIER_NAMES}
        near_miss_map = _by_name(near_miss_map, "near_miss_map")
        property_inference = tuple(property_inference)
        for rule in property_inference:
            must_be(rule, "property_inference rule", InferenceRule)
            if not must_be(rule.if_property, "property_inference.if_property",
                           EntityId).is_property:
                raise ConfigError(f"property_inference.if_property "
                                  f"{rule.if_property} is not a property id")
            _name(rule.then_type_name, "property_inference.then_type_name")
        property_inference = tuple(sorted(property_inference))
        # The tiers' ids serve only to refuse a conflict; every other name
        # is resolved only to refuse unknown names.
        ids = {tier: resolve(names, f"tiers.{tier}")
               for tier, names in tiers.items()}
        resolve(near_miss_map, "near_miss_map")
        for name, vals in near_miss_map.items():
            resolve(vals, f"near_miss_map[{name!r}]")
        for rule in property_inference:
            resolve([rule.then_type_name],
                    f"property_inference rule for {rule.if_property}")

        conflict = ids["bad"] & (ids["good"] | ids["ok"])
        if conflict:
            raws = ", ".join(i.raw for i in sorted(conflict))
            raise TierConflict(f"id(s) under bad and a positive tier: {raws}")

        fields = (type_dictionary, tiers, near_miss_map, property_inference,
                  _renormalized(must_be(weights, "weights", Weights)),
                  must_be(params, "params", Params))
        canonical = json.dumps(tuple.__new__(cls, (*fields, "")).to_obj(),
                               sort_keys=True, separators=(",", ":"))
        return tuple.__new__(cls, (
            *fields, hashlib.sha256(canonical.encode("utf-8")).hexdigest()))

    def resolve_names(self, names: Iterable[str]) -> frozenset[EntityId]:
        """Union of dictionary ids for the given type names. Names missing
        from the dictionary resolve to nothing (runtime inputs such as
        expected types are not validated at config time)."""
        ids: set[EntityId] = set()
        for name in names:
            ids.update(self.type_dictionary.get(name, ()))
        return frozenset(ids)

    def to_obj(self) -> dict:
        """The fields as JSON-ready values, in the order they are stored;
        feeding it back through parse_config_obj yields an equal config."""
        return {
            "type_dictionary": {name: [i.raw for i in ids]
                                for name, ids in self.type_dictionary.items()},
            "tiers": {tier: list(names) for tier, names in self.tiers.items()},
            "near_miss_map": {name: list(vals)
                              for name, vals in self.near_miss_map.items()},
            "property_inference": [
                {"if_property": r.if_property.raw, "then_type_name": r.then_type_name}
                for r in self.property_inference],
            "weights": self.weights._asdict(),
            "params": self.params._asdict(),
        }


def _name(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a type name")
    return value


def _sorted(value, where: str, kind: type = str, what: str = "type names"):
    """value, a list or tuple of kind, as a sorted tuple."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, kind) for v in value):
        raise ConfigError(f"{where} must be a list of {what}")
    return tuple(sorted(value))


def _by_name(mapping: Mapping, where: str, *kind) -> dict[str, tuple]:
    """mapping in name order, keys checked by _name(), values by _sorted()."""
    return dict(sorted({_name(name, f"{where} key {name!r}"):
                        _sorted(value, f"{where}[{name!r}]", *kind)
                        for name, value in mapping.items()}.items()))


def _require_keys(obj: Mapping, allowed: Iterable[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(map(str, set(obj) - set(allowed)))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _section(obj: Mapping, key: str, kind: type = Mapping):
    """The config section under key, of the given kind (Mapping or list).
    An absent or null section reads as empty."""
    value = obj.get(key)
    if value is None:
        return {} if kind is Mapping else []
    if not isinstance(value, kind):
        raise ConfigError(
            f"{key} must be a JSON {'object' if kind is Mapping else 'array'}")
    return value


def _number(value, kind: type, where: str) -> int | float:
    """A config value checked against its field's type, int or float.
    Bools, non-numbers, non-finite values and non-integral ints are
    refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, not {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, not {value!r}")
    if kind is int:
        if value != int(value):
            raise ConfigError(f"{where} must be an integer, not {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is out of range") from None


def _numbers(cls, values: Iterable, where: str) -> tuple:
    """values, cls's fields (Weights or Params), checked as _number() does."""
    return tuple(_number(value, type(default), f"{where}.{name}")
                 for (name, default), value
                 in zip(cls._field_defaults.items(), values))


def _parse_fields(cls, obj: Mapping, key: str, *, require_all: bool):
    """An instance of cls (Weights or Params) from the section under key.
    An absent or null section gives the defaults; otherwise fields it leaves
    out keep their defaults unless require_all."""
    if (section := obj.get(key)) is None:
        return cls()
    _require_keys(section, cls._fields, key)
    missing = [name for name in cls._fields if name not in section]
    if require_all and missing:
        raise ConfigError(f"{key} missing: {', '.join(missing)}")
    return cls(**section)


def _total(values: Iterable[float]) -> float:
    """Left-to-right float sum; the builtin sum() compensates on 3.12+."""
    total = 0.0
    for w in values:
        total += w
    return total


def _renormalized(weights: Weights) -> Weights:
    values = _numbers(Weights, weights, "weights")
    if any(w < 0 for w in values):
        raise BadWeights(f"negative weight in {values}")
    total = _total(values)
    if abs(total - 1.0) > 1e-6:
        raise BadWeights(f"weights sum to {total!r}, expected 1.0 within 1e-6")
    # Iterate to an exact floating-point fixpoint so validation is idempotent
    # and serialized configs round-trip bit-for-bit.
    for _ in range(16):
        if total == 1.0:
            return Weights(*values)
        values = tuple(w / total for w in values)
        total = _total(values)
    # The division can oscillate an ulp either side of 1.0. Then the largest
    # weight that can absorb the rounding error takes it.
    for i in sorted(range(len(values)), key=lambda i: -values[i]):
        fixed = list(values)
        fixed[i] = 0.0
        fixed[i] = 1.0 - _total(fixed)
        if fixed[i] >= 0 and _total(fixed) == 1.0:
            return Weights(*fixed)
    raise BadWeights(f"weight renormalization did not converge for {weights}")


def parse_config_obj(obj: Mapping) -> ValidatedConfig:
    """Strictly parse and validate the external config document.

    Unknown keys are rejected everywhere; missing sections fall back to
    empty/default values. It checks the document's shape and parses ids;
    Params and ValidatedConfig check and store every value.
    """
    _require_keys(obj, ("type_dictionary", "tiers", "near_miss_map",
                        "property_inference", "weights", "params"),
                  "config document")
    # ValidatedConfig refuses a value that is not a list.
    type_dictionary = {
        name: parse_id_list(raws) if isinstance(raws, list) else raws
        for name, raws in _section(obj, "type_dictionary").items()}

    rules = []
    for entry in _section(obj, "property_inference", list):
        _require_keys(entry, ("if_property", "then_type_name"), "property_inference rule")
        if "if_property" not in entry or "then_type_name" not in entry:
            raise ConfigError("property_inference rule needs if_property and then_type_name")
        rules.append(InferenceRule(EntityId.parse(entry["if_property"]),
                                   entry["then_type_name"]))

    return ValidatedConfig(
        type_dictionary, _section(obj, "tiers"), _section(obj, "near_miss_map"),
        rules, _parse_fields(Weights, obj, "weights", require_all=True),
        _parse_fields(Params, obj, "params", require_all=False))


def load_config(path: str | Path) -> ValidatedConfig:
    """The config in the file; a refusal keeps its ConfigError class and
    names the file."""
    try:
        return read_json(path, parse_config_obj)
    except ConfigError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_config(path: str | Path, cfg: ValidatedConfig) -> None:
    write_json(path, cfg.to_obj())
