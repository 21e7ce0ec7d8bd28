"""Every way to build a kb.Checked type runs its checking __new__: the
constructor, _make, _replace, copy.copy, copy.deepcopy and a pickle round
trip all refuse an invalid value and derive the derived fields again."""

import copy
import json
import pickle
import random
import re

import pytest

from tablink import ConfigError, EntityId, ItemRecord, UnresolvedTypeName
from tablink.kb import (
    TIER_NAMES,
    Checked,
    InferenceRule,
    Params,
    ValidatedConfig,
    Weights,
    parse_config_obj,
)
from tablink.tables import Table

q = EntityId.parse

CONFIG = parse_config_obj({
    "type_dictionary": {"virus": ["Q10"], "place": ["Q20"]},
    "tiers": {"good": ["virus"], "bad": ["place"]},
})

# type -> (a valid instance, a valid change).
CASES = {
    ItemRecord: (ItemRecord(q("Q1"), "Alpha", ("alpha", "Beta")),
                 ("label", "Gamma")),
    Params: (Params(), ("k", 7)),
    ValidatedConfig: (
        CONFIG,
        ("type_dictionary", {"virus": (q("Q10"), q("Q11")), "place": (q("Q20"),)})),
    Table: (Table("t1", "caption", ("a", "b"), (("1", "2"),)),
            ("caption", "other")),
}

# id -> (type, an invalid change to its CASES instance, the error and
# message that change raises).
INVALID = {
    "record-blank-label": (ItemRecord, ("label", "   "), ValueError,
                           "label must be non-empty"),
    "record-text-id": (ItemRecord, ("id", "Q1"), TypeError,
                       "id must be EntityId, not str"),
    "record-numeric-label": (ItemRecord, ("label", 5), TypeError,
                             "label must be str, not int"),
    "record-numeric-description": (ItemRecord, ("description", 5), TypeError,
                                   "description must be str, not int"),
    "record-float-sitelinks": (ItemRecord, ("sitelinks_count", 3.0), TypeError,
                               "sitelinks_count must be int, not float"),
    "record-bool-sitelinks": (ItemRecord, ("sitelinks_count", True), TypeError,
                              "sitelinks_count must be int, not bool"),
    "params-k": (Params, ("k", 0), ConfigError, "params.k must be >= 1"),
    "params-fractional-k": (Params, ("k", 2.5), ConfigError,
                            "params.k must be an integer, not 2.5"),
    "params-bool-k": (Params, ("k", True), ConfigError,
                      "params.k must be a number, not True"),
    "config-numeric-name": (
        ValidatedConfig, ("type_dictionary", {5: (q("Q10"),), "virus": (q("Q10"),),
                                              "place": (q("Q20"),)}),
        ConfigError, "type_dictionary key 5 must be a type name"),
    "config-numeric-tier-name": (
        ValidatedConfig, ("tiers", {"good": ("virus", 5)}), ConfigError,
        "tiers['good'] must be a list of type names"),
    "config-numeric-tier": (
        ValidatedConfig, ("tiers", {5: ("virus",)}), ConfigError,
        "unknown key(s) in tiers: 5"),
    "config-string-near-miss": (
        ValidatedConfig, ("near_miss_map", {"virus": "place"}), ConfigError,
        "near_miss_map['virus'] must be a list of type names"),
    "config-numeric-near-miss-key": (
        ValidatedConfig, ("near_miss_map", {5: ("place",)}), ConfigError,
        "near_miss_map key 5 must be a type name"),
    "config-text-ids": (
        ValidatedConfig, ("type_dictionary", {"virus": ("Q10",), "place": (q("Q20"),)}),
        ConfigError, "type_dictionary['virus'] must be a list of ids"),
    "config-numeric-rule-name": (
        ValidatedConfig, ("property_inference", (InferenceRule(q("P31"), 5),)),
        ConfigError, "property_inference.then_type_name must be a type name"),
    "config-bool-weight": (
        ValidatedConfig, ("weights", Weights(True, 0.0, 0.0, 0.0)), ConfigError,
        "weights.w_type must be a number, not True"),
    "config-unknown-name": (
        ValidatedConfig, ("tiers", {"good": ("nowhere",)}), UnresolvedTypeName,
        "tiers.good references unknown type name 'nowhere'"),
    "config-unknown-tier": (
        ValidatedConfig, ("tiers", {"target": ("nowhere",)}), ConfigError,
        "unknown key(s) in tiers: target"),
    "config-property-type-id": (
        ValidatedConfig,
        ("type_dictionary", {"virus": (q("Q10"), q("P31")), "place": (q("Q20"),)}),
        ConfigError, "type_dictionary['virus']: P31 is not an item id"),
    "config-item-if-property": (
        ValidatedConfig, ("property_inference", (InferenceRule(q("Q31"), "virus"),)),
        ConfigError, "property_inference.if_property Q31 is not a property id"),
    # Unchecked, three weights would take w_ctx's default and sum to 1.15.
    "config-tuple-weights": (
        ValidatedConfig, ("weights", (0.5, 0.3, 0.2)), TypeError,
        "weights must be Weights, not tuple"),
    "config-dict-params": (
        ValidatedConfig, ("params", {"k": 3}), TypeError,
        "params must be Params, not dict"),
    "config-tuple-rule": (
        ValidatedConfig, ("property_inference", ((q("P31"), "virus"),)), TypeError,
        "property_inference rule must be InferenceRule, not tuple"),
    "config-text-if-property": (
        ValidatedConfig, ("property_inference", (InferenceRule("P31", "virus"),)),
        TypeError, "property_inference.if_property must be EntityId, not str"),
    "table-short-row": (Table, ("rows", (("1",),)), ValueError,
                        "row 0 has 1 cells, header has 2"),
    "table-numeric-id": (Table, ("table_id", 5), TypeError,
                         "table_id must be str, not int"),
    "table-null-caption": (Table, ("caption", None), TypeError,
                           "caption must be str, not NoneType"),
    "table-numeric-header": (Table, ("header_row", ("a", 5)), TypeError,
                             "headers must be a list of strings"),
    "table-numeric-cell": (Table, ("rows", (("1", 2),)), TypeError,
                           "row 0 must be a list of strings"),
}

COPIES = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))


def _unchecked(cls, fields):
    """An instance holding fields as given, built past __new__."""
    return tuple.__new__(cls, fields)


@pytest.mark.parametrize("cls", sorted(Checked.__subclasses__(),
                                       key=lambda c: c.__name__))
def test_every_way_to_build_runs_the_check(cls):
    assert set(Checked.__subclasses__()) == set(CASES)
    assert {c for c, *_ in INVALID.values()} == set(CASES)
    good, (name, value) = CASES[cls]
    n = cls._args
    derived = cls._fields[n:]
    args = good[:n]

    # A derived field is not an argument: every way derives it again.
    stale = _unchecked(cls, (*args, *(None,) * len(derived)))
    assert cls(*args) == good
    assert cls._make(stale) == good
    assert stale._replace() == good
    for make_copy in COPIES:
        assert make_copy(stale) == good

    # A changed argument changes what is derived from it, as in a new one.
    changed = good._replace(**{name: value})
    assert changed == cls(**(dict(zip(cls._fields, args)) | {name: value}))
    assert changed != good
    if derived:
        assert changed[n:] != good[n:]
    for field in derived:
        with pytest.raises(ValueError, match=f"derived field.* {field} "):
            good._replace(**{field: getattr(good, field)})

    with pytest.raises(TypeError, match="Expected"):
        cls._make(tuple(good)[:-1])


@pytest.mark.parametrize("case", sorted(INVALID))
def test_every_way_to_build_refuses_an_invalid_value(case):
    cls, (bad_name, bad_value), error, message = INVALID[case]
    good = CASES[cls][0]
    n = cls._args
    message = re.escape(message)
    bad_fields = tuple(bad_value if f == bad_name else v
                       for f, v in zip(cls._fields, good))
    bad = _unchecked(cls, bad_fields)
    with pytest.raises(error, match=message):
        cls(*bad_fields[:n])
    with pytest.raises(error, match=message):
        cls._make(bad_fields)
    with pytest.raises(error, match=message):
        good._replace(**{bad_name: bad_value})
    for make_copy in COPIES:
        with pytest.raises(error, match=message):
            make_copy(bad)


def test_a_config_keeps_its_tiers_under_exactly_the_three_names():
    # So a config built directly equals the one parsed from the same
    # document, as their one content_hash says.
    direct = ValidatedConfig(dict(CONFIG.type_dictionary),
                             {"good": ["virus"], "bad": ("place",)}, {}, (),
                             Weights(), Params())
    assert direct.tiers == {"good": ("virus",), "ok": (), "bad": ("place",)}
    assert direct == CONFIG


NAMES = ("a", "b", "c", "d")
# a and b name ids from the first pair, c and d from the second.
IDS = ((q("Q1"), q("Q2")), (q("Q3"), q("Q4")))
RULE_PROPS = (q("P1"), q("P2"))
WEIGHTS = ((0.45, 0.25, 0.15, 0.15), (1, 0, 0, 0), (0.5, 0.5, 0, 0))
PARAMS = ({}, {"k": 3}, {"min_link_score": 1},
          {"support_threshold": 1, "sample_size": 2})


def _draw_config_args(rng) -> tuple:
    """ValidatedConfig's six arguments, drawn from pools small enough that
    draws repeat a content."""
    def some(pool, most):
        return rng.sample(pool, rng.randint(0, most))

    type_dictionary = {name: some(IDS[name > "b"], 2) for name in NAMES}
    # The positive tier names only a and b, bad only c: no draw conflicts.
    tiers = {rng.choice(["good", "ok"]): some(NAMES[:2], 2),
             "bad": some(NAMES[2:3], 1)}
    near_miss_map = {name: some(NAMES, 2) for name in some(NAMES[:2], 2)}
    rules = [InferenceRule(p, rng.choice(NAMES)) for p in some(RULE_PROPS, 2)]
    return (type_dictionary, tiers, near_miss_map, rules,
            rng.choice(WEIGHTS), rng.choice(PARAMS))


def _written(rng, args) -> tuple:
    """args in a random form: mappings in any key order, each list in any
    order as a list or a tuple, an empty tier given or left out, and each
    integral number as an int or a float."""
    def form(values):
        values = rng.sample(list(values), len(values))
        return values if rng.random() < 0.5 else tuple(values)

    def mapping(m):
        return {key: form(m[key]) for key in form(m)
                if m[key] or key not in TIER_NAMES or rng.random() < 0.5}

    def number(x):
        return rng.choice([int(x), float(x)]) if x == int(x) else x

    type_dictionary, tiers, near_miss_map, rules, weights, params = args
    return (mapping(type_dictionary), mapping(tiers), mapping(near_miss_map),
            form(rules), Weights(*map(number, weights)),
            Params(**{name: number(v) for name, v in params.items()}))


def _every_way(rng, args, other: ValidatedConfig) -> list[ValidatedConfig]:
    """The config of args, each time written anew, built through the
    constructor, _make, _replace of another config, copy, deepcopy, pickle
    and parse_config_obj(to_obj())."""
    def stale():
        return tuple.__new__(ValidatedConfig, (*_written(rng, args), None))

    made = ValidatedConfig(*_written(rng, args))
    return [made, ValidatedConfig._make(stale()),
            other._replace(**dict(zip(ValidatedConfig._fields, _written(rng, args)))),
            stale()._replace(), *(make_copy(stale()) for make_copy in COPIES),
            parse_config_obj(json.loads(json.dumps(made.to_obj())))]


def test_generated_configs_are_equal_exactly_when_their_hashes_are():
    rng = random.Random(0xC0DE)
    by_hash: dict[str, ValidatedConfig] = {}
    other = ValidatedConfig(*_written(rng, _draw_config_args(rng)))
    built = 0
    for _ in range(300):
        args = _draw_config_args(rng)
        configs = _every_way(rng, args, other)
        # A _replace twin: one field of the last config changed.
        field = rng.randrange(6)
        written = _written(rng, args)
        configs.append(other._replace(**{other._fields[field]: written[field]}))
        twin_args = list(other[:6])
        twin_args[field] = written[field]
        assert configs[-1] == ValidatedConfig(*twin_args)
        assert all(c == configs[0] for c in configs[1:-1])
        for cfg in configs:
            built += 1
            # The to_obj() round trip is the identity, number types included.
            obj = cfg.to_obj()
            again = parse_config_obj(json.loads(json.dumps(obj)))
            assert again == cfg and repr(again[:6]) == repr(cfg[:6])
            assert again.to_obj() == obj
            # One hash, one config, stored in one form. (Equal configs share
            # a hash, which is one of their fields.)
            first = by_hash.setdefault(cfg.content_hash, cfg)
            assert cfg == first and repr(cfg[:6]) == repr(first[:6])
        other = configs[0]
    # Some contents were drawn more than once.
    assert built == 300 * 9 and 100 <= len(by_hash) < 2 * 300
