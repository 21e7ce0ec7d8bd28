"""Every way to build a kb.Checked type runs its checking __new__: the
constructor, _make, _replace, copy.copy, copy.deepcopy and a pickle round
trip all refuse an invalid value and derive the derived fields again."""

import copy
import pickle
import re

import pytest

from tablink import ConfigError, EntityId, ItemRecord, UnresolvedTypeName
from tablink.kb import (
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
