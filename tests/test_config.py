import json
import math
import random
from types import SimpleNamespace

import pytest

from tablink import (
    BadWeights,
    ConfigError,
    EntityId,
    Index,
    InvalidEntityId,
    ItemRecord,
    Params,
    ParseError,
    TierConflict,
    UnresolvedTypeName,
    Weights,
    build_closure,
    load_config,
    parse_config_obj,
    save_config,
    save_index,
    write_closure,
)
from tablink.cli import main


def minimal_obj():
    return {
        "type_dictionary": {
            "disease": ["Q12136"],
            "taxon": ["Q16521"],
            "work": ["Q386724"],
            "place": ["Q17334923"],
            "site": ["Q1496967"],
        },
        "tiers": {
            "good": ["disease"],
            "ok": ["taxon"],
            "bad": ["work"],
        },
        "near_miss_map": {"place": ["site"]},
        "property_inference": [
            {"if_property": "P486", "then_type_name": "disease"},
        ],
    }


def test_minimal_config_validates_and_resolves():
    cfg = parse_config_obj(minimal_obj())
    q = EntityId.parse
    assert cfg.resolve_names(cfg.tiers["good"]) == frozenset({q("Q12136")})
    assert cfg.resolve_names(cfg.tiers["ok"]) == frozenset({q("Q16521")})
    assert cfg.resolve_names(cfg.tiers["bad"]) == frozenset({q("Q386724")})
    assert cfg.resolve_names(cfg.near_miss_map["place"]) == frozenset({q("Q1496967")})
    assert cfg.tiers["good"] == ("disease",)
    assert cfg.content_hash


def test_defaults_when_sections_missing():
    cfg = parse_config_obj({})
    assert tuple(cfg.weights) == (0.45, 0.25, 0.15, 0.15)
    assert cfg.params.k == 20
    assert cfg.params.min_link_score == 0.25
    assert cfg.resolve_names(["anything"]) == frozenset()


def test_unknown_keys_rejected_everywhere():
    for mutate in (
        lambda o: o.update(extra=1),
        lambda o: o["tiers"].update(meh=[]),
        lambda o: o["property_inference"][0].update(rank=1),
    ):
        obj = minimal_obj()
        mutate(obj)
        with pytest.raises(ConfigError):
            parse_config_obj(obj)


def test_unresolved_tier_name():
    obj = minimal_obj()
    obj["tiers"]["good"] = ["no-such-name"]
    with pytest.raises(UnresolvedTypeName):
        parse_config_obj(obj)


def test_unresolved_near_miss_and_inference_names():
    obj = minimal_obj()
    obj["near_miss_map"] = {"place": ["missing"]}
    with pytest.raises(UnresolvedTypeName):
        parse_config_obj(obj)
    obj = minimal_obj()
    obj["near_miss_map"] = {"missing": ["site"]}
    with pytest.raises(UnresolvedTypeName, match="'missing'"):
        parse_config_obj(obj)
    obj = minimal_obj()
    obj["property_inference"] = [
        {"if_property": "P486", "then_type_name": "missing"}]
    with pytest.raises(UnresolvedTypeName):
        parse_config_obj(obj)


def test_bad_overlap_with_positive_tier_conflicts():
    obj = minimal_obj()
    obj["type_dictionary"]["work"] = ["Q12136"]  # same id as good "disease"
    with pytest.raises(TierConflict):
        parse_config_obj(obj)


def test_inference_rule_requires_property_id():
    obj = minimal_obj()
    obj["property_inference"] = [
        {"if_property": "Q486", "then_type_name": "disease"}]
    with pytest.raises(ConfigError):
        parse_config_obj(obj)


def test_weights_must_sum_to_one():
    obj = minimal_obj()
    obj["weights"] = {"w_type": 0.5, "w_match": 0.5, "w_prom": 0.5, "w_ctx": 0.5}
    with pytest.raises(BadWeights):
        parse_config_obj(obj)
    obj["weights"] = {"w_type": -0.1, "w_match": 0.6, "w_prom": 0.25, "w_ctx": 0.25}
    with pytest.raises(BadWeights):
        parse_config_obj(obj)


def test_weights_within_tolerance_renormalize_exactly():
    obj = minimal_obj()
    obj["weights"] = {"w_type": 0.45, "w_match": 0.25,
                      "w_prom": 0.15, "w_ctx": 0.15 + 4e-7}
    cfg = parse_config_obj(obj)
    assert sum(tuple(cfg.weights)) == 1.0


@pytest.mark.parametrize("weights", [(0.01, 0.07, 0.57, 0.35),
                                     (0.41, 0.47, 0.12, 0.0)])
def test_weights_whose_division_oscillates_still_renormalize(weights):
    # Dividing these by their float sum flips between 1 - 2**-53 and
    # 1 + 2**-52 forever.
    obj = minimal_obj()
    obj["weights"] = dict(zip(("w_type", "w_match", "w_prom", "w_ctx"), weights))
    cfg = parse_config_obj(obj)
    values = tuple(cfg.weights)
    assert ((values[0] + values[1]) + values[2]) + values[3] == 1.0
    assert max(abs(a - b) for a, b in zip(values, weights)) < 1e-15
    assert [v == 0 for v in values] == [w == 0 for w in weights]
    assert parse_config_obj(cfg.to_obj()) == cfg


def test_param_range_validation():
    for params in ({"k": 0}, {"sample_size": 0}, {"support_threshold": 0.0},
                   {"support_threshold": 1.5}, {"column_type_boost": -0.1}):
        obj = minimal_obj()
        obj["params"] = params
        with pytest.raises(ConfigError):
            parse_config_obj(obj)


@pytest.mark.parametrize("name", ["min_link_score", "header_property_boost",
                                  "column_type_boost", "header_column_boost"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   -0.01])
def test_score_params_must_be_finite_and_non_negative(name, value):
    obj = minimal_obj()
    obj["params"] = {name: value}
    with pytest.raises(ConfigError):
        parse_config_obj(obj)


def test_save_load_round_trip_and_stable_hash(tmp_path):
    cfg = parse_config_obj(minimal_obj())
    path = tmp_path / "config.json"
    save_config(path, cfg)
    again = load_config(path)
    assert again == cfg
    assert again.content_hash == cfg.content_hash
    save_config(tmp_path / "config2.json", again)
    assert (tmp_path / "config.json").read_bytes() == \
        (tmp_path / "config2.json").read_bytes()


def test_content_hash_tracks_content_not_key_order(tmp_path):
    obj = minimal_obj()
    reordered = json.loads(json.dumps(obj))
    reordered["tiers"] = dict(reversed(list(obj["tiers"].items())))
    a = parse_config_obj(obj)
    b = parse_config_obj(reordered)
    assert a.content_hash == b.content_hash
    changed = minimal_obj()
    changed["params"] = {"k": 21}
    c = parse_config_obj(changed)
    assert c.content_hash != a.content_hash


WEIGHTS = '"w_match": 0.25, "w_prom": 0.15, "w_ctx": 0.15'


@pytest.mark.parametrize("section", [
    '"params": {"k": NaN}',
    '"params": {"k": 1e999}',
    '"params": {"k": "abc"}',
    '"params": {"k": null}',
    '"params": {"k": 2.5}',
    '"params": {"k": true}',
    '"params": {"sample_size": -Infinity}',
    '"params": {"support_threshold": false}',
    '"params": {"min_link_score": "0.3"}',
    '"params": {"column_type_boost": [0.2]}',
    '"params": []',
    '"params": "k=3"',
    '"weights": {"w_type": "0.45", ' + WEIGHTS + '}',
    '"weights": {"w_type": NaN, ' + WEIGHTS + '}',
    '"weights": {"w_type": true, ' + WEIGHTS + '}',
    '"weights": [0.45, 0.25, 0.15, 0.15]',
    '"type_dictionary": []',
    '"tiers": "target"',
    '"near_miss_map": 1',
    '"property_inference": {}',
    '"property_inference": ["P486"]',
    '"tiers": {"good": [5]}',
    '"tiers": {"ok": ["place", null]}',
    '"near_miss_map": {"place": [5]}',
    '"property_inference": [{"if_property": "P486", "then_type_name": 5}]',
])
def test_config_values_of_the_wrong_type_are_refused(section):
    with pytest.raises(ConfigError):
        parse_config_obj(json.loads("{" + section + "}"))


@pytest.mark.parametrize("section", [
    '"type_dictionary": {"place": [17334923]}',
    '"property_inference": [{"if_property": 486, "then_type_name": "place"}]',
])
def test_config_ids_that_are_not_strings_are_refused(section):
    with pytest.raises(InvalidEntityId):
        parse_config_obj(json.loads("{" + section + "}"))


@pytest.mark.parametrize("text, error, message", [
    ('{"params": {"k": NaN}}', ConfigError, "params.k must be finite, not nan"),
    ('{"params": {"k": 0}}', ConfigError, "params.k must be >= 1"),
    ('{"tiers": {"good": ["nope"]}}', UnresolvedTypeName,
     "tiers.good references unknown type name 'nope'"),
    ('{"type_dictionary": {"a": ["Q1"]}, "tiers": {"good": ["a"], "bad": ["a"]}}',
     TierConflict, "id(s) under bad and a positive tier: Q1"),
    ('{"weights": {"w_type": 1, "w_match": 1, "w_prom": 0, "w_ctx": 0}}',
     BadWeights, "weights sum to 2.0, expected 1.0 within 1e-6"),
    ('{"tiers": {"target": ["a"]}}', ConfigError, "unknown key(s) in tiers: target"),
    ('{"tiers": {"target": [], "near_miss": []}}', ConfigError,
     "unknown key(s) in tiers: near_miss, target"),
    ('{"type_dictionary": {"a": ["P31"]}, "tiers": {"good": ["a"]}}',
     ConfigError, "type_dictionary['a']: P31 is not an item id"),
    ('{"weights": {"w_type": 1}}', ConfigError,
     "weights missing: w_match, w_prom, w_ctx"),
    ('{"property_inference": [{"if_property": "P1"}]}', ConfigError,
     "property_inference rule needs if_property and then_type_name"),
    # An int too large for a float.
    ('{"params": {"min_link_score": 1' + "0" * 400 + '}}', ConfigError,
     "params.min_link_score is out of range"),
], ids=["non-finite", "param-range", "unresolved-name", "tier-conflict",
        "bad-weights", "target-tier", "target-and-near-miss-tiers",
        "property-type-id", "missing-weights", "half-rule", "huge-param"])
def test_cli_reports_a_bad_config_value(tmp_path, capsys, text, error, message):
    """Every refusal names the file and keeps its ConfigError class."""
    save_index(Index([ItemRecord(EntityId.parse("Q1"), "alpha")]),
               tmp_path / "index")
    write_closure(tmp_path / "closure.txt", build_closure([]))
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["link", "--mention", "alpha", "--index", str(tmp_path / "index"),
                "--closure", str(tmp_path / "closure.txt"),
                "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    with pytest.raises(error) as info:
        load_config(path)
    assert type(info.value) is error
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("text, key", [
    pytest.param('{"type_dictionary": {"a": ["Q1"]}, "tiers": {"good": ["a"]}, '
                 '"tiers": {"bad": ["a"]}}', "tiers", id="section"),
    pytest.param('{"params": {"k": 5, "k": 7}}', "k", id="param"),
])
def test_a_repeated_config_key_is_refused(tmp_path, capsys, text, key):
    """json.loads alone keeps a repeated key's last value: the good tier
    would load empty, or k would load as 7."""
    save_index(Index([ItemRecord(EntityId.parse("Q1"), "alpha")]),
               tmp_path / "index")
    write_closure(tmp_path / "closure.txt", build_closure([]))
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    message = f"{path}: bad document (ValueError: repeated key {key!r})"
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert str(info.value) == message
    assert main(["link", "--mention", "alpha", "--index", str(tmp_path / "index"),
                "--closure", str(tmp_path / "closure.txt"),
                "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _fields(cls):
    """Each field of Weights or Params as its name and the name of its
    default's type, the type the config must give it."""
    return [SimpleNamespace(name=name,
                            type=type(cls._field_defaults[name]).__name__)
            for name in cls._fields]


# Values no Params or Weights field accepts.
_ALWAYS_BAD = (float("nan"), float("inf"), float("-inf"), True, False, None,
               "0.3", "7", [], {})


def _draw_valid(rng, f):
    if f.type == "int":
        n = rng.randint(1, 60)
        return float(n) if rng.random() < 0.2 else n
    if f.name == "support_threshold":
        return rng.choice([1, 1.0, rng.uniform(1e-9, 1.0)])
    return rng.choice([0, 1, 0.0, rng.uniform(0.0, 2.0)])


def _draw_invalid(rng, f):
    if f.type == "int" and rng.random() < 0.3:
        return rng.choice([0, -rng.randint(1, 9), rng.randint(1, 60) + 0.5])
    if rng.random() < 0.3:
        return -rng.uniform(1e-9, 5.0)
    if f.name == "support_threshold" and rng.random() < 0.3:
        return rng.choice([0, 0.0, 1.0000001, rng.uniform(1.0001, 9.0)])
    return rng.choice(_ALWAYS_BAD)


def _draw_weights(rng) -> tuple[dict, bool]:
    fields = _fields(Weights)
    raw = [rng.uniform(0.0, 1.0) if rng.random() < 0.9 else 0 for _ in fields]
    total = sum(raw) or 1.0
    weights, bad = {}, not any(raw)
    for f, w in zip(fields, raw):
        if rng.random() < 0.08:
            weights[f.name] = _draw_invalid(rng, f)
            bad = True
        else:
            weights[f.name] = w / total
    return weights, bad


def _draw_params(rng) -> tuple[dict, bool]:
    params, bad = {}, False
    for f in _fields(Params):
        roll = rng.random()
        if roll < 0.2:
            continue  # absent: keeps its default
        if roll < 0.28:
            params[f.name] = _draw_invalid(rng, f)
            bad = True
        else:
            params[f.name] = _draw_valid(rng, f)
    return params, bad


def test_config_fuzz_refuses_or_round_trips():
    """Seeded property suite over every Params and Weights field: a config
    with any out-of-domain value is refused with ConfigError at load, and
    every other config round-trips to_obj -> parse -> validate to an equal
    config with the same content hash."""
    rng = random.Random(0xC0F1)
    accepted = refused = 0
    for _ in range(2000):
        obj = minimal_obj()
        bad = False
        if rng.random() < 0.7:
            obj["weights"], bad = _draw_weights(rng)
        if rng.random() < 0.9:
            obj["params"], params_bad = _draw_params(rng)
            bad = bad or params_bad
        if rng.random() < 0.02:
            obj[rng.choice(["weights", "params"])] = rng.choice(
                [[], "params", 3, [0.5]])
            bad = True
        try:
            cfg = parse_config_obj(json.loads(json.dumps(obj)))
        except ConfigError as exc:
            assert bad, (obj, exc)
            refused += 1
            continue
        assert not bad, obj
        for f in _fields(Params):
            value = getattr(cfg.params, f.name)
            assert type(value).__name__ == f.type and math.isfinite(value)
        again = parse_config_obj(
            json.loads(json.dumps(cfg.to_obj())))
        assert again == cfg
        assert again.content_hash == cfg.content_hash
        accepted += 1
    assert accepted >= 500 and refused >= 500
