import json

import pytest

from tablink import (
    BadWeights,
    ConfigError,
    EntityId,
    TierConflict,
    UnresolvedTypeName,
    load_config,
    parse_config_obj,
    save_config,
    validate_config,
)


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
            "target": ["place"],
            "near_miss": ["site"],
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
    cfg = validate_config(parse_config_obj(minimal_obj()))
    q = EntityId.parse
    assert cfg.good_ids == frozenset({q("Q12136")})
    assert cfg.ok_ids == frozenset({q("Q16521")})
    assert cfg.bad_ids == frozenset({q("Q386724")})
    assert cfg.target_ids == frozenset({q("Q17334923")})
    assert cfg.near_miss_ids["place"] == frozenset({q("Q1496967")})
    assert cfg.good_names == frozenset({"disease"})
    assert cfg.content_hash


def test_defaults_when_sections_missing():
    cfg = validate_config(parse_config_obj({}))
    assert cfg.weights.as_tuple() == (0.45, 0.25, 0.15, 0.15)
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
        validate_config(parse_config_obj(obj))


def test_unresolved_near_miss_and_inference_names():
    obj = minimal_obj()
    obj["near_miss_map"] = {"place": ["missing"]}
    with pytest.raises(UnresolvedTypeName):
        validate_config(parse_config_obj(obj))
    obj = minimal_obj()
    obj["property_inference"] = [
        {"if_property": "P486", "then_type_name": "missing"}]
    with pytest.raises(UnresolvedTypeName):
        validate_config(parse_config_obj(obj))


def test_bad_overlap_with_positive_tier_conflicts():
    obj = minimal_obj()
    obj["type_dictionary"]["work"] = ["Q12136"]  # same id as good "disease"
    with pytest.raises(TierConflict):
        validate_config(parse_config_obj(obj))


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
        validate_config(parse_config_obj(obj))
    obj["weights"] = {"w_type": -0.1, "w_match": 0.6, "w_prom": 0.25, "w_ctx": 0.25}
    with pytest.raises(BadWeights):
        validate_config(parse_config_obj(obj))


def test_weights_within_tolerance_renormalize_exactly():
    obj = minimal_obj()
    obj["weights"] = {"w_type": 0.45, "w_match": 0.25,
                      "w_prom": 0.15, "w_ctx": 0.15 + 4e-7}
    cfg = validate_config(parse_config_obj(obj))
    assert sum(cfg.weights.as_tuple()) == 1.0


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
    cfg = validate_config(parse_config_obj(minimal_obj()))
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
    a = validate_config(parse_config_obj(obj))
    b = validate_config(parse_config_obj(reordered))
    assert a.content_hash == b.content_hash
    changed = minimal_obj()
    changed["params"] = {"k": 21}
    c = validate_config(parse_config_obj(changed))
    assert c.content_hash != a.content_hash
