"""Card database and scenario loading: strict validation and lookups."""

import copy
import json
import re
from pathlib import Path

import pytest

from questsim import cards
from questsim.cards import (
    CardKind,
    Sphere,
    expand_deck,
    load_card_db,
    load_scenario_bundle,
    parse_card_db,
    parse_scenario,
)
from questsim.errors import DataError

import helpers


def card_entries():
    return copy.deepcopy(helpers.SYNTH_CARDS)


def scenario_obj():
    return copy.deepcopy(helpers.SYNTH_SCENARIO)


# ---- card parsing -----------------------------------------------------------


def test_db_loads_and_resolves(synth_db):
    assert len(synth_db) == len(helpers.SYNTH_CARDS["cards"])
    hero = synth_db["hero-star"]
    assert hero.kind is CardKind.HERO
    assert hero.sphere is Sphere.SPIRIT
    assert (hero.threat_cost, hero.willpower, hero.hit_points) == (9, 4, 3)
    assert "hero-star" in synth_db
    assert "no-such-card" not in synth_db


def test_unknown_id_lookup_raises(synth_db):
    with pytest.raises(DataError, match="no-such-card"):
        synth_db["no-such-card"]


def test_missing_required_field_names_card_and_field():
    obj = card_entries()
    del obj["cards"][0]["willpower"]
    with pytest.raises(DataError, match="hero-star.*willpower"):
        parse_card_db(obj)


def test_extraneous_field_rejected():
    obj = card_entries()
    obj["cards"][0]["quest_points"] = 3
    with pytest.raises(DataError, match="hero-star.*quest_points"):
        parse_card_db(obj)


def test_underscore_keys_ignored():
    obj = card_entries()
    obj["cards"][0]["_comment"] = "ignore me"
    parse_card_db(obj)


def test_unknown_kind_rejected():
    obj = card_entries()
    obj["cards"][0]["kind"] = "villain"
    with pytest.raises(DataError, match="unknown kind"):
        parse_card_db(obj)


def test_unknown_sphere_rejected():
    obj = card_entries()
    obj["cards"][0]["sphere"] = "shadow"
    with pytest.raises(DataError, match="unknown sphere"):
        parse_card_db(obj)


def test_none_sphere_not_allowed_on_player_cards():
    obj = card_entries()
    obj["cards"][3]["sphere"] = "none"
    with pytest.raises(DataError, match="not allowed"):
        parse_card_db(obj)


def test_unknown_buff_rejected():
    obj = card_entries()
    blade = next(c for c in obj["cards"] if c["id"] == "item-blade")
    blade["buff"] = "luck"
    with pytest.raises(DataError, match="unknown buff"):
        parse_card_db(obj)


def test_effect_vocabulary_is_per_kind():
    # A player-side effect on an encounter event must be rejected.
    obj = card_entries()
    alarm = next(c for c in obj["cards"] if c["id"] == "enc-alarm")
    alarm["effect"] = "reduce_threat"
    with pytest.raises(DataError, match="unknown effect"):
        parse_card_db(obj)


def test_zero_hit_points_rejected():
    obj = card_entries()
    obj["cards"][0]["hit_points"] = 0
    with pytest.raises(DataError, match="must be >= 1"):
        parse_card_db(obj)


def test_bool_stat_rejected():
    obj = card_entries()
    obj["cards"][0]["attack"] = True
    with pytest.raises(DataError, match="must be an integer"):
        parse_card_db(obj)


def test_duplicate_card_id_rejected():
    obj = card_entries()
    obj["cards"].append(copy.deepcopy(obj["cards"][0]))
    with pytest.raises(DataError, match="duplicate"):
        parse_card_db(obj)


# ---- scenario parsing -------------------------------------------------------


def test_scenario_loads(synth_scenario):
    assert synth_scenario.name == "testlands"
    assert synth_scenario.heroes == ("hero-star", "hero-crown", "hero-axe")
    assert synth_scenario.difficulties() == ["test"]
    assert synth_scenario.threat_limit == 50
    deck = expand_deck(synth_scenario.player_deck)
    assert len(deck) == 20
    assert deck.count("ally-lantern") == 4


def test_quest_line_must_have_three_quests(synth_db):
    obj = scenario_obj()
    obj["quest_line"] = obj["quest_line"][:2]
    with pytest.raises(DataError, match="exactly 3"):
        parse_scenario(obj, synth_db)


def test_quest_line_rejects_non_quest_cards(synth_db):
    obj = scenario_obj()
    obj["quest_line"][0] = "enemy-wolf"
    with pytest.raises(DataError, match="not a quest card"):
        parse_scenario(obj, synth_db)


def test_heroes_must_be_distinct(synth_db):
    obj = scenario_obj()
    obj["heroes"][1] = obj["heroes"][0]
    with pytest.raises(DataError, match="distinct"):
        parse_scenario(obj, synth_db)


def test_player_deck_rejects_encounter_cards(synth_db):
    obj = scenario_obj()
    obj["player_deck"]["enemy-wolf"] = 2
    with pytest.raises(DataError, match="enemy-wolf.*not allowed"):
        parse_scenario(obj, synth_db)


def test_encounter_deck_rejects_player_cards(synth_db):
    obj = scenario_obj()
    obj["encounter_decks"]["test"]["ally-porter"] = 1
    with pytest.raises(DataError, match="ally-porter.*not allowed"):
        parse_scenario(obj, synth_db)


def test_deck_counts_must_be_positive(synth_db):
    obj = scenario_obj()
    obj["player_deck"]["ally-lantern"] = 0
    with pytest.raises(DataError, match="positive integer"):
        parse_scenario(obj, synth_db)


def test_unknown_difficulty_lookup_raises(synth_scenario):
    with pytest.raises(DataError, match="nightmare"):
        synth_scenario.encounter_deck("nightmare")


def test_threat_limit_must_be_positive(synth_db):
    obj = scenario_obj()
    obj["threat_limit"] = 0
    with pytest.raises(DataError, match="threat_limit"):
        parse_scenario(obj, synth_db)


# ---- shipped data -----------------------------------------------------------


def test_shipped_bundle_loads(shipped):
    assert len(shipped.heroes) == 3
    assert set(shipped.difficulties()) == {"hard", "medium"}
    assert len(expand_deck(shipped.player_deck)) >= 20
    for diff in shipped.difficulties():
        assert len(expand_deck(shipped.encounter_deck(diff))) >= 20


def test_scenario_file_with_cards_reference(tmp_path):
    cards_file = tmp_path / "pool.json"
    cards_file.write_text(json.dumps(helpers.SYNTH_CARDS))
    obj = scenario_obj()
    obj["cards"] = "pool.json"
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(obj))
    scenario = load_scenario_bundle(scen_file)
    assert scenario.name == "testlands"
    assert scenario.db["hero-star"].willpower == 4


def test_malformed_json_reports_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError, match="bad.json"):
        load_card_db(bad)


# ---- format doc -------------------------------------------------------------


def test_format_doc_covers_every_kind_field_and_bound():
    doc = (Path(__file__).parent.parent / "docs" / "card_format.md").read_text()
    for kind, fields in cards._REQUIRED.items():
        row = next(line for line in doc.splitlines()
                   if line.startswith(f"| `{kind.value}` "))
        assert row.count("`") == 2 * (len(fields) + 1), row
        for name in fields:
            assert f"`{name}`" in row, (kind, name)
    for name, minimum in cards._MIN_VALUE.items():
        assert re.search(rf"^\| `{name}` +\| {minimum} \|$", doc, re.M), name
    for value in ([s.value for s in cards._PLAYER_SPHERES] + list(cards.BUFF_STATS)
                  + list(cards.PLAYER_EFFECTS) + list(cards.ENCOUNTER_EFFECTS)):
        assert f"`{value}`" in doc, value
