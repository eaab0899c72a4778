"""Card database and scenario loading: strict validation and lookups."""

import copy
import json
import re
from pathlib import Path
from random import Random

import pytest

from questsim import cards
from questsim.cards import (
    CardKind,
    Sphere,
    load_scenario_bundle,
    parse_card_db,
    parse_scenario,
)
from questsim.engine import new_game
from questsim.errors import DataError
from questsim.state import Zone

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
    assert [h.id for h in synth_scenario.heroes] == ["hero-star", "hero-crown", "hero-axe"]
    assert synth_scenario.difficulties() == ["test"]
    assert synth_scenario.threat_limit == 50
    deck = synth_scenario.player_deck
    assert len(deck) == 20
    assert [defn.id for defn in deck].count("ally-lantern") == 4


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


def test_player_deck_must_hold_a_starting_hand(synth_db):
    obj = scenario_obj()
    obj["player_deck"] = {"ally-lantern": 4, "gandalf": 1}
    with pytest.raises(DataError, match="scenario 'testlands': player deck has 5 "
                                        "cards, needs at least 6"):
        parse_scenario(obj, synth_db)


# ---- shipped data -----------------------------------------------------------


def test_shipped_bundle_loads(shipped):
    assert len(shipped.heroes) == 3
    assert set(shipped.difficulties()) == {"hard", "medium"}
    assert len(shipped.player_deck) >= 20
    for diff in shipped.difficulties():
        assert len(shipped.encounter_deck(diff)) >= 20


@pytest.mark.parametrize("difficulty", ["medium", "hard"])
def test_deck_cards_take_instance_ids_in_deck_order(shipped, difficulty):
    """A loaded deck holds one CardDef per copy, sorted by card id, and
    new_game numbers the deck cards in that order, player deck first."""
    raw = json.loads(cards.builtin_scenario_path().read_text())
    player, encounter = shipped.player_deck, shipped.encounter_deck(difficulty)
    for deck, counts in ((player, raw["player_deck"]),
                         (encounter, raw["encounter_decks"][difficulty])):
        ids = [defn.id for defn in deck]
        assert ids == sorted(ids)
        assert {cid: ids.count(cid) for cid in ids} == counts
    game = new_game(shipped, difficulty, Random(0))
    first = len(shipped.heroes) + len(shipped.quest_line)
    assert [c.defn for c in game.cards[first:]] == [*player, *encounter]
    drawn = game.player_deck + [c.instance_id for c in game.in_zone(Zone.HAND)]
    assert sorted(drawn) == list(range(first, first + len(player)))


def scenario_naming(tmp_path: Path, cards_ref: str) -> Path:
    """The synthetic scenario, written to tmp_path with its "cards" key
    naming cards_ref."""
    obj = scenario_obj()
    obj["cards"] = cards_ref
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(obj))
    return scen_file


def test_scenario_file_with_cards_reference(tmp_path):
    cards_file = tmp_path / "pool.json"
    cards_file.write_text(json.dumps(helpers.SYNTH_CARDS))
    scenario = load_scenario_bundle(scenario_naming(tmp_path, "pool.json"))
    assert scenario.name == "testlands"
    assert scenario.heroes[0].willpower == 4


def test_malformed_json_reports_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError, match="bad.json"):
        load_scenario_bundle(scenario_naming(tmp_path, "bad.json"))


# ---- every loader check names what is wrong ---------------------------------


@pytest.mark.parametrize("obj,message", [
    ({"cards": ["hero-star"]}, "card entry is not an object: 'hero-star'"),
    ({"cards": [{"name": "Nameless", "kind": "hero"}]},
     "card entry missing string 'id'"),
    ({"cards": [{"id": 7, "name": "Seven", "kind": "hero"}]},
     "card entry missing string 'id'"),
    ({"cards": [{"id": "anon", "kind": "quest", "quest_points": 2}]},
     "card 'anon': missing field 'name'"),
    ([], "card file must be an object with a 'cards' list"),
    ({"heroes": []}, "card file must be an object with a 'cards' list"),
    ({"cards": {"hero-star": {}}}, "'cards' must be a list"),
])
def test_malformed_card_file_names_the_fault(obj, message):
    with pytest.raises(DataError, match=re.escape(message)):
        parse_card_db(obj)


def test_unreadable_card_file_names_the_path(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(DataError, match=re.escape(f"cannot read card file {missing}")):
        load_scenario_bundle(scenario_naming(tmp_path, "absent.json"))


def scenario_with(**changes):
    obj = scenario_obj()
    obj.update(changes)
    return obj


@pytest.mark.parametrize("obj,message", [
    (["testlands"], "scenario file must be a JSON object"),
    (scenario_with(name=""), "scenario missing string 'name'"),
    (scenario_with(name=None), "scenario missing string 'name'"),
    (scenario_with(quest_line=["quest-setout", "quest-lost", "quest-confront"]),
     "scenario 'testlands': unknown quest card id 'quest-lost'"),
    (scenario_with(heroes="hero-star"),
     "scenario 'testlands': heroes must list exactly 3 hero cards"),
    (scenario_with(heroes=["hero-star", "ally-porter", "hero-axe"]),
     "scenario 'testlands': 'ally-porter' is not a hero card"),
    (scenario_with(player_deck=[["ally-lantern", 4]]),
     "scenario 'testlands' player_deck must be a non-empty object of card-id -> count"),
    (scenario_with(player_deck={}),
     "scenario 'testlands' player_deck must be a non-empty object of card-id -> count"),
    (scenario_with(player_deck={"ally-ghost": 3}),
     "scenario 'testlands' player_deck references unknown card id 'ally-ghost'"),
    (scenario_with(encounter_decks={"test": {"enemy-dragon": 1}}),
     "scenario 'testlands' encounter deck 'test' references unknown card id "
     "'enemy-dragon'"),
    (scenario_with(encounter_decks=["test"]),
     "scenario 'testlands': encounter_decks must map difficulty -> deck"),
    (scenario_with(encounter_decks={}),
     "scenario 'testlands': encounter_decks must map difficulty -> deck"),
])
def test_malformed_scenario_names_the_fault(synth_db, obj, message):
    with pytest.raises(DataError, match=re.escape(message)):
        parse_scenario(obj, synth_db)


def test_unknown_hero_names_the_scenario_and_the_id(synth_db):
    obj = scenario_with(heroes=["hero-star", "hero-crown", "hero-nobody"])
    with pytest.raises(DataError, match="scenario 'testlands': unknown hero .*'hero-nobody'"):
        parse_scenario(obj, synth_db)


def test_cards_reference_must_be_a_path(tmp_path):
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(scenario_with(cards=["pool.json"])))
    with pytest.raises(DataError, match=re.escape(
            f"scenario {scen_file}: 'cards' must be a file path")):
        load_scenario_bundle(scen_file)



@pytest.mark.parametrize("key,kind", [("quest_line", "quest"), ("heroes", "hero")])
@pytest.mark.parametrize("bad_id", [["hero-star"], {"id": "hero-star"}, 7],
                         ids=["list", "object", "number"])
def test_a_card_id_that_is_not_a_string_is_a_data_error(synth_db, key, kind, bad_id):
    obj = scenario_obj()
    obj[key][1] = bad_id
    with pytest.raises(DataError, match=re.escape(
            f"scenario 'testlands': unknown {kind} card id {bad_id!r}")):
        parse_scenario(obj, synth_db)


def test_scenarios_over_different_card_files_differ(tmp_path):
    """Equal ids over different card files are different scenarios: the
    scenario holds the cards, not their ids."""
    stronger = card_entries()
    stronger["cards"][0]["willpower"] += 1
    for name, cards_obj in (("pool.json", helpers.SYNTH_CARDS), ("strong.json", stronger)):
        (tmp_path / name).write_text(json.dumps(cards_obj))
        (tmp_path / f"scen-{name}").write_text(json.dumps(scenario_with(cards=name)))
    plain = load_scenario_bundle(tmp_path / "scen-pool.json")
    strong = load_scenario_bundle(tmp_path / "scen-strong.json")
    assert plain == load_scenario_bundle(tmp_path / "scen-pool.json")
    assert plain != strong
    assert (plain.heroes[0].willpower, strong.heroes[0].willpower) == (4, 5)


def test_the_shipped_scenario_loads_like_a_given_one(shipped):
    assert load_scenario_bundle(cards.builtin_scenario_path()) == shipped


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

