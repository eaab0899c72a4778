"""Rules engine: setup, stage effects, payment, combat and invariants."""

import hashlib
import json
import re
from inspect import signature
from random import Random
from typing import get_args

import pytest

from questsim.engine import (
    _STAGES,
    ROUND_CAP,
    STARTING_HAND_SIZE,
    advance_ruled_stage,
    apply_action,
    check_invariants,
    new_game,
    play_game,
    resolve_random_stage,
)
from questsim.errors import ConfigError, IllegalActionError, QuestSimError, StageError
from questsim.experiments import derive_seed
from questsim.state import (
    Action,
    Attack,
    Commit,
    Defend,
    Outcome,
    PlayCards,
    StageId,
    StageKind,
    TravelTo,
    Zone,
)
from questsim.search import build_stage_policies
from questsim.agents import Policy, parse_policy_map

import helpers
import test_golden
from helpers import at_stage, by_id, put, stash_hand


# ---- setup ------------------------------------------------------------------


def test_new_game_setup(game):
    assert game.round_no == 1
    assert game.stage is StageId.GAIN_RESOURCES_AND_DRAW
    assert game.threat_level == 29  # summed hero threat costs
    assert game.outcome is None
    assert [c.defn.id for c in game.heroes()] == ["hero-star", "hero-crown",
                                                  "hero-axe"]
    assert game.quest_ids == (3, 4, 5)
    assert game.current_quest().defn.id == "quest-setout"
    assert len(game.hand()) == STARTING_HAND_SIZE
    assert len(game.player_deck) == 20 - STARTING_HAND_SIZE
    assert len(game.encounter_deck) == 16


def test_new_game_is_seed_deterministic(synth_scenario):
    a = helpers.new_synth_game(seed=7, scenario=synth_scenario)
    b = helpers.new_synth_game(seed=7, scenario=synth_scenario)
    c = helpers.new_synth_game(seed=8, scenario=synth_scenario)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_new_game_loses_immediately_if_threat_at_limit():
    # The synthetic heroes cost 29 threat: at the first limit, above the
    # second, where the threat is clamped to the limit.
    for limit in (29, 20):
        state = new_game(helpers.make_scenario(threat_limit=limit), "test", Random(0))
        assert state.outcome is Outcome.LOSS_THREAT
        assert state.threat_level == limit
        check_invariants(state)


def test_staging_and_shadows_draw_nothing_once_the_encounter_cards_run_out():
    scenario = helpers.make_scenario(encounter_decks={"test": {"enemy-wolf": 1}})
    game = new_game(scenario, "test", Random(0))
    staged = resolve_random_stage(at_stage(game, StageId.STAGING), Random(0))
    wolf, = by_id(staged, "enemy-wolf", Zone.STAGING_AREA)
    assert staged.encounter_deck == [] and staged.in_zone(Zone.ENCOUNTER_DISCARD) == []

    zones = [c.zone for c in staged.cards]
    again = resolve_random_stage(at_stage(staged, StageId.STAGING), Random(0))
    assert [c.zone for c in again.cards] == zones
    assert again.threat_level == staged.threat_level

    staged.move(wolf, Zone.ENGAGEMENT_AREA)
    shadows = resolve_random_stage(at_stage(staged, StageId.DEAL_SHADOW_CARDS), Random(0))
    assert shadows.cards[wolf.instance_id].shadow_card is None
    assert shadows.stage is StageId.DEAL_SHADOW_CARDS.next


# ---- ruled stages -----------------------------------------------------------


def test_gain_stage_grants_resources_and_draws(game):
    before_hand = len(game.hand())
    nxt = advance_ruled_stage(game)
    assert all(h.resource_pool == 1 for h in nxt.heroes())
    assert len(nxt.hand()) == before_hand + 1
    assert nxt.stage is StageId.PLANNING
    assert len(game.hand()) == before_hand  # input untouched


def test_empty_player_deck_loses_on_draw(game):
    for c in list(game.hand()):
        game.move(c, Zone.PLAYER_DISCARD)
    for iid in list(game.player_deck):
        game.move(game.cards[iid], Zone.PLAYER_DISCARD)
    nxt = advance_ruled_stage(game)
    assert nxt.outcome is Outcome.LOSS_DECK_EMPTY


def test_a_card_moved_into_a_deck_goes_on_top_and_is_drawn_next(game):
    card = game.hand()[0]
    game.move(card, Zone.PLAYER_DECK)
    assert game.player_deck[-1] == card.instance_id
    nxt = advance_ruled_stage(game)
    assert nxt.cards[card.instance_id].zone is Zone.HAND
    assert nxt.player_deck == game.player_deck[:-1]

    wolf = put(game, "enemy-wolf", Zone.ENCOUNTER_DISCARD)
    game.move(wolf, Zone.ENCOUNTER_DECK)
    assert game.encounter_deck[-1] == wolf.instance_id
    nxt = resolve_random_stage(at_stage(game, StageId.STAGING), Random(0))
    assert nxt.cards[wolf.instance_id].zone is Zone.STAGING_AREA
    assert nxt.encounter_deck == game.encounter_deck[:-1]
    check_invariants(nxt)


def test_quest_resolution_adds_progress(game):
    at_stage(game, StageId.QUEST_RESOLUTION)
    star = game.heroes()[0]
    star.committed = True
    star.exhausted = True
    put(game, "enemy-wolf", Zone.STAGING_AREA)  # threat 1
    nxt = advance_ruled_stage(game)  # willpower 4 vs threat 1
    assert nxt.quest_progress == 3
    assert nxt.threat_level == game.threat_level


def test_quest_resolution_raises_threat_on_failure(game):
    at_stage(game, StageId.QUEST_RESOLUTION)
    put(game, "enemy-troll", Zone.STAGING_AREA)  # threat 3, nothing committed
    nxt = advance_ruled_stage(game)
    assert nxt.threat_level == game.threat_level + 3
    assert nxt.quest_progress == 0


def test_quest_resolution_tie_changes_nothing(game):
    at_stage(game, StageId.QUEST_RESOLUTION)
    axe = game.heroes()[2]  # willpower 1
    axe.committed = True
    axe.exhausted = True
    put(game, "enemy-wolf", Zone.STAGING_AREA)  # threat 1
    nxt = advance_ruled_stage(game)
    assert nxt.threat_level == game.threat_level
    assert nxt.quest_progress == 0


def test_quest_completion_rolls_progress_over(game):
    at_stage(game, StageId.QUEST_RESOLUTION)
    game.quest_progress = 4
    star, crown = game.heroes()[0], game.heroes()[1]
    for hero in (star, crown):
        hero.committed = True
        hero.exhausted = True
    # 6 willpower vs 0 threat; 4 + 6 = 10 completes the 6-point quest with 4 over
    nxt = advance_ruled_stage(game)
    assert nxt.quest_index == 1
    assert nxt.quest_progress == 4
    assert nxt.cards[game.quest_ids[0]].zone is Zone.COMPLETED_QUESTS
    assert nxt.current_quest().defn.id == "quest-deepen"


def test_completing_third_quest_wins(game):
    at_stage(game, StageId.QUEST_RESOLUTION)
    for iid in game.quest_ids[:2]:
        game.move(game.cards[iid], Zone.COMPLETED_QUESTS)
    assert game.quest_index == 2
    game.quest_progress = 9  # quest-confront needs 10
    star = game.heroes()[0]
    star.committed = True
    star.exhausted = True
    nxt = advance_ruled_stage(game)
    assert nxt.outcome is Outcome.WIN


def test_active_location_soaks_progress_first(game):
    at_stage(game, StageId.QUEST_RESOLUTION)
    loc = put(game, "loc-ridge", Zone.ACTIVE_LOCATION)  # 3 quest points
    star = game.heroes()[0]  # willpower 4
    star.committed = True
    star.exhausted = True
    nxt = advance_ruled_stage(game)
    assert nxt.cards[loc.instance_id].zone is Zone.ENCOUNTER_DISCARD
    assert nxt.quest_progress == 1  # 4 - 3 after exploring the location


def test_engagement_is_a_fixpoint(game):
    at_stage(game, StageId.ENGAGEMENT_CHECKS)
    wolf = put(game, "enemy-wolf", Zone.STAGING_AREA)    # engages at 15
    warg = put(game, "enemy-warg", Zone.STAGING_AREA)    # engages at 25
    troll = put(game, "enemy-troll", Zone.STAGING_AREA)  # engages at 34
    nxt = advance_ruled_stage(game)  # threat 29
    assert nxt.cards[wolf.instance_id].zone is Zone.ENGAGEMENT_AREA
    assert nxt.cards[warg.instance_id].zone is Zone.ENGAGEMENT_AREA
    assert nxt.cards[troll.instance_id].zone is Zone.STAGING_AREA


def test_threat_loss_is_clamped_at_limit(game):
    game.threat_level = game.scenario.threat_limit - 2
    at_stage(game, StageId.QUEST_RESOLUTION)
    put(game, "enemy-troll", Zone.STAGING_AREA)  # +3 threat on failure
    nxt = advance_ruled_stage(game)
    assert nxt.outcome is Outcome.LOSS_THREAT
    assert nxt.threat_level == nxt.scenario.threat_limit


def test_refresh_readies_and_raises_threat(game):
    at_stage(game, StageId.REFRESH)
    star = game.heroes()[0]
    star.committed = True
    star.exhausted = True
    enemy = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    shadow = put(game, "enc-alarm", Zone.ENGAGEMENT_AREA,
                 attached_to=enemy.instance_id)
    enemy.shadow_card = shadow.instance_id
    nxt = advance_ruled_stage(game)
    hero = nxt.heroes()[0]
    assert not hero.exhausted and not hero.committed
    assert nxt.cards[shadow.instance_id].zone is Zone.ENCOUNTER_DISCARD
    assert nxt.cards[enemy.instance_id].shadow_card is None
    assert nxt.threat_level == game.threat_level + 1
    assert nxt.round_no == game.round_no + 1
    assert nxt.stage is StageId.GAIN_RESOURCES_AND_DRAW


def test_threat_loss_at_refresh_ends_the_game_in_its_round(game):
    at_stage(game, StageId.REFRESH)
    game.threat_level = game.scenario.threat_limit - 1
    nxt = advance_ruled_stage(game)
    assert nxt.outcome is Outcome.LOSS_THREAT
    assert (nxt.round_no, nxt.stage) == (game.round_no, StageId.REFRESH)


# ---- combat resolution ------------------------------------------------------


def defended_state(game, enemy_id="enemy-warg", defender=None):
    """One engaged enemy at the declare-defenders stage."""
    at_stage(game, StageId.DECLARE_DEFENDERS)
    enemy = put(game, enemy_id, Zone.ENGAGEMENT_AREA)
    action = Defend(((enemy.instance_id, defender),))
    return enemy, apply_action(game, action)


def test_defended_attack_deals_excess_damage(game):
    shield = put(game, "ally-shield", Zone.PLAY_AREA)  # defense 2, hp 2
    enemy, nxt = defended_state(game, "enemy-warg", shield.instance_id)
    assert nxt.cards[shield.instance_id].exhausted
    hit = advance_ruled_stage(nxt)  # warg attack 3 - defense 2 = 1 damage
    assert hit.cards[shield.instance_id].damage == 1
    assert hit.cards[shield.instance_id].zone is Zone.PLAY_AREA
    assert all(h.damage == 0 for h in hit.heroes())


def test_defender_dies_when_damage_reaches_hit_points(game):
    porter = put(game, "ally-porter", Zone.PLAY_AREA)  # defense 0, hp 1
    enemy, nxt = defended_state(game, "enemy-warg", porter.instance_id)
    hit = advance_ruled_stage(nxt)  # 3 - 0 = 3 damage kills the porter
    assert hit.cards[porter.instance_id].zone is Zone.PLAYER_DISCARD
    assert all(h.damage == 0 for h in hit.heroes())


def test_undefended_attack_hits_lowest_id_hero(game):
    enemy, nxt = defended_state(game, "enemy-wolf", None)
    hit = advance_ruled_stage(nxt)
    assert hit.cards[0].damage == 2  # hero-star, full force
    assert hit.cards[1].damage == 0


def test_undefended_attack_skips_dead_heroes(game):
    game.move(game.cards[0], Zone.PLAYER_DISCARD)  # hero-star already dead
    enemy, nxt = defended_state(game, "enemy-warg", None)
    hit = advance_ruled_stage(nxt)
    assert hit.cards[1].damage == 3  # next surviving hero takes it


def test_shadow_bonus_added_to_enemy_attack(game):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    enemy = put(game, "enemy-warg", Zone.ENGAGEMENT_AREA)  # attack 3
    shadow = put(game, "enc-ambush", Zone.ENGAGEMENT_AREA,
                 attached_to=enemy.instance_id)  # shadow bonus 2
    enemy.shadow_card = shadow.instance_id
    crown = game.heroes()[1]  # defense 2, hit points 5
    nxt = apply_action(game, Defend(((enemy.instance_id, crown.instance_id),)))
    hit = advance_ruled_stage(nxt)
    assert hit.cards[crown.instance_id].damage == 3  # 3 + 2 - 2


def test_all_heroes_dead_loses(game):
    for hero in game.heroes()[1:]:
        game.move(hero, Zone.PLAYER_DISCARD)
    game.cards[0].damage = 2  # hero-star at 2/3
    enemy, nxt = defended_state(game, "enemy-warg", None)
    hit = advance_ruled_stage(nxt)
    assert hit.outcome is Outcome.LOSS_HEROES_DEAD


def test_player_attack_kills_enemy_and_discards_its_shadow(game):
    at_stage(game, StageId.DECLARE_ATTACKERS)
    enemy = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)  # def 0, hp 2
    shadow = put(game, "enc-alarm", Zone.ENGAGEMENT_AREA,
                 attached_to=enemy.instance_id)
    enemy.shadow_card = shadow.instance_id
    nxt = apply_action(game, Attack(((enemy.instance_id, (2,)),)))  # attack 3
    assert nxt.cards[2].exhausted
    hit = advance_ruled_stage(nxt)
    assert hit.cards[enemy.instance_id].zone is Zone.ENCOUNTER_DISCARD
    assert hit.cards[shadow.instance_id].zone is Zone.ENCOUNTER_DISCARD


def test_player_attack_is_soaked_by_enemy_defense(game):
    at_stage(game, StageId.DECLARE_ATTACKERS)
    enemy = put(game, "enemy-troll", Zone.ENGAGEMENT_AREA)  # def 2, hp 6
    nxt = apply_action(game, Attack(((enemy.instance_id, (0, 2)),)))  # 1 + 3
    hit = advance_ruled_stage(nxt)
    assert hit.cards[enemy.instance_id].damage == 2
    assert hit.cards[enemy.instance_id].zone is Zone.ENGAGEMENT_AREA


# ---- random stages ----------------------------------------------------------


def test_staging_reveals_into_staging_area(game):
    at_stage(game, StageId.STAGING)
    warg = put(game, "enemy-warg", Zone.ENCOUNTER_DECK)
    nxt = resolve_random_stage(game, Random(0))
    assert nxt.cards[warg.instance_id].zone is Zone.STAGING_AREA


def test_staging_resolves_raise_threat_event(game):
    at_stage(game, StageId.STAGING)
    alarm = put(game, "enc-alarm", Zone.ENCOUNTER_DECK)
    nxt = resolve_random_stage(game, Random(0))
    assert nxt.threat_level == game.threat_level + 2
    assert nxt.cards[alarm.instance_id].zone is Zone.ENCOUNTER_DISCARD


def test_staging_resolves_damage_committed_event(game):
    at_stage(game, StageId.STAGING)
    star = game.heroes()[0]
    star.committed = True
    star.exhausted = True
    put(game, "enc-ambush", Zone.ENCOUNTER_DECK)
    nxt = resolve_random_stage(game, Random(0))
    assert nxt.cards[star.instance_id].damage == 1
    assert nxt.heroes()[1].damage == 0  # uncommitted characters untouched


def test_shadow_dealing_assigns_one_per_engaged_enemy(game):
    at_stage(game, StageId.DEAL_SHADOW_CARDS)
    e1 = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    e2 = put(game, "enemy-warg", Zone.ENGAGEMENT_AREA)
    nxt = resolve_random_stage(game, Random(0))
    s1 = nxt.cards[e1.instance_id].shadow_card
    s2 = nxt.cards[e2.instance_id].shadow_card
    assert s1 is not None and s2 is not None and s1 != s2
    assert nxt.cards[s1].attached_to == e1.instance_id
    assert len(nxt.encounter_deck) == len(game.encounter_deck) - 2


def test_encounter_discard_reshuffles_when_deck_empty(game):
    at_stage(game, StageId.STAGING)
    for iid in list(game.encounter_deck):
        game.move(game.cards[iid], Zone.ENCOUNTER_DISCARD)
    nxt = resolve_random_stage(game, Random(0))
    revealed = [c for c in nxt.cards if c.zone is Zone.STAGING_AREA
                and c.defn.kind.value != "quest"]
    assert len(revealed) == 1 or nxt.threat_level > game.threat_level


# ---- action application and validation --------------------------------------


def planning_state(game, hand_ids, pools):
    """Empty the dealt hand, then provide a precise hand and resource set."""
    stash_hand(game)
    at_stage(game, StageId.PLANNING)
    for cid in hand_ids:
        put(game, cid, Zone.HAND)
    for hero, pool in zip(game.heroes(), pools):
        hero.resource_pool = pool
    return game


def test_buying_allies_pays_matching_spheres_first(game):
    planning_state(game, ["ally-lantern", "ally-porter"], (2, 1, 0))
    lantern = by_id(game, "ally-lantern", Zone.HAND)[0]
    porter = by_id(game, "ally-porter", Zone.HAND)[0]
    nxt = apply_action(game, PlayCards((lantern.instance_id,
                                        porter.instance_id)))
    assert nxt.cards[lantern.instance_id].zone is Zone.PLAY_AREA
    assert nxt.cards[porter.instance_id].zone is Zone.PLAY_AREA
    # Spirit ally drained the spirit hero; the neutral ally drained the rest
    # of the spirit pool before touching anyone else.
    assert [h.resource_pool for h in nxt.heroes()] == [0, 1, 0]


def test_unaffordable_buy_is_rejected(game):
    planning_state(game, ["ally-banner"], (5, 1, 0))  # leadership cost 2
    banner = by_id(game, "ally-banner", Zone.HAND)[0]
    with pytest.raises(IllegalActionError, match="leadership"):
        apply_action(game, PlayCards((banner.instance_id,)))


def test_a_buy_each_sphere_affords_can_still_cost_too_much_in_total(game):
    # The spirit hero pays the spirit ally; the neutral ally needs a second
    # resource that no hero has.
    planning_state(game, ["ally-lantern", "ally-porter"], (1, 0, 0))
    ids = tuple(by_id(game, cid, Zone.HAND)[0].instance_id
                for cid in ("ally-lantern", "ally-porter"))
    with pytest.raises(IllegalActionError) as failure:
        apply_action(game, PlayCards(ids))
    assert str(failure.value) == ("cannot pay for ['ally-lantern', 'ally-porter']: "
                                  "costs 2 in total, heroes have 1")


def test_item_attaches_to_matching_sphere_hero(game):
    planning_state(game, ["item-charm"], (1, 0, 0))
    charm = by_id(game, "item-charm", Zone.HAND)[0]
    nxt = apply_action(game, PlayCards((charm.instance_id,)))
    star = nxt.heroes()[0]
    assert nxt.cards[charm.instance_id].attached_to == star.instance_id
    assert star.willpower == 5
    assert star.buffs == (1, 0, 0, 0)


def test_item_without_matching_hero_attaches_to_first(game):
    planning_state(game, ["item-pack"], (1, 0, 0))  # neutral-sphere item
    pack = by_id(game, "item-pack", Zone.HAND)[0]
    nxt = apply_action(game, PlayCards((pack.instance_id,)))
    assert nxt.cards[pack.instance_id].attached_to == 0
    assert nxt.heroes()[0].hit_points == 4


def test_items_are_discarded_with_their_bearer(game):
    planning_state(game, ["item-charm"], (1, 0, 0))
    charm = by_id(game, "item-charm", Zone.HAND)[0]
    nxt = apply_action(game, PlayCards((charm.instance_id,)))
    at_stage(nxt, StageId.DECLARE_DEFENDERS)
    enemy = put(nxt, "enemy-troll", Zone.ENGAGEMENT_AREA)  # attack 4
    after = apply_action(nxt, Defend(((enemy.instance_id, None),)))
    hit = advance_ruled_stage(after)  # 4 damage kills the 3 hp hero
    assert hit.cards[0].zone is Zone.PLAYER_DISCARD
    assert hit.cards[charm.instance_id].zone is Zone.PLAYER_DISCARD


def test_event_reduces_threat_and_is_discarded(game):
    planning_state(game, ["event-respite"], (1, 0, 0))
    respite = by_id(game, "event-respite", Zone.HAND)[0]
    nxt = apply_action(game, PlayCards((respite.instance_id,)))
    assert nxt.threat_level == game.threat_level - 2
    assert nxt.cards[respite.instance_id].zone is Zone.PLAYER_DISCARD


def test_threat_reduction_floors_at_zero(game):
    game.threat_level = 1
    planning_state(game, ["event-respite"], (1, 0, 0))
    respite = by_id(game, "event-respite", Zone.HAND)[0]
    nxt = apply_action(game, PlayCards((respite.instance_id,)))
    assert nxt.threat_level == 0


def test_commit_requires_strictly_exceeding_threat(game):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    put(game, "enemy-warg", Zone.STAGING_AREA)  # threat 2
    with pytest.raises(IllegalActionError, match="strictly"):
        apply_action(game, Commit((1,)))  # hero-crown, willpower 2
    nxt = apply_action(game, Commit((0,)))  # hero-star, willpower 4
    assert nxt.cards[0].committed and nxt.cards[0].exhausted


def test_commit_rejects_zero_willpower_characters(game):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    shield = put(game, "ally-shield", Zone.PLAY_AREA)  # willpower 0
    with pytest.raises(IllegalActionError, match="zero willpower"):
        apply_action(game, Commit((0, shield.instance_id)))


def test_commit_rejects_exhausted_characters(game):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    game.cards[0].exhausted = True
    with pytest.raises(IllegalActionError, match="exhausted"):
        apply_action(game, Commit((0,)))


def test_empty_commit_is_always_legal(game):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    put(game, "enemy-troll", Zone.STAGING_AREA)
    nxt = apply_action(game, Commit(()))
    assert nxt.stage is StageId.STAGING


def test_travel_moves_location_to_active(game):
    at_stage(game, StageId.TRAVEL)
    loc = put(game, "loc-clearing", Zone.STAGING_AREA)
    nxt = apply_action(game, TravelTo(loc.instance_id))
    assert nxt.cards[loc.instance_id].zone is Zone.ACTIVE_LOCATION
    assert nxt.active_location().instance_id == loc.instance_id


def test_travel_rejected_while_location_active(game):
    at_stage(game, StageId.TRAVEL)
    put(game, "loc-clearing", Zone.ACTIVE_LOCATION)
    loc = put(game, "loc-ridge", Zone.STAGING_AREA)
    with pytest.raises(IllegalActionError, match="already active"):
        apply_action(game, TravelTo(loc.instance_id))


def test_defend_must_cover_engaged_enemies_exactly(game):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    put(game, "enemy-warg", Zone.ENGAGEMENT_AREA)
    with pytest.raises(IllegalActionError, match="cover engaged"):
        apply_action(game, Defend(()))


def test_defend_rejects_reusing_a_defender(game):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    e1 = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    e2 = put(game, "enemy-warg", Zone.ENGAGEMENT_AREA)
    with pytest.raises(IllegalActionError, match="twice"):
        apply_action(game, Defend(((e1.instance_id, 0), (e2.instance_id, 0))))


def test_defend_rejects_a_repeated_enemy(game):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    enemy = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA).instance_id
    with pytest.raises(IllegalActionError, match="cover engaged"):
        apply_action(game, Defend(((enemy, None), (enemy, 0))))


def test_attack_rejects_exhausted_attackers(game):
    at_stage(game, StageId.DECLARE_ATTACKERS)
    enemy = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    game.cards[2].exhausted = True
    with pytest.raises(IllegalActionError, match="exhausted"):
        apply_action(game, Attack(((enemy.instance_id, (2,)),)))


def test_attack_rejects_an_enemy_attacked_twice(game):
    at_stage(game, StageId.DECLARE_ATTACKERS)
    enemy = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA).instance_id
    with pytest.raises(IllegalActionError, match=f"enemy {enemy} attacked twice"):
        apply_action(game, Attack(((enemy, (0,)), (enemy, (1,)))))


def test_stage_steps_refuse_a_finished_game_or_another_kind_of_stage(game):
    with pytest.raises(StageError, match="'planning' is not a ruled stage"):
        advance_ruled_stage(at_stage(game, StageId.PLANNING))
    with pytest.raises(StageError, match="'refresh' is not a random stage"):
        resolve_random_stage(at_stage(game, StageId.REFRESH), Random(0))
    game.outcome = Outcome.LOSS_THREAT
    with pytest.raises(StageError, match="game is over"):
        advance_ruled_stage(game)
    with pytest.raises(StageError, match="game is over"):
        resolve_random_stage(at_stage(game, StageId.STAGING), Random(0))


def test_wrong_stage_action_is_rejected(game):
    at_stage(game, StageId.PLANNING)
    with pytest.raises(IllegalActionError, match="applies at stage"):
        apply_action(game, Commit(()))


@pytest.mark.parametrize("stage, make", [
    (StageId.PLANNING, lambda enemy: PlayCards((True,))),
    (StageId.COMMIT_CHARACTERS, lambda enemy: Commit((True,))),
    (StageId.TRAVEL, lambda enemy: TravelTo(True)),
    (StageId.DECLARE_DEFENDERS, lambda enemy: Defend(((enemy, True),))),
    (StageId.DECLARE_ATTACKERS, lambda enemy: Attack(((enemy, (True,)),))),
], ids=["play", "commit", "travel", "defend", "attack"])
def test_a_bool_is_no_instance_id(game, stage, make):
    """True equals 1, the id of a ready hero here, but names no card."""
    at_stage(game, stage)
    enemy = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    with pytest.raises(IllegalActionError, match="unknown instance id True"):
        apply_action(game, make(enemy.instance_id))


def test_actions_rejected_after_game_over(game):
    game.outcome = Outcome.WIN
    with pytest.raises(StageError, match="over"):
        apply_action(game, PlayCards(()))


def test_apply_action_leaves_input_unchanged(game):
    at_stage(game, StageId.PLANNING)
    before = game.fingerprint()
    apply_action(game, PlayCards(()))
    assert game.fingerprint() == before


def test_one_table_holds_each_stages_rules_in_round_order():
    # A ruled stage maps to handler(state), a random one to
    # handler(state, rng), a decision stage to (action type, legal family,
    # check, effect); each action type has one decision stage.
    assert list(_STAGES) == list(StageId)
    action_types = []
    for stage, rules in _STAGES.items():
        if stage.kind is StageKind.DECISION:
            action_type, family, check, effect = rules
            assert callable(family) and callable(check) and callable(effect), stage
            action_types.append(action_type)
        else:
            arity = 1 if stage.kind is StageKind.RULED else 2
            assert callable(rules) and len(signature(rules).parameters) == arity, stage
    assert len(set(action_types)) == len(action_types)
    assert set(action_types) == set(get_args(Action))


# ---- full games and invariants ----------------------------------------------


def test_random_game_terminates_cleanly(synth_scenario):
    state = helpers.new_synth_game(seed=11, scenario=synth_scenario)
    policies = build_stage_policies(
        parse_policy_map("planning=random,commit=random,defense=random"))
    lines = []
    play_game(state, policies, Random(11), trace=lines.append, check=True)
    assert state.outcome is not None
    assert state.round_no <= 200
    assert lines and any("planning" in ln for ln in lines)


EXPERTS = "planning=expert,commit=expert,defense=expert"


@pytest.mark.parametrize("stage", [StageId.TRAVEL, StageId.DECLARE_DEFENDERS])
def test_a_stage_without_a_policy_is_named(synth_scenario, stage):
    state = helpers.new_synth_game(seed=11, scenario=synth_scenario)
    policies = build_stage_policies(parse_policy_map(EXPERTS))
    del policies[stage]
    with pytest.raises(ConfigError, match=f"no policy for decision stage "
                                          f"'{stage.value}'"):
        play_game(state, policies, Random(11))
    assert state.stage is stage and state.round_no == 1


def first_hero(state) -> int:
    return state.heroes()[0].instance_id


@pytest.mark.parametrize("stage, make, rule", [
    (StageId.PLANNING, lambda s: PlayCards((first_hero(s),)), "is not in hand"),
    (StageId.DECLARE_DEFENDERS, lambda s: Defend(((first_hero(s), None),)),
     "must cover engaged enemies exactly"),
], ids=["buy-from-play", "defend-a-hero"])
def test_play_game_checks_every_policy_action(synth_scenario, stage, make,
                                              rule):
    """A policy that breaks a rule fails loudly with the rule's name, and
    the game stops at the stage it decides."""
    state = helpers.new_synth_game(seed=7, scenario=synth_scenario)
    policies = build_stage_policies(parse_policy_map(EXPERTS))
    policies[stage] = Policy(lambda s, legals, rng: make(s), needs_legals=False)
    with pytest.raises(IllegalActionError, match=rule):
        play_game(state, policies, Random(7))
    assert state.stage is stage and state.round_no == 1


def test_the_refresh_of_the_last_round_loses_to_threat(synth_scenario):
    state = helpers.new_synth_game(seed=11, scenario=synth_scenario)
    state.round_no = ROUND_CAP
    lines = []
    play_game(state, build_stage_policies(parse_policy_map(EXPERTS)),
              Random(11), trace=lines.append, check=True)
    assert state.outcome is Outcome.LOSS_THREAT
    assert (state.round_no, state.stage) == (ROUND_CAP, StageId.REFRESH)
    assert state.threat_level < state.scenario.threat_limit
    assert len(lines) == 13 and lines[-1].startswith(f"R{ROUND_CAP} refresh ")


def test_rounds_before_the_last_go_on(synth_scenario):
    state = helpers.new_synth_game(seed=11, scenario=synth_scenario)
    state.round_no = ROUND_CAP - 1
    at_stage(state, StageId.REFRESH)
    state = advance_ruled_stage(state)
    assert state.outcome is None
    assert (state.round_no, state.stage) == (ROUND_CAP, StageId.GAIN_RESOURCES_AND_DRAW)


TRACE_AGENTS = {
    "expert": "planning=expert,commit=expert,defense=expert",
    "random": "planning=random,commit=random,defense=random",
    "search": "planning=mcts:4:0.7:expert,commit=flat:3:random,"
              "defense=expert,attack=mcts:3:0.5:random",
}


@pytest.mark.parametrize("agents", TRACE_AGENTS.values(), ids=TRACE_AGENTS)
def test_trace_leaves_outcome_and_rng_alone(shipped, agents):
    policies = build_stage_policies(parse_policy_map(agents))
    for seed in range(3):
        ends = []
        for trace in (None, [].append):
            rng = Random(seed)
            state = new_game(shipped, "hard", rng)
            play_game(state, policies, rng, trace=trace, check=True)
            ends.append((state.fingerprint(), rng.getstate()))
        assert ends[0] == ends[1]


# sha256 over the canonical fingerprint text after every stage of the
# golden games (tests/test_golden.py's GAME_CONFIGS and master seed): a
# refactor that keeps outcomes but changes an intermediate state fails here.
STAGE_DIGESTS = {
    ("expert", "medium"):
        "c4960057af7b6b738e618ecb0fe07ca43ed8b3c9857460f91e417f7c734419fc",
    ("expert", "hard"):
        "5dd8cb3ba453927f7c631a676a729fac455cdf4198c37a048ce1e5d3463555d6",
    ("random", "medium"):
        "1c76657def5489e51aeefa8ddfece8ec5814f3b24916faf60d2fd44dbe60e54c",
    ("random", "hard"):
        "bf61bf07eae91c62072a21a120a4a090c5a1e4cf3efc8754843a7a1f3ea33a15",
    ("mix", "medium"):
        "24bf97ae8135b076594f9d445aa03035d55354adf30e80b0567f6cc74233493e",
    ("mix", "hard"):
        "5e5c38c050f867498d19abb5b237aafaed33f955453752929b24522a01e4dc9c",
}


def stage_digest(shipped, agents: str, difficulty: str, games: int) -> str:
    policies = build_stage_policies(parse_policy_map(agents))
    digest = hashlib.sha256()
    for i in range(games):
        rng = Random(derive_seed(test_golden.MASTER_SEED, i))
        state = new_game(shipped, difficulty, rng)

        # play_game plays in place, so after each stage (one trace line)
        # state is the state that stage left. Enum members are written by
        # value, so every Python version writes the same text.
        def record(_line):
            digest.update(json.dumps(state.fingerprint(),
                                     default=lambda e: e.value).encode())

        play_game(state, policies, rng, trace=record)
    return digest.hexdigest()


@pytest.mark.parametrize("config,difficulty", sorted(STAGE_DIGESTS))
def test_every_intermediate_state_is_pinned(shipped, config, difficulty):
    agents, games = test_golden.GAME_CONFIGS[config]
    assert stage_digest(shipped, agents, difficulty, games) == \
        STAGE_DIGESTS[config, difficulty]


def trace_events(line: str) -> list[str]:
    return line.split(" | ")[0].split(None, 2)[2].split("; ")


@pytest.mark.parametrize("seed", range(3))
def test_trace_has_one_line_per_stage_naming_every_move(shipped, seed):
    policies = build_stage_policies(parse_policy_map(TRACE_AGENTS["random"]))
    rng = Random(seed)
    state = new_game(shipped, "hard", rng)
    lines, snaps = [], [state.clone()]

    def record(line):
        lines.append(line)
        snaps.append(state.clone())

    play_game(state, policies, rng, trace=record)
    # The lines walk the pipeline, one per stage, from the first stage to
    # the stage that ended the game.
    round_no, stage = 1, StageId.GAIN_RESOURCES_AND_DRAW
    for line in lines:
        assert line.startswith(f"R{round_no:02d} {stage.value} ")
        ended = (round_no, stage)
        round_no += stage is StageId.REFRESH
        stage = stage.next
    assert ended == (state.round_no, state.stage)
    assert [i for i, ln in enumerate(lines) if "outcome=" in ln] == [len(lines) - 1]

    moves = 0
    for before, after, line in zip(snaps, snaps[1:], lines):
        events = trace_events(line)
        for old, new in zip(before.cards, after.cards):
            if old.zone is not new.zone:
                moves += 1
                assert (f"{new.defn.id}#{new.instance_id} "
                        f"{old.zone.value}->{new.zone.value}") in events, line
    assert moves


def test_check_invariants_detects_corruption(game):
    game.player_deck.append(game.player_deck[0])  # one card listed twice
    with pytest.raises(QuestSimError, match="invariant"):
        check_invariants(game)


def test_check_invariants_detects_bad_commit_flag(game):
    game.cards[0].committed = True  # committed but not exhausted
    with pytest.raises(QuestSimError, match="committed"):
        check_invariants(game)


def engaged_wolf(state):
    return put(state, "enemy-wolf", Zone.ENGAGEMENT_AREA)


def shadow_elsewhere(state):
    engaged_wolf(state).shadow_card = state.encounter_deck[0]
    return f"shadow card {state.encounter_deck[0]} left the engagement area"


def shadow_unmarked(state):
    wolf = engaged_wolf(state)
    wolf.shadow_card = engaged_wolf(state).instance_id
    return (f"shadow card {wolf.shadow_card} not marked as attached to its "
            f"enemy {wolf.instance_id}")


def shadow_unheld(state):
    wolf = engaged_wolf(state)
    engaged_wolf(state).attached_to = wolf.instance_id
    return f"marked as a shadow of {wolf.instance_id} which does not hold it"


def attached_to_hand(state):
    put(state, "item-blade", Zone.PLAY_AREA, attached_to=state.hand()[0].instance_id)


def two_shadow_holders(state):
    for hero in state.heroes()[:2]:
        hero.shadow_card = state.encounter_deck[0]


def two_active_locations(state):
    for _ in range(2):
        put(state, "loc-clearing", Zone.ACTIVE_LOCATION)


def setattrs(obj, **attrs) -> None:
    for name, value in attrs.items():
        setattr(obj, name, value)


def move_quests(*indexes, to=Zone.COMPLETED_QUESTS):
    def corrupt(state):
        for i in indexes:
            state.move(state.cards[state.quest_ids[i]], to)
    return corrupt


def deck_card(state):
    return state.cards[state.player_deck[0]]


CLEARED = "carries in-game state in a deck or a discard pile"


# One corruption of a fresh game per invariant, each breaking only that
# one, with the message the audit gives; a corruption whose message names
# the cards it builds returns the message itself.
CORRUPTIONS = {
    "instance-id": (lambda s: setattrs(s.cards[5], instance_id=9),
                    "card at index 5 has instance_id 9"),
    "zone-index": (lambda s: s.player_deck.clear(), "zone index lists [] in player_deck"),
    "shadow-twice": (two_shadow_holders, "one card dealt as shadow to two enemies"),
    "shadow-holder": (lambda s: setattrs(s.heroes()[0], shadow_card=s.encounter_deck[0]),
                      "holds a shadow card but is not an engaged enemy"),
    "shadow-zone": (shadow_elsewhere, None),
    "shadow-mark": (shadow_unmarked, None),
    "shadow-held": (shadow_unheld, None),
    "committed": (lambda s: setattrs(s.heroes()[0], committed=True),
                  "committed but not an exhausted character in play"),
    "damage": (lambda s: setattrs(deck_card(s), damage=1), f"{CLEARED}: damage"),
    "exhausted": (lambda s: setattrs(put(s, "ally-shield", Zone.PLAYER_DISCARD),
                                     exhausted=True), f"{CLEARED}: exhausted"),
    "buffed": (lambda s: put(s, "item-blade", Zone.PLAYER_DISCARD).add_buff("attack"),
               f"{CLEARED}: attack"),
    "destroyed": (lambda s: setattrs(s.heroes()[0], damage=3), "should have been destroyed"),
    "resources": (lambda s: setattrs(s.hand()[0], resource_pool=1),
                  "holds resources but is not a hero"),
    "progress": (lambda s: setattrs(s.current_quest(), progress=1),
                 "carries quest progress but is not the active location"),
    "attached": (attached_to_hand, "which left play"),
    "active": (two_active_locations, "more than one active location"),
    "won-early": (lambda s: setattrs(s, outcome=Outcome.WIN), "won with quest_index 0"),
    "quest-index": (move_quests(0, 1, 2), "quest_index 3 out of range"),
    "quest-zone": (move_quests(1, to=Zone.ENCOUNTER_DISCARD),
                   "quest card 4 in encounter_discard, expected staging_area"),
    "rollover": (lambda s: setattrs(s, quest_progress=6), "quest_progress 6 not rolled over"),
    "negative": (lambda s: setattrs(s, quest_progress=-1), "negative quest_progress"),
    "threat-range": (lambda s: setattrs(s, threat_level=51), "threat 51 outside [0, limit]"),
    "threat-limit": (lambda s: setattrs(s, threat_level=50),
                     "threat at limit but game not lost"),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_check_invariants_names_each_broken_invariant(game, name):
    check_invariants(game)
    corrupt, message = CORRUPTIONS[name]
    message = corrupt(game) or message
    with pytest.raises(QuestSimError, match="invariant violation: .*" + re.escape(message)):
        check_invariants(game)


class DiscardsByHand:
    """Planning policy that moves a hand card without GameState.move."""
    needs_legals = False

    def decide(self, state, legals, rng):
        state.hand()[0].zone = Zone.PLAYER_DISCARD
        return PlayCards(())


def test_check_mode_catches_a_direct_zone_write(synth_scenario):
    state = helpers.new_synth_game(seed=11, scenario=synth_scenario)
    policies = build_stage_policies(
        parse_policy_map("planning=expert,commit=expert,defense=expert"))
    policies[StageId.PLANNING] = DiscardsByHand()
    with pytest.raises(QuestSimError, match="zone index lists"):
        play_game(state, policies, Random(11), check=True)
