"""Shared test fixtures: a small synthetic card pool with hand-checkable
numbers, plus surgery helpers for building precise game states."""

import math
from functools import cache
from random import Random

from questsim.cards import parse_card_db, parse_scenario
from questsim.engine import (
    MAX_COMMIT_ENUM,
    MAX_DEFEND_ACTIONS,
    _planning_enumerate,
    commit_pool,
    hero_pools,
    new_game,
)
from questsim.state import CardInstance, GameState, StageId, Zone

# Three heroes, one per sphere; starting threat 9 + 10 + 10 = 29.
SYNTH_CARDS = {
    "cards": [
        {"id": "hero-star", "name": "Star", "kind": "hero", "sphere": "spirit",
         "threat_cost": 9, "willpower": 4, "attack": 1, "defense": 1,
         "hit_points": 3},
        {"id": "hero-crown", "name": "Crown", "kind": "hero",
         "sphere": "leadership", "threat_cost": 10, "willpower": 2,
         "attack": 2, "defense": 2, "hit_points": 5},
        {"id": "hero-axe", "name": "Axe", "kind": "hero", "sphere": "tactics",
         "threat_cost": 10, "willpower": 1, "attack": 3, "defense": 2,
         "hit_points": 4},

        {"id": "ally-lantern", "name": "Lantern Bearer", "kind": "ally",
         "sphere": "spirit", "cost": 1, "willpower": 1, "attack": 0,
         "defense": 0, "hit_points": 1},
        {"id": "ally-banner", "name": "Banner Guard", "kind": "ally",
         "sphere": "leadership", "cost": 2, "willpower": 1, "attack": 1,
         "defense": 1, "hit_points": 2},
        {"id": "ally-shield", "name": "Shield Bearer", "kind": "ally",
         "sphere": "tactics", "cost": 2, "willpower": 0, "attack": 1,
         "defense": 2, "hit_points": 2},
        {"id": "ally-porter", "name": "Porter", "kind": "ally",
         "sphere": "neutral", "cost": 1, "willpower": 1, "attack": 0,
         "defense": 0, "hit_points": 1},
        {"id": "gandalf", "name": "Gandalf", "kind": "ally",
         "sphere": "neutral", "cost": 4, "willpower": 4, "attack": 4,
         "defense": 4, "hit_points": 4},

        {"id": "item-blade", "name": "Blade", "kind": "item",
         "sphere": "tactics", "cost": 1, "buff": "attack"},
        {"id": "item-charm", "name": "Charm", "kind": "item",
         "sphere": "spirit", "cost": 1, "buff": "willpower"},
        {"id": "item-pack", "name": "Pack", "kind": "item",
         "sphere": "neutral", "cost": 1, "buff": "hit_points"},

        {"id": "event-respite", "name": "Respite", "kind": "event-player",
         "sphere": "spirit", "cost": 1, "effect": "reduce_threat",
         "effect_amount": 2},

        {"id": "enemy-wolf", "name": "Wolf", "kind": "enemy", "threat": 1,
         "engagement_cost": 15, "attack": 2, "defense": 0, "hit_points": 2,
         "shadow_attack_bonus": 1},
        {"id": "enemy-warg", "name": "Warg", "kind": "enemy", "threat": 2,
         "engagement_cost": 25, "attack": 3, "defense": 1, "hit_points": 4,
         "shadow_attack_bonus": 0},
        {"id": "enemy-troll", "name": "Troll", "kind": "enemy", "threat": 3,
         "engagement_cost": 34, "attack": 4, "defense": 2, "hit_points": 6,
         "shadow_attack_bonus": 2},

        {"id": "loc-clearing", "name": "Clearing", "kind": "location",
         "threat": 1, "quest_points": 2, "shadow_attack_bonus": 0},
        {"id": "loc-ridge", "name": "Ridge", "kind": "location", "threat": 2,
         "quest_points": 3, "shadow_attack_bonus": 1},

        {"id": "enc-alarm", "name": "Alarm", "kind": "event-encounter",
         "effect": "raise_threat", "effect_amount": 2,
         "shadow_attack_bonus": 1},
        {"id": "enc-ambush", "name": "Ambush", "kind": "event-encounter",
         "effect": "damage_committed", "effect_amount": 1,
         "shadow_attack_bonus": 2},

        {"id": "quest-setout", "name": "Set Out", "kind": "quest",
         "quest_points": 6},
        {"id": "quest-deepen", "name": "Deepen", "kind": "quest",
         "quest_points": 8},
        {"id": "quest-confront", "name": "Confront", "kind": "quest",
         "quest_points": 10},
    ]
}

SYNTH_SCENARIO = {
    "name": "testlands",
    "quest_line": ["quest-setout", "quest-deepen", "quest-confront"],
    "heroes": ["hero-star", "hero-crown", "hero-axe"],
    "player_deck": {
        "ally-lantern": 4, "ally-banner": 3, "ally-shield": 3,
        "ally-porter": 3, "gandalf": 1, "item-blade": 2, "item-charm": 2,
        "event-respite": 2,
    },
    "encounter_decks": {
        "test": {
            "enemy-wolf": 4, "enemy-warg": 3, "enemy-troll": 2,
            "loc-clearing": 2, "loc-ridge": 2, "enc-alarm": 2,
            "enc-ambush": 1,
        },
    },
    "threat_limit": 50,
}


@cache
def make_db():
    return parse_card_db(SYNTH_CARDS)


def make_scenario(**overrides):
    obj = dict(SYNTH_SCENARIO)
    obj.update(overrides)
    return parse_scenario(obj, make_db())


def new_synth_game(seed=0, scenario=None):
    return new_game(scenario or make_scenario(), "test", Random(seed))


def put(state: GameState, card_id: str, zone: Zone, **attrs) -> CardInstance:
    """Append a fresh instance of the synthetic card card_id in the given
    zone, on top if it is a deck (test surgery)."""
    inst = state.add(make_db()[card_id], zone)
    for name, value in attrs.items():
        setattr(inst, name, value)
    return inst


def stash_hand(state: GameState) -> None:
    """Return every hand card to the top of the player deck."""
    for c in state.hand():
        state.move(c, Zone.PLAYER_DECK)


def at_stage(state: GameState, stage: StageId) -> GameState:
    state.stage = stage
    return state


def by_id(state: GameState, card_id: str, zone: Zone | None = None):
    """All instances of a card id, optionally filtered by zone."""
    return [c for c in state.cards if c.defn.id == card_id
            and (zone is None or c.zone is zone)]


def scanned(state: GameState, decks: tuple[list[int], list[int]]) -> list[list[int]]:
    """Each zone's ids by a full scan of the cards, in id order, except
    that the player and encounter decks list `decks`, their expected draw
    order, once the scan finds the same cards there."""
    index = [[c.instance_id for c in state.cards if c.zone is zone] for zone in Zone]
    for zone, deck in zip((Zone.PLAYER_DECK, Zone.ENCOUNTER_DECK), decks):
        assert sorted(deck) == index[zone.slot]
        index[zone.slot] = list(deck)
    return index


def family_capped(state: GameState) -> bool:
    """Whether legal_actions collapsed the family of the current expert
    stage (Planning, Commit or Defend) to its capped form: Planning by the
    subset walk over the whole hand, the others by their pool sizes. The
    fixed rules' stages read False: their rule heads the family, capped
    or not."""
    if state.stage is StageId.PLANNING:
        return _planning_enumerate(state.hand(), hero_pools(state.heroes())) is None
    if state.stage is StageId.COMMIT_CHARACTERS:
        return len(commit_pool(state)) > MAX_COMMIT_ENUM
    if state.stage is StageId.DECLARE_DEFENDERS:
        return defend_count(len(state.engaged_enemies()),
                            len(state.ready_characters())) > MAX_DEFEND_ACTIONS
    return False


def defend_count(enemies: int, defenders: int) -> int:
    """Ways to give each enemy at most one of the defenders, each defender
    used once: j blocked enemies, chosen C(enemies, j) ways, take an
    ordered j of the defenders."""
    return sum(math.comb(enemies, j) * math.perm(defenders, j)
               for j in range(min(enemies, defenders) + 1))
