"""State snapshot mechanics: instances, cloning, action normalization."""

import pickle
import re
from pathlib import Path
from random import Random

import pytest

from questsim.agents import parse_policy_map
from questsim.engine import new_game, play_game
from questsim.search import build_stage_policies
from questsim.state import (
    Attack,
    CardInstance,
    Commit,
    Defend,
    PlayCards,
    STAGE_ORDER,
    StageId,
    StageKind,
    TravelTo,
    Zone,
    describe_action,
)

import helpers


def test_stage_pipeline_has_13_stages_in_7_phases():
    assert len(STAGE_ORDER) == 13
    phases = []
    for stage in STAGE_ORDER:
        if not phases or phases[-1] != stage.phase:
            phases.append(stage.phase)
    assert phases == ["resource", "planning", "quest", "travel", "encounter",
                      "combat", "refresh"]


def test_stage_kinds():
    kinds = [s.kind for s in STAGE_ORDER]
    assert kinds.count(StageKind.DECISION) == 5
    assert kinds.count(StageKind.RANDOM) == 2
    assert kinds.count(StageKind.RULED) == 6
    decision = tuple(s for s in STAGE_ORDER if s.kind is StageKind.DECISION)
    assert decision == (StageId.PLANNING, StageId.COMMIT_CHARACTERS,
                        StageId.TRAVEL, StageId.DECLARE_DEFENDERS,
                        StageId.DECLARE_ATTACKERS)


def test_next_stage_wraps_around():
    stage = STAGE_ORDER[0]
    for expected in STAGE_ORDER[1:]:
        stage = stage.next
        assert stage is expected
    assert STAGE_ORDER[-1].next is STAGE_ORDER[0]


def test_stage_ids_hash_by_identity():
    # Engine and playout tables are keyed by StageId; Enum's own hash would
    # run in Python on every lookup.
    assert StageId.__hash__ is object.__hash__
    table = {stage: i for i, stage in enumerate(STAGE_ORDER)}
    for i, stage in enumerate(STAGE_ORDER):
        assert hash(stage) == object.__hash__(stage)
        assert table[StageId(stage.value)] == i
        assert table[pickle.loads(pickle.dumps(stage))] == i


ROUND_DOC = Path(__file__).parent.parent / "docs" / "round.md"


def test_round_doc_lists_every_stage_in_order():
    lines = ROUND_DOC.read_text().splitlines()
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines if re.match(r"\| \d+ +\| `", line)]
    assert [(value, kind, phase) for _, value, kind, phase, _ in rows] == [
        (f"`{s.value}`", s.kind.value, s.phase) for s in STAGE_ORDER]
    for number, stage in enumerate(STAGE_ORDER, 1):
        heading = f"## {number}. `{stage.value}` ({stage.kind.value}, {stage.phase})"
        assert heading in lines, heading


def test_round_doc_trace_pattern_matches_a_seeded_trace(shipped):
    section = ROUND_DOC.read_text().split("\n## Trace lines\n", 1)[1]
    line_re, event_re = map(re.compile,
                            re.findall(r"```regex\n(.*)\n```", section))
    rng = Random(5)
    state = new_game(shipped, "hard", rng)
    lines = []
    policies = build_stage_policies(
        parse_policy_map("planning=random,commit=random,defense=random"))
    play_game(state, policies, rng, trace=lines.append)
    events = []
    for line in lines:
        match = line_re.match(line)
        assert match, line
        StageId(match["stage"])
        events += match["events"].split("; ")
    for event in events:
        assert event_re.match(event), event
        if "=[" in event:  # each card an action names is <id>#<instance>
            for name in re.split(r",|<-|\+", event.split("=[", 1)[1][:-1]):
                assert name in ("", "none") or re.fullmatch(r"\S+#\d+", name), event
    assert any(e.startswith("defend=[") and "#" in e for e in events)
    # The seeded game shows every event kind.
    assert any(" takes " in e for e in events)
    assert any("->" in e for e in events)
    assert any(e.startswith("play=[") for e in events)


def test_buffs_apply_on_top_of_printed_stats(game):
    hero = game.heroes()[0]
    base = hero.willpower
    hero.add_buff("willpower")
    hero.add_buff("willpower")
    hero.add_buff("attack")
    assert hero.willpower == base + 2
    assert hero.buffs == (2, 1, 0, 0)
    assert hero.defn.willpower == base  # printed stats never change
    game.move(hero, Zone.PLAYER_DISCARD)
    assert hero.willpower == base
    assert hero.buffs is None


CLEARING_ZONES = (Zone.PLAYER_DECK, Zone.ENCOUNTER_DECK, Zone.PLAYER_DISCARD,
                  Zone.ENCOUNTER_DISCARD)


@pytest.mark.parametrize("zone", Zone, ids=lambda z: z.value)
def test_move_clears_in_game_state_only_into_decks_and_discard_piles(game, zone):
    # A card in play that carries every kind of in-game state.
    card = helpers.put(game, "ally-shield", Zone.PLAY_AREA, damage=1, progress=1,
                       exhausted=True, resource_pool=1, committed=True,
                       shadow_card=0, attached_to=0)
    card.add_buff("defense")
    kept = {f: getattr(card, f) for f in CardInstance.__slots__}
    game.move(card, zone)
    after = {f: getattr(card, f) for f in CardInstance.__slots__}
    if zone in CLEARING_ZONES:
        fresh = CardInstance(card.instance_id, card.defn, zone)
        assert after == {f: getattr(fresh, f) for f in CardInstance.__slots__}
    else:
        assert after == {**kept, "zone": zone}


def test_clone_is_deep_for_cards_and_decks(game):
    copy = game.clone()
    assert copy.fingerprint() == game.fingerprint()
    deck = game.player_deck[:]
    copy.cards[0].damage = 2
    copy.move(copy.cards[copy.player_deck[-1]], Zone.HAND)
    copy.threat_level += 5
    assert game.cards[0].damage == 0
    assert game.player_deck == deck and copy.player_deck == deck[:-1]
    assert copy.fingerprint() != game.fingerprint()


def test_repr_names_the_quest_and_an_ended_game_s_outcome(shipped):
    """A fresh game prints no outcome; a won game prints its last quest
    and its outcome by wire value."""
    fresh = new_game(shipped, "medium", Random(1))
    assert repr(fresh) == (f"<GameState r1 gain-resources "
                           f"threat={fresh.threat_level} quest=1+0>")
    rng = Random(1)
    won = new_game(shipped, "medium", rng)
    play_game(won, build_stage_policies(parse_policy_map(
        "planning=expert,commit=expert,defense=expert")), rng)
    assert won.quest_index == 3
    assert repr(won) == (f"<GameState r{won.round_no} {won.stage.value} "
                         f"threat={won.threat_level} "
                         f"quest=3+{won.quest_progress} outcome=win>")


def test_zone_queries_are_in_instance_id_order(game):
    hand = game.hand()
    assert [c.instance_id for c in hand] == sorted(c.instance_id for c in hand)
    assert [c.instance_id for c in game.heroes()] == [0, 1, 2]


def test_ready_characters_excludes_exhausted(game):
    game.heroes()[1].exhausted = True
    ready = game.ready_characters()
    assert [c.instance_id for c in ready] == [0, 2]


def test_engaged_enemies_excludes_shadow_cards(game):
    enemy = helpers.put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    shadow = helpers.put(game, "enc-alarm", Zone.ENGAGEMENT_AREA,
                         attached_to=enemy.instance_id)
    enemy.shadow_card = shadow.instance_id
    assert [e.instance_id for e in game.engaged_enemies()] == [enemy.instance_id]


def test_staging_threat_sums_staged_cards(game):
    helpers.put(game, "enemy-warg", Zone.STAGING_AREA)   # threat 2
    helpers.put(game, "loc-ridge", Zone.STAGING_AREA)    # threat 2
    assert game.staging_threat() == 4  # quest cards carry no threat


def test_zone_slots_number_the_index():
    assert [zone.slot for zone in Zone] == list(range(len(Zone)))


def test_move_keeps_each_zone_in_id_order(game):
    decks = game.player_deck[:], game.encounter_deck[:]
    hand = game.hand()
    for c in reversed(hand):
        game.move(c, Zone.PLAYER_DISCARD)
    assert game.zone_ids[Zone.PLAYER_DISCARD.slot] == [c.instance_id for c in hand]
    assert game.hand() == []
    game.move(hand[1], Zone.HAND)
    game.move(hand[0], Zone.HAND)
    assert game.hand() == hand[:2]
    assert game.zone_ids == helpers.scanned(game, decks)


def test_move_on_a_clone_leaves_the_original_index(game):
    before = [ids[:] for ids in game.zone_ids]
    decks = game.player_deck[:], game.encounter_deck[:]
    copy = game.clone()
    for c in copy.hand():
        copy.move(c, Zone.PLAYER_DISCARD)
    copy.move(copy.heroes()[0], Zone.PLAYER_DISCARD)
    assert game.zone_ids == before == helpers.scanned(game, decks)
    assert copy.zone_ids == helpers.scanned(copy, decks)
    assert len(game.hand()) == 6 and len(game.heroes()) == 3


# ---- action value semantics -------------------------------------------------


def test_actions_normalize_to_canonical_order():
    assert PlayCards((9, 3, 7)) == PlayCards((3, 7, 9))
    assert Commit((5, 1)) == Commit((1, 5))
    assert Defend(((8, None), (2, 4))) == Defend(((2, 4), (8, None)))
    raw = ((8, None), (2, 4), (5, 0), (3, None))
    assert Defend(raw).assignments == tuple(sorted(raw))
    assert Attack(((6, (9, 3)), (2, (1,)))) == Attack(((2, (1,)), (6, (3, 9))))


def test_defend_with_a_repeated_enemy_still_canonicalizes():
    # Left for apply_action to reject; building it must not raise.
    action = Defend(((5, 3), (5, None)))
    assert action.assignments == ((5, None), (5, 3))
    assert action == Defend(((5, None), (5, 3)))


def test_actions_are_hashable_and_distinct():
    seen = {PlayCards(()), Commit(()), TravelTo(None), Defend(()), Attack(())}
    assert len(seen) == 5
    assert PlayCards((1,)) != PlayCards((2,))
    assert TravelTo(3) != TravelTo(None)


def test_describe_action_names_cards(game):
    hand_ids = [c.instance_id for c in game.hand()[:2]]
    text = describe_action(PlayCards(tuple(hand_ids)), game)
    assert text.startswith("play=[")
    for iid in hand_ids:
        assert f"{game.cards[iid].defn.id}#{iid}" in text
    assert describe_action(TravelTo(None), game) == "travel=none"


def test_describe_action_rejects_non_actions(game):
    with pytest.raises(TypeError):
        describe_action("pass", game)
