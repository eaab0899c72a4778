"""Decision agents: fixed rules, the expert heuristics, agent parsing."""

import dataclasses
import re
from pathlib import Path
from random import Random

import pytest

from questsim import agents
from questsim.agents import (
    AGENT_KINDS,
    EXPERT_POLICY,
    RANDOM_POLICY,
    STAGE_KEYS,
    AgentKind,
    SearchConfig,
    default_attack,
    default_travel,
    expert_decide,
    parse_agent,
    parse_policy_map,
    parse_stage_choices,
)
from questsim.engine import legal_actions, play_game
from questsim.errors import ConfigError, StageError
from questsim.experiments import ExperimentConfig
from questsim.search import build_stage_policies
from questsim.state import (
    Attack,
    Commit,
    Defend,
    GameState,
    PlayCards,
    StageId,
    StageKind,
    TravelTo,
    Zone,
)
from questsim.engine import (
    _apply_inplace,
    advance_ruled_stage,
    apply_action,
    resolve_random_stage,
)

import helpers
from helpers import at_stage, by_id, family_capped, put, stash_hand


# ---- fixed rules ------------------------------------------------------------


def test_default_travel_picks_highest_threat(game):
    at_stage(game, StageId.TRAVEL)
    put(game, "loc-clearing", Zone.STAGING_AREA)
    ridge = put(game, "loc-ridge", Zone.STAGING_AREA)
    assert default_travel(game) == TravelTo(ridge.instance_id)


def test_default_travel_passes_with_active_location(game):
    at_stage(game, StageId.TRAVEL)
    put(game, "loc-clearing", Zone.ACTIVE_LOCATION)
    put(game, "loc-ridge", Zone.STAGING_AREA)
    assert default_travel(game) == TravelTo(None)


def test_default_attack_all_in_on_weakest(game):
    at_stage(game, StageId.DECLARE_ATTACKERS)
    put(game, "enemy-troll", Zone.ENGAGEMENT_AREA)
    wolf = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    assert default_attack(game) == Attack(((wolf.instance_id, (0, 1, 2)),))


def test_default_attack_passes_without_enemies(game):
    at_stage(game, StageId.DECLARE_ATTACKERS)
    assert default_attack(game) == Attack(())


def test_random_policy_is_seeded_and_legal(game):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    legals = legal_actions(game)
    assert RANDOM_POLICY.needs_legals is True
    a = RANDOM_POLICY.decide(game, legals, Random(5))
    b = RANDOM_POLICY.decide(game, legals, Random(5))
    assert a == b
    assert a in legals


# ---- expert planning --------------------------------------------------------


def planning_state(game, hand_ids, pools):
    stash_hand(game)
    at_stage(game, StageId.PLANNING)
    for cid in hand_ids:
        put(game, cid, Zone.HAND)
    for hero, pool in zip(game.heroes(), pools):
        hero.resource_pool = pool
    return game


def test_expert_buys_gandalf_first(game):
    planning_state(game, ["ally-lantern", "gandalf"], (2, 1, 1))
    gandalf = by_id(game, "gandalf", Zone.HAND)[0]
    assert expert_decide(game) == PlayCards((gandalf.instance_id,))


def test_expert_prefers_spirit_by_willpower(game):
    planning_state(game, ["item-charm", "ally-lantern", "ally-porter"],
                   (2, 0, 0))
    lantern = by_id(game, "ally-lantern", Zone.HAND)[0]
    charm = by_id(game, "item-charm", Zone.HAND)[0]
    # Spirit cards first (lantern, willpower 1, before the willpower 0
    # charm); the neutral porter is unaffordable once the pool is drained.
    assert expert_decide(game) == PlayCards((lantern.instance_id,
                                             charm.instance_id))


def test_expert_falls_back_to_cheapest(game):
    planning_state(game, ["ally-banner", "ally-porter"], (0, 2, 1))
    porter = by_id(game, "ally-porter", Zone.HAND)[0]
    banner = by_id(game, "ally-banner", Zone.HAND)[0]
    # Cheapest first (the porter), and the banner still fits afterwards:
    # sphere costs are paid from matching heroes before neutral costs.
    action = expert_decide(game)
    assert action == PlayCards((banner.instance_id, porter.instance_id))
    assert action in legal_actions(game)


def test_expert_planning_buys_past_the_cap(game):
    # The family caps at singletons; the expert still buys all eight.
    planning_state(game, ["ally-lantern"] * 8, (9, 9, 9))
    action = expert_decide(game)
    assert action == PlayCards(tuple(c.instance_id for c in game.hand()))
    assert action not in legal_actions(game)
    apply_action(game, action)


@pytest.mark.parametrize("hand, bought", [
    (["item-charm", "ally-lantern", "ally-porter"], 3),
    (["ally-lantern"] * 8, 8)], ids=["uncapped", "capped"])
def test_expert_planning_reads_heroes_and_hand_once(game, monkeypatch, hand, bought):
    planning_state(game, hand, (9, 9, 9))
    calls = []
    for name in ("heroes", "hand"):
        query = getattr(GameState, name)
        monkeypatch.setattr(GameState, name, lambda self, query=query, name=name:
                            calls.append(name) or query(self))
    action = expert_decide(game)
    monkeypatch.undo()
    assert sorted(calls) == ["hand", "heroes"]
    assert len(action.cards) == bought
    apply_action(game, action)


# ---- expert commit ----------------------------------------------------------


def test_expert_commits_gandalf_then_stops(game):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    gandalf = put(game, "gandalf", Zone.PLAY_AREA)
    put(game, "enemy-troll", Zone.STAGING_AREA)  # threat 3
    assert expert_decide(game) == Commit((gandalf.instance_id,))


def test_expert_commits_spirit_descending(game):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    lantern = put(game, "ally-lantern", Zone.PLAY_AREA)
    put(game, "enemy-troll", Zone.STAGING_AREA)  # threat 3
    put(game, "enemy-wolf", Zone.STAGING_AREA)   # threat 1
    # Spirit by willpower: hero-star (4) then the lantern (1): 5 > 4.
    assert expert_decide(game) == Commit((0, lantern.instance_id))


def test_expert_commits_empty_when_threshold_unreachable(game):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    for _ in range(3):
        put(game, "enemy-troll", Zone.STAGING_AREA)  # threat 9
    # Spirit willpower tops out at 4: unreachable, so commit nothing.
    assert expert_decide(game) == Commit(())


def test_expert_commit_stays_legal_past_the_enumeration_cap(game):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    for cid in ["ally-porter", "ally-lantern", "ally-banner", "gandalf",
                "ally-porter"]:
        put(game, cid, Zone.PLAY_AREA)
    put(game, "enemy-warg", Zone.STAGING_AREA)
    action = expert_decide(game)
    apply_action(game, action)
    assert action != Commit(())


@pytest.mark.parametrize("staged, star", [
    # Threat 4: Gandalf (4) is not enough, the star (5) is added.
    (["enemy-troll", "enemy-wolf"], (0,)),
    # Threat 2: Gandalf alone, though the capped family only offers
    # willpower-descending prefixes, each led by the star.
    (["enemy-warg"], ())], ids=["star-after-gandalf", "gandalf-alone"])
def test_expert_commit_past_the_cap_plays_its_rule(game, staged, star):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    game.cards[0].add_buff("willpower")  # hero-star: willpower 5
    gandalf = put(game, "gandalf", Zone.PLAY_AREA)
    for cid in ["ally-porter"] * 3 + ["ally-banner"] * 2:
        put(game, cid, Zone.PLAY_AREA)
    for cid in staged:
        put(game, cid, Zone.STAGING_AREA)
    action = expert_decide(game)
    assert action == Commit(star + (gandalf.instance_id,))
    assert (action in legal_actions(game)) == bool(star)
    apply_action(game, action)


# ---- expert defense ---------------------------------------------------------


def test_expert_ally_defends_before_heroes(game):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    enemy = put(game, "enemy-warg", Zone.ENGAGEMENT_AREA)
    porter = put(game, "ally-porter", Zone.PLAY_AREA)
    assert expert_decide(game) == Defend(((enemy.instance_id,
                                           porter.instance_id),))


def test_expert_cheap_allies_block_biggest_attackers(game):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    wolf = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)    # attack 2
    troll = put(game, "enemy-troll", Zone.ENGAGEMENT_AREA)  # attack 4
    porter = put(game, "ally-porter", Zone.PLAY_AREA)       # cost 1
    banner = put(game, "ally-banner", Zone.PLAY_AREA)       # cost 2
    action = expert_decide(game)
    assignments = dict(action.assignments)
    assert assignments[troll.instance_id] == porter.instance_id
    assert assignments[wolf.instance_id] == banner.instance_id


def test_expert_heroes_defend_by_descending_defense(game):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    wolf = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    action = expert_decide(game)
    # No allies: the highest-defense hero blocks (crown, defense 2, id 1).
    assert action == Defend(((wolf.instance_id, 1),))


def test_expert_leaves_extra_enemies_undefended(game):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    enemies = [put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
               for _ in range(4)]
    action = expert_decide(game)
    undefended = [e for e, d in action.assignments if d is None]
    assert len(undefended) == 1  # three heroes cover three of the four
    assert action in legal_actions(game)


def test_expert_defense_stays_legal_past_the_cap(game):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    for _ in range(4):
        put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    allies = [put(game, cid, Zone.PLAY_AREA)
              for cid in ["ally-porter", "ally-banner", "ally-lantern",
                          "ally-shield"]]
    action = expert_decide(game)
    # The family caps at single defenders; the four allies block all four.
    assert {d for _, d in action.assignments} == {a.instance_id for a in allies}
    assert action not in legal_actions(game)
    apply_action(game, action)


# ---- expert legality everywhere ---------------------------------------------


def test_expert_choice_is_always_legal_on_random_walks(synth_scenario):
    """Drive random games and require the expert's action to be a member
    of the enumerated legal family at every decision point where no cap
    fired, and to pass its check where one did."""
    rng = Random(99)
    checks = capped = 0
    for seed in range(25):
        state = helpers.new_synth_game(seed=seed, scenario=synth_scenario)
        while state.outcome is None and state.round_no <= 60:
            kind = state.stage.kind
            if kind is StageKind.RULED:
                state = advance_ruled_stage(state)
            elif kind is StageKind.RANDOM:
                state = resolve_random_stage(state, rng)
            else:
                legals = legal_actions(state)
                action = expert_decide(state)
                if family_capped(state):
                    apply_action(state, action)
                    capped += 1
                else:
                    assert action in legals
                checks += 1
                _apply_inplace(state, rng.choice(legals))
    assert checks > 200
    assert capped > 0


# ---- agent descriptions -----------------------------------------------------


def test_parse_agent_round_trips():
    flat = parse_agent("flat:40:expert")
    assert (flat.kind, flat.search.playout_budget,
            flat.search.playout_policy) == ("flat", 40, "expert")
    mcts = parse_agent("mcts:25:0.5:random")
    assert (mcts.kind, mcts.search.playout_budget, mcts.search.exploration_c,
            mcts.search.playout_policy) == ("mcts", 25, 0.5, "random")
    assert parse_agent("expert") == AgentKind("expert")
    for token in ("random", "expert", "flat:40:expert", "mcts:25:0.5:random"):
        kind = parse_agent(token)
        assert str(kind) == token
        assert parse_agent(str(kind)) == kind
    for kind in (AgentKind("flat", SearchConfig(10, playout_policy="random")),
                 AgentKind("flat", SearchConfig(3, 0.7, "expert")),
                 AgentKind("mcts", SearchConfig(25, 0.3, "expert")),
                 AgentKind("mcts", SearchConfig(1))):
        assert parse_agent(str(kind)) == kind
    # The string prints every setting, so nothing else may be one.
    assert [f.name for f in dataclasses.fields(SearchConfig)] == [
        "playout_budget", "exploration_c", "playout_policy"]


@pytest.mark.parametrize("kind,search,message", [
    ("expert", SearchConfig(10), "agent 'expert' takes no search settings"),
    ("random", SearchConfig(10), "agent 'random' takes no search settings"),
    ("mcts", None, "agent 'mcts' needs search settings"),
    ("flat", None, "agent 'flat' needs search settings"),
])
def test_only_search_agents_take_search_settings(kind, search, message):
    with pytest.raises(ConfigError, match=message):
        AgentKind(kind, search)


def test_expert_decides_only_at_decision_stages(game):
    with pytest.raises(StageError, match="'refresh' is not a decision stage"):
        expert_decide(at_stage(game, StageId.REFRESH))


def test_flat_agent_rejects_an_exploration_constant_it_cannot_print():
    with pytest.raises(ConfigError, match="flat.*exploration constant"):
        AgentKind("flat", SearchConfig(10, 0.3, "random"))


@pytest.mark.parametrize("token", [
    "flat:0:expert",        # budget below 1
    "flat:40:greedy",       # unknown playout policy
    "flat:40",              # missing playout
    "mcts:40:1.5:expert",   # exploration constant outside [0, 1]
    "mcts:40:-0.1:expert",
    "mcts:40:expert",       # missing field
    "expert:3",             # parameter on a fixed agent
    "alphabeta",            # unknown kind
    "flat:x:expert",        # non-integer budget
])
def test_parse_agent_rejects_bad_tokens(token):
    with pytest.raises(ConfigError):
        parse_agent(token)


def test_agent_numbers_follow_strength_order():
    assert AgentKind("random").number == 1
    assert AgentKind("expert").number == 2
    assert parse_agent("flat:1:random").number == 3
    assert parse_agent("mcts:1:0.7:random").number == 4


def test_policy_map_parses_and_labels():
    pmap = parse_policy_map(
        "planning=mcts:40:0.7:expert,commit=expert,defense=mcts:40:0.7:expert")
    assert pmap.triple_label() == "4-2-4"
    assert pmap.has_search_agent()
    assert pmap.attack is None
    bumped = pmap.with_budget(80)
    assert bumped.planning.search.playout_budget == 80
    assert bumped.commit == pmap.commit  # fixed agents keep their shape


@pytest.mark.parametrize("text", [
    "planning=expert,commit=expert,defense=expert",
    "planning=mcts:10:0.7:expert,commit=expert,defense=expert",
    "planning=random,commit=flat:5:random,defense=expert,"
    "attack=mcts:8:0.3:expert",
])
def test_printed_policy_map_parses_back(text):
    pmap = parse_policy_map(text)
    assert str(pmap) == text
    assert parse_policy_map(str(pmap)) == pmap
    config = ExperimentConfig(games=1, master_seed=0, policy_map=pmap)
    assert parse_policy_map(config.resolved()["agents"]) == pmap


def test_stage_choices_parse_one_list_per_stage():
    choices = parse_stage_choices(
        " planning=random,expert ; defense=mcts:4:0.7:random;")
    assert choices == {"planning": [parse_agent("random"), parse_agent("expert")],
                       "defense": [parse_agent("mcts:4:0.7:random")]}
    with pytest.raises(ConfigError, match="twice"):
        parse_stage_choices("planning=random;planning=expert")


def test_policy_map_attack_override_must_be_mcts():
    parse_policy_map("planning=expert,commit=expert,defense=expert,"
                     "attack=mcts:10:0.7:expert")
    with pytest.raises(ConfigError, match="attack"):
        parse_policy_map("planning=expert,commit=expert,defense=expert,"
                         "attack=flat:10:expert")


@pytest.mark.parametrize("text", [
    "planning=expert,commit=expert",            # missing defense
    "planning=expert,commit=expert,defense=expert,planning=random",
    "planning=expert,commit=expert,defense=expert,combat=random",
    "planning expert",
])
def test_policy_map_rejects_bad_assignments(text):
    with pytest.raises(ConfigError):
        parse_policy_map(text)


def test_expert_policy_object_ignores_legals(game):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    assert EXPERT_POLICY.needs_legals is False
    action = EXPERT_POLICY.decide(game, None, Random(0))
    assert action == expert_decide(game)
    assert action in legal_actions(game)


RULES = ("expert_decide", "default_travel", "default_attack", "random_decide")


@pytest.mark.parametrize("agent", ["expert", "random"])
def test_every_rule_decision_calls_its_rule_by_module_name(synth_scenario,
                                                           monkeypatch, agent):
    """The policies reach each rule through its module-level name when they
    run, so a wrapper later put on that name sees every call. Every agent
    plays Travel and DeclareAttackers through expert_decide."""
    calls = dict.fromkeys(RULES, 0)
    for name in RULES:
        def counted(*args, inner=getattr(agents, name), name=name):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(agents, name, counted)
    lines: list[str] = []
    policies = build_stage_policies(parse_policy_map(
        f"planning={agent},commit={agent},defense={agent}"))
    play_game(helpers.new_synth_game(seed=3, scenario=synth_scenario),
              policies, Random(3), trace=lines.append)
    stages = [line.split()[1] for line in lines]
    travel = stages.count("travel")
    attack = stages.count("declare-attackers")
    chosen = sum(map(stages.count, ("planning", "commit", "declare-defenders")))
    assert travel and attack and chosen
    expected = {"expert_decide": travel + attack, "default_travel": travel,
                "default_attack": attack, "random_decide": 0}
    expected[f"{agent}_decide"] += chosen
    assert calls == expected


# ---- agents doc -------------------------------------------------------------


def test_agents_doc_covers_every_kind_and_stage_and_its_examples_parse():
    doc = (Path(__file__).parent.parent / "docs" / "agents.md").read_text()
    for number, kind in enumerate(AGENT_KINDS, 1):
        row = next(line for line in doc.splitlines()
                   if line.startswith(f"| `{kind}` "))
        assert f"| {number} " in row, row
    for key in STAGE_KEYS:
        assert f"| `{key}` " in doc, key
    maps, choices = (re.search(rf"```{tag}\n(.*?)```", doc, re.S)[1].splitlines()
                     for tag in ("map", "choices"))
    assert maps and choices
    for text in maps:
        assert str(parse_policy_map(text)) == text
    for text in choices:
        assert parse_stage_choices(text)
    text, label = re.search(r"agents: `(\S+)`\nis `(\S+)`", doc).groups()
    assert parse_policy_map(text).triple_label() == label
