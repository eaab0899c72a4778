"""Search agents: UCB scoring, budget accounting, determinization and
choice behavior on states with forced outcomes."""

import itertools
import math
from collections import Counter
from random import Random

import pytest

import questsim
from questsim import search
from questsim.agents import (
    default_attack,
    default_travel,
    expert_decide,
    parse_agent,
    parse_policy_map,
    random_decide,
)
from questsim.engine import (
    ROUND_CAP,
    advance_ruled_stage,
    determinize,
    legal_actions,
    new_game,
    play_game,
    resolve_random_stage,
)
from questsim.errors import ConfigError
from questsim.search import (
    SearchConfig,
    SearchNode,
    best_child_index,
    build_policy,
    build_stage_policies,
    flat_mc_decide,
    mcts_decide,
    playout,
    ucb_score,
)
from questsim.state import (
    Attack,
    Commit,
    Defend,
    Outcome,
    StageId,
    StageKind,
    TravelTo,
    Zone,
)

import helpers
from helpers import at_stage, put


# ---- ucb scoring ------------------------------------------------------------


def test_ucb_score_matches_hand_computation():
    # 6/10 + 0.7 * sqrt(2 * ln(100) / 10), evaluated independently.
    expected = 1.2717936277063313
    got = ucb_score(6, 10, 100, 0.7)
    assert got == pytest.approx(expected, abs=1e-9)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        precise = (mpmath.mpf(6) / 10
                   + mpmath.mpf("0.7") * mpmath.sqrt(2 * mpmath.log(100) / 10))
        assert abs(got - float(precise)) < 1e-9


def test_ucb_zero_c_is_pure_exploitation():
    assert ucb_score(6, 10, 100, 0.0) == 6 / 10
    assert ucb_score(3, 7, 9999, 0.0) == 3 / 7


def test_ucb_bonus_grows_with_parent_visits():
    lo = ucb_score(1, 2, 10, 0.7)
    hi = ucb_score(1, 2, 1000, 0.7)
    assert hi > lo
    assert hi - 0.5 == pytest.approx(0.7 * math.sqrt(2 * math.log(1000) / 2))


def test_search_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(playout_budget=0)
    with pytest.raises(ConfigError):
        SearchConfig(playout_budget=1, exploration_c=1.01)
    with pytest.raises(ConfigError):
        SearchConfig(playout_budget=1, playout_policy="greedy")


def test_best_child_index_ties_to_first():
    assert best_child_index([4]) == 0
    assert best_child_index([0, 3, 3]) == 1
    assert best_child_index([5, 5, 2]) == 0
    assert best_child_index([0, 0, 0]) == 0
    assert best_child_index([(1, 0), (2, 0), (2, 0)]) == 1


# ---- forced-outcome fixture -------------------------------------------------


def forced_commit_state(synth_scenario):
    """Commit stage with exactly two legals: committing the spirit hero wins
    this round on every encounter draw, passing loses on every draw."""
    state = helpers.new_synth_game(seed=3, scenario=synth_scenario)
    state.quest_progress = 9  # the 10-point finale is one push away
    for iid in state.quest_ids[:2]:
        state.move(state.cards[iid], Zone.COMPLETED_QUESTS)
    state.threat_level = state.scenario.threat_limit - 1
    state.cards[1].exhausted = True
    state.cards[2].exhausted = True
    # Strip threat-raising surges so the winning branch cannot be ambushed.
    for iid in list(state.encounter_deck):
        if state.cards[iid].defn.id == "enc-alarm":
            state.move(state.cards[iid], Zone.ENCOUNTER_DISCARD)
    at_stage(state, StageId.COMMIT_CHARACTERS)
    assert legal_actions(state) == [Commit((0,)), Commit(())]
    return state


@pytest.mark.parametrize("playout_policy", ["random", "expert"])
def test_flat_mc_finds_the_forced_win(synth_scenario, playout_policy):
    state = forced_commit_state(synth_scenario)
    config = SearchConfig(playout_budget=7, playout_policy=playout_policy)
    action = flat_mc_decide(state, legal_actions(state), config, Random(0))
    assert action == Commit((0,))


@pytest.mark.parametrize("playout_policy", ["random", "expert"])
def test_mcts_finds_the_forced_win(synth_scenario, playout_policy):
    state = forced_commit_state(synth_scenario)
    config = SearchConfig(playout_budget=7, playout_policy=playout_policy)
    action = mcts_decide(state, legal_actions(state), config, Random(0))
    assert action == Commit((0,))


def counter():
    """A playout counter: the list holding the count and the callback."""
    count = [0]
    return count, lambda: count.__setitem__(0, count[0] + 1)


@pytest.fixture
def recorded_nodes(monkeypatch):
    """Every SearchNode that mcts_decide makes, in order; the root first."""
    nodes = []

    class RecordedNode(SearchNode):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            nodes.append(self)

    monkeypatch.setattr(search, "SearchNode", RecordedNode)
    return nodes


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_flat_mc_spends_exactly_the_budget(synth_scenario, budget):
    state = forced_commit_state(synth_scenario)
    count, on_playout = counter()
    config = SearchConfig(playout_budget=budget)
    flat_mc_decide(state, legal_actions(state), config, Random(1), on_playout)
    assert count[0] == budget


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_mcts_spends_exactly_the_budget(synth_scenario, recorded_nodes,
                                        budget):
    """One playout per iteration, each backed up along one path from the
    root: no node wins more than it is visited, and a node's children share
    at most its visits."""
    state = forced_commit_state(synth_scenario)
    count, on_playout = counter()
    config = SearchConfig(playout_budget=budget)
    mcts_decide(state, legal_actions(state), config, Random(1), on_playout)
    assert count[0] == budget
    assert recorded_nodes[0].visits == budget
    for node in recorded_nodes:
        assert node.wins <= node.visits
        assert sum(c.visits for c in node.children.values()) <= node.visits


def test_budget_exactness_on_wide_midgame_families(synth_scenario):
    """Same accounting on organic states with larger action families."""
    rng = Random(7)
    state = helpers.new_synth_game(seed=7, scenario=synth_scenario)
    while not (state.stage is StageId.PLANNING and state.round_no >= 2):
        kind = state.stage.kind
        if kind is StageKind.RULED:
            state = advance_ruled_stage(state)
        elif kind is StageKind.RANDOM:
            state = resolve_random_stage(state, rng)
        else:
            legals = legal_actions(state)
            from questsim.engine import _apply_inplace
            _apply_inplace(state, rng.choice(legals))
    legals = legal_actions(state)
    assert len(legals) >= 3
    for decide in (flat_mc_decide, mcts_decide):
        count, on_playout = counter()
        decide(state, legals, SearchConfig(playout_budget=40), Random(2),
               on_playout)
        assert count[0] == 40


def test_single_legal_action_skips_search(synth_scenario):
    """A forced move costs no playouts; both agents return it directly."""
    state = helpers.new_synth_game(seed=5, scenario=synth_scenario)
    at_stage(state, StageId.DECLARE_DEFENDERS)  # nobody engaged
    legals = legal_actions(state)
    assert legals == [Defend(())]
    count, on_playout = counter()
    config = SearchConfig(playout_budget=40)
    assert flat_mc_decide(state, legals, config, Random(0),
                          on_playout) == Defend(())
    assert mcts_decide(state, legals, config, Random(0),
                       on_playout) == Defend(())
    assert count[0] == 0


def test_flat_budget_one_evaluates_only_the_first_action(synth_scenario):
    """floor(1/k) = 0 with the remainder on the earliest child: the other
    children never get a playout, so the first action wins the tie."""
    state = forced_commit_state(synth_scenario)
    config = SearchConfig(playout_budget=1)
    action = flat_mc_decide(state, legal_actions(state), config, Random(0))
    assert action == Commit((0,))


@pytest.mark.parametrize("extra, wins, chosen", [
    (0, {}, 0),      # one visit each, equal keys: the first action
    (0, {1}, 1),     # the second expansion wins: its action
    (1, {}, 0),      # equal UCB scores: the earliest child descends again
], ids=["all-lost", "second-won", "one-more-iteration"])
def test_mcts_expands_and_picks_in_family_order(synth_scenario, monkeypatch,
                                                 recorded_nodes, extra, wins,
                                                 chosen):
    """Root children are expanded in legal-family order, UCB ties go to the
    earliest child, and the final pick goes by (visits, wins), then order.
    Playouts are scripted: the i-th one is a win when i is in wins."""
    state = helpers.new_synth_game(seed=7, scenario=synth_scenario)
    state = advance_ruled_stage(state)
    legals = legal_actions(state)
    assert len(legals) >= 3
    outcomes = (Outcome.WIN if i in wins else Outcome.LOSS_THREAT
                for i in itertools.count())
    monkeypatch.setattr(search, "_finish", lambda *args: next(outcomes))
    config = SearchConfig(playout_budget=len(legals) + extra)
    action = mcts_decide(state, legals, config, Random(0))
    root = recorded_nodes[0]
    assert list(root.children) == legals
    visits = [1] * len(legals)
    visits[0] += extra
    assert [child.visits for child in root.children.values()] == visits
    assert action == legals[chosen]


# ---- determinization --------------------------------------------------------


def rich_hidden_state(synth_scenario):
    state = helpers.new_synth_game(seed=9, scenario=synth_scenario)
    e1 = put(state, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    e2 = put(state, "enemy-warg", Zone.ENGAGEMENT_AREA)
    s1 = put(state, "enc-alarm", Zone.ENGAGEMENT_AREA,
             attached_to=e1.instance_id)
    s2 = put(state, "loc-ridge", Zone.ENGAGEMENT_AREA,
             attached_to=e2.instance_id)
    e1.shadow_card = s1.instance_id
    e2.shadow_card = s2.instance_id
    return state


def test_determinize_is_the_engines_under_every_name():
    assert search.determinize is questsim.determinize is determinize


def test_determinize_preserves_visible_state(synth_scenario):
    state = rich_hidden_state(synth_scenario)
    hand_before = [c.instance_id for c in state.hand()]
    play_before = [c.instance_id for c in state.in_zone(Zone.PLAY_AREA)]
    copy = state.clone()
    determinize(copy, Random(0))
    assert [c.instance_id for c in copy.hand()] == hand_before
    assert [c.instance_id for c in copy.in_zone(Zone.PLAY_AREA)] == play_before
    assert copy.threat_level == state.threat_level


def test_determinize_shuffles_but_preserves_deck_contents(synth_scenario):
    state = rich_hidden_state(synth_scenario)
    player_before = sorted(state.player_deck)
    changed = False
    for seed in range(5):
        copy = state.clone()
        determinize(copy, Random(seed))
        assert sorted(copy.player_deck) == player_before
        if copy.player_deck != state.player_deck:
            changed = True
    assert changed  # hidden order must actually vary


def test_determinize_redeals_shadows_to_the_same_enemies(synth_scenario):
    state = rich_hidden_state(synth_scenario)
    owners_before = sorted(c.instance_id for c in state.cards
                           if c.shadow_card is not None)
    hidden_before = sorted(state.encounter_deck
                           + [c.shadow_card for c in state.cards
                              if c.shadow_card is not None])
    copy = state.clone()
    determinize(copy, Random(4))
    owners_after = sorted(c.instance_id for c in copy.cards
                          if c.shadow_card is not None)
    assert owners_after == owners_before
    hidden_after = sorted(copy.encounter_deck
                          + [c.shadow_card for c in copy.cards
                             if c.shadow_card is not None])
    assert hidden_after == hidden_before
    for owner_id in owners_after:
        owner = copy.cards[owner_id]
        shadow = copy.cards[owner.shadow_card]
        assert shadow.attached_to == owner_id
        assert shadow.zone is Zone.ENGAGEMENT_AREA


def test_determinize_deals_every_order_of_a_short_deck_evenly():
    """Over 2,400 seeds, determinize puts a 4-card player deck in each of
    its 24 orders: the chi-square statistic of the counts stays below
    49.73, its 0.001 critical value at 23 degrees of freedom."""
    scenario = helpers.make_scenario(
        player_deck={"ally-lantern": 4, "ally-banner": 3, "ally-shield": 3})
    state = new_game(scenario, "test", Random(0))
    assert len(state.player_deck) == 4
    orders = Counter()
    for seed in range(2400):
        copy = state.clone()
        determinize(copy, Random(seed))
        orders[tuple(copy.player_deck)] += 1
    assert len(orders) == 24
    expected = 2400 / 24
    assert sum((n - expected) ** 2 / expected for n in orders.values()) < 49.73


class RecordsDefense:
    """Expert defense that keeps a copy of each state it decides on."""
    needs_legals = False

    def __init__(self):
        self.seen = []

    def decide(self, state, legals, rng):
        self.seen.append(state.clone())
        return expert_decide(state)


def test_determinize_keeps_the_zone_index(synth_scenario, shipped):
    recorder = RecordsDefense()
    policies = build_stage_policies(
        parse_policy_map("planning=expert,commit=expert,defense=expert"))
    policies[StageId.DECLARE_DEFENDERS] = recorder
    for seed in range(4):
        rng = Random(seed)
        play_game(new_game(shipped, "hard", rng), policies, rng)
    states = [rich_hidden_state(synth_scenario)] + [
        s for s in recorder.seen if any(c.shadow_card is not None for c in s.cards)]
    assert len(states) > 5
    for i, state in enumerate(states):
        # The decks' draw order as determinize defines it: shuffle the
        # player deck, put the shadows on the encounter deck in owner
        # order, shuffle it and deal the shadows from the top.
        rng = Random(i)
        player = state.player_deck[:]
        rng.shuffle(player)
        owners = [c for c in state.cards if c.shadow_card is not None]
        encounter = state.encounter_deck + [c.shadow_card for c in owners]
        rng.shuffle(encounter)
        del encounter[len(encounter) - len(owners):]
        copy = state.clone()
        determinize(copy, Random(i))
        assert copy.zone_ids == helpers.scanned(copy, (player, encounter))


# ---- playouts ---------------------------------------------------------------


def test_playout_reaches_an_outcome_and_keeps_input(synth_scenario):
    state = helpers.new_synth_game(seed=13, scenario=synth_scenario)
    before = state.fingerprint()
    outcome = playout(state, "random", Random(0))
    assert isinstance(outcome, Outcome)
    assert state.fingerprint() == before


def test_playout_round_cap_counts_as_loss(synth_scenario):
    state = helpers.new_synth_game(seed=13, scenario=synth_scenario)
    state.round_no = ROUND_CAP + 1
    outcome = playout(state, "random", Random(0))
    assert outcome is Outcome.LOSS_THREAT


@pytest.mark.parametrize("round_no, ends", [(ROUND_CAP - 1, False), (ROUND_CAP, True)])
def test_a_playout_ends_at_the_refresh_of_the_last_round(synth_scenario,
                                                          round_no, ends):
    """From the refresh of the last round a playout loses to threat and
    draws nothing after determinizing; a round earlier it plays on, and its
    random agent draws at the next round's decisions."""
    state = helpers.new_synth_game(seed=13, scenario=synth_scenario)
    at_stage(state, StageId.REFRESH).round_no = round_no
    rng, twin = Random(0), Random(0)
    outcome = playout(state, "random", rng)
    determinize(state.clone(), twin)
    assert (rng.getstate() == twin.getstate()) is ends
    if ends:
        assert outcome is Outcome.LOSS_THREAT


def finished_game(synth_scenario):
    state = helpers.new_synth_game(seed=13, scenario=synth_scenario)
    policies = build_stage_policies(
        parse_policy_map("planning=expert,commit=expert,defense=expert"))
    play_game(state, policies, Random(13))
    assert state.outcome is not None
    return state


def test_playout_rejects_unknown_policy_names(synth_scenario):
    """A finished game plays no stage but still has its name checked."""
    for state in (helpers.new_synth_game(seed=13, scenario=synth_scenario),
                  finished_game(synth_scenario)):
        with pytest.raises(ConfigError, match="unknown playout policy 'greedy'"):
            playout(state, "greedy", Random(0))


@pytest.mark.parametrize("policy", ["random", "expert"])
def test_playout_of_a_finished_game_plays_no_stage(synth_scenario, policy):
    """A finished game returns its outcome, draws nothing and is left as
    it was."""
    state = finished_game(synth_scenario)
    before = state.fingerprint()
    rng, twin = Random(3), Random(3)
    assert playout(state, policy, rng) is state.outcome
    assert rng.getstate() == twin.getstate()
    assert state.fingerprint() == before


# ---- reproducibility and wrappers -------------------------------------------


def test_search_policies_are_seed_reproducible(synth_scenario):
    state = forced_commit_state(synth_scenario)
    legals = legal_actions(state)
    for agent in ("flat:9:random", "mcts:9:0.7:random"):
        policy = build_policy(parse_agent(agent))
        a = policy.decide(state.clone(), list(legals), Random(21))
        b = policy.decide(state.clone(), list(legals), Random(21))
        assert a == b


def wide_planning_state(synth_scenario):
    state = helpers.new_synth_game(seed=7, scenario=synth_scenario)
    state = advance_ruled_stage(state)
    assert state.stage is StageId.PLANNING
    return state


SEARCH_AGENTS = ("flat:12:random", "flat:12:expert", "mcts:12:0.7:random",
                 "mcts:12:0.3:expert", "mcts:12:0.0:expert")


def test_build_policy_maps_agent_kinds(synth_scenario):
    """A search agent's policy decides as its decider does with the
    agent's settings: the same action, the same draws, each playout
    counted."""
    state = wide_planning_state(synth_scenario)
    legals = legal_actions(state)
    assert len(legals) >= 3
    for agent in SEARCH_AGENTS:
        kind = parse_agent(agent)
        decide = flat_mc_decide if kind.kind == "flat" else mcts_decide
        count, on_playout = counter()
        policy = build_policy(kind, on_playout=on_playout)
        assert policy.needs_legals is True
        rng, twin = Random(21), Random(21)
        assert (policy.decide(state.clone(), legals, rng)
                == decide(state.clone(), legals, kind.search, twin)), agent
        assert rng.getstate() == twin.getstate(), agent
        assert count[0] == kind.search.playout_budget, agent


def test_build_policy_maps_random_and_expert(synth_scenario):
    state = wide_planning_state(synth_scenario)
    legals = legal_actions(state)
    rng, twin = Random(4), Random(4)
    random_policy = build_policy(parse_agent("random"))
    assert random_policy.needs_legals is True
    assert (random_policy.decide(state, legals, rng)
            == random_decide(state, legals, twin))
    assert rng.getstate() == twin.getstate()
    expert_policy = build_policy(parse_agent("expert"))
    assert expert_policy.needs_legals is False
    assert expert_policy.decide(state, None, rng) == expert_decide(state)
    assert rng.getstate() == twin.getstate()


def test_build_stage_policies_pins_travel_and_attack(game):
    pmap = parse_policy_map("planning=flat:5:random,commit=expert,"
                            "defense=random")
    policies = build_stage_policies(pmap)
    assert set(policies) == {stage for stage in StageId
                             if stage.kind is StageKind.DECISION}
    travel, attack = policies[StageId.TRAVEL], policies[StageId.DECLARE_ATTACKERS]
    assert not travel.needs_legals and not attack.needs_legals
    rng = Random(0)
    before = rng.getstate()

    at_stage(game, StageId.TRAVEL)
    put(game, "loc-clearing", Zone.STAGING_AREA)
    ridge = put(game, "loc-ridge", Zone.STAGING_AREA)
    assert travel.decide(game, None, rng) == default_travel(game) == TravelTo(
        ridge.instance_id)

    at_stage(game, StageId.DECLARE_ATTACKERS)
    put(game, "enemy-troll", Zone.ENGAGEMENT_AREA)
    wolf = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    assert attack.decide(game, None, rng) == default_attack(game) == Attack(
        ((wolf.instance_id, (0, 1, 2)),))
    assert rng.getstate() == before

    override = parse_policy_map("planning=expert,commit=expert,"
                                "defense=expert,attack=mcts:5:0.7:random")
    mcts = build_stage_policies(override)[StageId.DECLARE_ATTACKERS]
    assert mcts.needs_legals
    legals = legal_actions(game)
    assert len(legals) >= 2
    rng, twin = Random(8), Random(8)
    assert (mcts.decide(game.clone(), legals, rng)
            == mcts_decide(game.clone(), legals, SearchConfig(5, 0.7, "random"), twin))
    assert rng.getstate() == twin.getstate()
