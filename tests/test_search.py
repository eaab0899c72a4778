"""Search agents: UCB scoring, budget accounting, determinization and
choice behavior on states with forced outcomes."""

import math
from random import Random

import pytest

from questsim import search
from questsim.agents import expert_decide, parse_agent
from questsim.engine import (
    _random_inplace,
    _ruled_inplace,
    legal_actions,
    new_game,
    play_game,
)
from questsim.errors import ConfigError, IllegalActionError
from questsim.search import (
    PLAYOUT_ROUND_CAP,
    FlatMcPolicy,
    MctsPolicy,
    SearchConfig,
    SearchNode,
    best_child_index,
    build_policy,
    build_stage_policies,
    determinize,
    flat_mc_decide,
    mcts_decide,
    playout,
    playout_policies,
    ucb_score,
)
from questsim.state import (
    Commit,
    Defend,
    Outcome,
    PlayCards,
    StageId,
    StageKind,
    Zone,
)
from questsim.agents import FixedAttackPolicy, FixedTravelPolicy, parse_policy_map

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


# ---- forced-outcome fixture -------------------------------------------------


def forced_commit_state(synth_scenario):
    """Commit stage with exactly two legals: committing the spirit hero wins
    this round on every encounter draw, passing loses on every draw."""
    state = helpers.new_synth_game(seed=3, scenario=synth_scenario)
    state.quest_progress = 9  # the 10-point finale is one push away
    for iid in state.quest_ids[:2]:
        state.move(state.cards[iid], Zone.COMPLETED_QUESTS)
    state.threat_level = state.threat_limit - 1
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


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_flat_mc_spends_exactly_the_budget(synth_scenario, budget):
    state = forced_commit_state(synth_scenario)
    count = [0]
    config = SearchConfig(playout_budget=budget,
                          on_playout=lambda: count.__setitem__(0, count[0] + 1))
    flat_mc_decide(state, legal_actions(state), config, Random(1))
    assert count[0] == budget


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_mcts_spends_exactly_the_budget(synth_scenario, budget):
    state = forced_commit_state(synth_scenario)
    count = [0]
    config = SearchConfig(playout_budget=budget, debug=True,
                          on_playout=lambda: count.__setitem__(0, count[0] + 1))
    mcts_decide(state, legal_actions(state), config, Random(1))
    assert count[0] == budget


def test_budget_exactness_on_wide_midgame_families(synth_scenario):
    """Same accounting on organic states with larger action families."""
    rng = Random(7)
    state = helpers.new_synth_game(seed=7, scenario=synth_scenario)
    while not (state.stage is StageId.PLANNING and state.round_no >= 2):
        kind = state.stage.kind
        if kind is StageKind.RULED:
            _ruled_inplace(state)
        elif kind is StageKind.RANDOM:
            _random_inplace(state, rng)
        else:
            legals = legal_actions(state)
            from questsim.engine import _apply_inplace
            _apply_inplace(state, rng.choice(legals))
    legals = legal_actions(state)
    assert len(legals) >= 3
    for decide in (flat_mc_decide, mcts_decide):
        count = [0]
        config = SearchConfig(
            playout_budget=40,
            on_playout=lambda: count.__setitem__(0, count[0] + 1))
        decide(state, legals, config, Random(2))
        assert count[0] == 40


class IllegalPolicy:
    """A playout policy that always picks an action its check rejects."""
    needs_legals = False

    def __init__(self, make):
        self.make = make

    def decide(self, state, legals, rng):
        return self.make(state)


def first_hero(state) -> int:
    return state.heroes()[0].instance_id


@pytest.mark.parametrize("stage, make, rule", [
    (StageId.PLANNING, lambda s: PlayCards((first_hero(s),)), "is not in hand"),
    (StageId.DECLARE_DEFENDERS, lambda s: Defend(((first_hero(s), None),)),
     "must cover engaged enemies exactly"),
], ids=["buy-from-play", "defend-a-hero"])
@pytest.mark.parametrize("decide", [flat_mc_decide, mcts_decide])
def test_debug_checks_every_playout_action(synth_scenario, monkeypatch, stage,
                                           make, rule, decide):
    """Playouts trust their policies; debug checks them again, so a policy
    that breaks a rule fails loudly with the rule's name."""
    state = helpers.new_synth_game(seed=7, scenario=synth_scenario)
    _ruled_inplace(state)
    assert state.stage is StageId.PLANNING
    legals = legal_actions(state)
    assert len(legals) >= 2
    monkeypatch.setitem(playout_policies("expert"), stage, IllegalPolicy(make))
    config = SearchConfig(playout_budget=4, playout_policy="expert", debug=True)
    with pytest.raises(IllegalActionError, match=rule):
        decide(state, legals, config, Random(0))


def test_single_legal_action_skips_search(synth_scenario):
    """A forced move costs no playouts; both agents return it directly."""
    state = helpers.new_synth_game(seed=5, scenario=synth_scenario)
    at_stage(state, StageId.DECLARE_DEFENDERS)  # nobody engaged
    legals = legal_actions(state)
    assert legals == [Defend(())]
    count = [0]
    config = SearchConfig(playout_budget=40,
                          on_playout=lambda: count.__setitem__(0, count[0] + 1))
    assert flat_mc_decide(state, legals, config, Random(0)) == Defend(())
    assert mcts_decide(state, legals, config, Random(0)) == Defend(())
    assert count[0] == 0


def test_flat_budget_one_evaluates_only_the_first_action(synth_scenario):
    """floor(1/k) = 0 with the remainder on the earliest child: the other
    children never get a playout, so the first action wins the tie."""
    state = forced_commit_state(synth_scenario)
    config = SearchConfig(playout_budget=1)
    action = flat_mc_decide(state, legal_actions(state), config, Random(0))
    assert action == Commit((0,))


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
    state.round_no = PLAYOUT_ROUND_CAP + 1
    outcome = playout(state, "random", Random(0))
    assert outcome is Outcome.LOSS_THREAT


def test_playout_policies_reject_unknown_names(synth_scenario):
    state = helpers.new_synth_game(seed=13, scenario=synth_scenario)
    with pytest.raises(ConfigError):
        playout(state, "greedy", Random(0))


# ---- reproducibility and wrappers -------------------------------------------


def test_search_policies_are_seed_reproducible(synth_scenario):
    state = forced_commit_state(synth_scenario)
    legals = legal_actions(state)
    for policy in (FlatMcPolicy(SearchConfig(playout_budget=9)),
                   MctsPolicy(SearchConfig(playout_budget=9))):
        a = policy.decide(state.clone(), list(legals), Random(21))
        b = policy.decide(state.clone(), list(legals), Random(21))
        assert a == b


def test_build_policy_maps_agent_kinds():
    assert isinstance(build_policy(parse_agent("flat:5:random")), FlatMcPolicy)
    assert isinstance(build_policy(parse_agent("mcts:5:0.7:random")),
                      MctsPolicy)
    policy = build_policy(parse_agent("mcts:5:0.3:expert"))
    assert policy.config.exploration_c == 0.3
    assert policy.config.playout_policy == "expert"


def test_build_stage_policies_pins_travel_and_attack():
    pmap = parse_policy_map("planning=flat:5:random,commit=expert,"
                            "defense=random")
    policies = build_stage_policies(pmap)
    assert isinstance(policies[StageId.TRAVEL], FixedTravelPolicy)
    assert isinstance(policies[StageId.DECLARE_ATTACKERS], FixedAttackPolicy)
    assert isinstance(policies[StageId.PLANNING], FlatMcPolicy)
    override = parse_policy_map("planning=expert,commit=expert,"
                                "defense=expert,attack=mcts:5:0.7:random")
    assert isinstance(build_stage_policies(override)[StageId.DECLARE_ATTACKERS],
                      MctsPolicy)


# ---- the legals cache -------------------------------------------------------


class UncachedNode(SearchNode):
    """A SearchNode whose legals cache always reads empty and drops writes,
    so every tree level computes its legal actions afresh."""

    __slots__ = ()

    @property
    def cached_legals(self):
        return None

    @cached_legals.setter
    def cached_legals(self, value):
        pass


class CacheProbe:
    """Plays the wrapped policy's move; first, at each contested decision,
    runs MCTS with and without the legals cache from equal seeds, records
    each side's choice and rng state after it, and counts each side's
    legal_actions calls."""

    needs_legals = True

    def __init__(self, inner, monkeypatch, pairs, calls):
        self.inner, self.monkeypatch = inner, monkeypatch
        self.pairs, self.calls = pairs, calls

    def decide(self, state, legals, rng):
        if len(legals) > 1:
            pair = []
            for side, node in enumerate((SearchNode, UncachedNode)):
                def counted(trial, side=side):
                    self.calls[side] += 1
                    return legal_actions(trial)
                self.monkeypatch.setattr(search, "SearchNode", node)
                self.monkeypatch.setattr(search, "legal_actions", counted)
                search_rng = Random(len(self.pairs))
                action = mcts_decide(state, legals, CACHE_CONFIG, search_rng)
                pair.append((action, search_rng.getstate()))
            self.pairs.append(pair)
        return self.inner.decide(
            state, legals if self.inner.needs_legals else None, rng)


CACHE_CONFIG = SearchConfig(playout_budget=20, playout_policy="expert")


def test_the_legals_cache_changes_no_decision(shipped, monkeypatch):
    """SearchNode.cached_legals only saves work: on the contested decisions
    of a seeded shipped game, with expert moves between them, MCTS chooses
    the same action and draws the same random numbers without it. Expert
    playouts call no legal_actions, so the calls counted are the tree
    levels'."""
    experts = build_stage_policies(parse_policy_map(
        "planning=expert,commit=expert,defense=expert"))
    pairs, calls = [], [0, 0]
    policies = {stage: CacheProbe(policy, monkeypatch, pairs, calls)
                for stage, policy in experts.items()}
    rng = Random(0)
    play_game(new_game(shipped, "hard", rng), policies, rng)
    assert len(pairs) >= 30
    for cached, uncached in pairs:
        assert cached == uncached
    # The cache answered some tree levels, so the comparison covers it.
    assert calls[0] < calls[1]
