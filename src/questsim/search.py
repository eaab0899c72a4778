"""Search agents: flat Monte-Carlo and MCTS with UCB selection.

Both deciders spend exactly `playout_budget` playouts per decision (single
legal actions short-circuit with zero). Hidden information is respected by
determinization: every playout starts from a snapshot whose face-down decks
and dealt shadow cards are reshuffled with the playout rng, so search never
exploits the true deck order.

The MCTS tree is open-loop over decision stages: random stages between tree
levels are re-sampled each iteration instead of branching into chance nodes,
and stored children simply sit out iterations where their action is not
legal under the current sampling.
"""

from __future__ import annotations

import math
from dataclasses import replace
from random import Random
from typing import Callable, Sequence

from .agents import (
    EXPERT_AGENT,
    RANDOM_AGENT,
    STAGE_KEYS,
    AgentKind,
    ExpertPolicy,
    FixedAttackPolicy,
    FixedTravelPolicy,
    RandomPolicy,
    SearchConfig,
    StagePolicyMap,
)
from .engine import (
    _DO,
    _RANDOM,
    _RULED,
    _apply_inplace,
    _random_inplace,
    _ruled_inplace,
    legal_actions,
)
from .errors import ConfigError, QuestSimError
from .state import (
    DECISION,
    DECLARE_ATTACKERS,
    ENCOUNTER_DECK,
    ENGAGEMENT_AREA,
    LOSS_THREAT,
    PLAYER_DECK,
    RANDOM,
    RULED,
    TRAVEL,
    WIN,
    Action,
    GameState,
    Outcome,
    StageId,
)

PLAYOUT_ROUND_CAP = 100


class SearchNode:
    """One decision node: its win and visit counts and its children, keyed
    by the Action that leads to each."""

    __slots__ = ("wins", "visits", "children")

    def __init__(self):
        self.wins = 0
        self.visits = 0
        self.children: dict[Action, "SearchNode"] = {}

    def __repr__(self) -> str:
        return (f"<SearchNode {self.wins}/{self.visits} "
                f"children={len(self.children)}>")


def ucb_score(wins: int, visits: int, parent_visits: int, c: float) -> float:
    """Win ratio plus the exploration bonus c*sqrt(2*ln(parent)/visits).

    Callers never score unvisited nodes; those are expanded first instead.
    """
    return wins / visits + c * math.sqrt(2.0 * math.log(parent_visits) / visits)


# ---- determinization and playouts -------------------------------------------


def playout_policies(name: str) -> dict[StageId, object]:
    """Per-stage policy map for a playout policy name (random or expert)."""
    if name not in _PLAYOUTS:
        raise ConfigError(f"unknown playout policy {name!r}")
    return _PLAYOUTS[name]


def determinize(state: GameState, rng: Random) -> GameState:
    """Reshuffle the hidden zones in place: both face-down decks, with dealt
    shadow cards returned to the encounter deck, reshuffled and re-dealt to
    the same enemies (in id order)."""
    rng.shuffle(state.zone_ids[PLAYER_DECK.slot])
    owners = [c for c in state.in_zone(ENGAGEMENT_AREA)
              if c.shadow_card is not None]
    for owner in owners:
        shadow = state.cards[owner.shadow_card]
        state.move(shadow, ENCOUNTER_DECK)
        shadow.attached_to = None
        owner.shadow_card = None
    deck = state.zone_ids[ENCOUNTER_DECK.slot]
    rng.shuffle(deck)
    for owner in owners:
        sid = deck[-1]
        shadow = state.cards[sid]
        state.move(shadow, ENGAGEMENT_AREA)
        shadow.attached_to = owner.instance_id
        owner.shadow_card = sid
    return state


def _finish(state: GameState, policies: dict, rng: Random,
            config: SearchConfig | None = None) -> Outcome:
    """Play the (already determinized) state to its end, mutating it.

    The loop calls each stage's handler and advances the stage itself,
    without the *_inplace wrappers: it runs only while no outcome is set,
    and the stage's kind picks the handler table. Actions get their effect
    alone, as the playout policies pick only legal ones (see the engine
    docstring); config.debug checks them through _apply_inplace instead.

    Passing PLAYOUT_ROUND_CAP rounds counts as a loss; threat rises every
    round so a capped game is a threat death in all but name.
    """
    if config is not None and config.on_playout is not None:
        config.on_playout()
    checked = config is not None and config.debug
    while state.outcome is None:
        if state.round_no > PLAYOUT_ROUND_CAP:
            return LOSS_THREAT
        stage = state.stage
        kind = stage.kind
        if kind is RULED:
            _RULED[stage](state)
        elif kind is RANDOM:
            _RANDOM[stage](state, rng)
        else:
            policy = policies[stage]
            legals = legal_actions(state) if policy.needs_legals else None
            action = policy.decide(state, legals, rng)
            if checked:
                _apply_inplace(state, action)
                continue
            _DO[type(action)][2](state, action)
        if state.outcome is None:
            state.stage = stage.next
    return state.outcome


def playout(state: GameState, policy: str, rng: Random) -> Outcome:
    """Outcome of one simulated completion of the game from this state.

    policy is a playout policy name ('random' or 'expert'). The input state
    is never modified; an already terminal state returns its outcome with
    zero stages played.
    """
    if state.outcome is not None:
        return state.outcome
    policies = playout_policies(policy)
    copy = state.clone()
    determinize(copy, rng)
    return _finish(copy, policies, rng)


# ---- flat Monte-Carlo -------------------------------------------------------


def best_child_index(keys: Sequence) -> int:
    """Index of the greatest key, the first of equals: flat MC's pick, MCTS
    selection and MCTS's final pick all break ties this way."""
    return max(range(len(keys)), key=keys.__getitem__)


def flat_mc_decide(state: GameState, legals: list[Action],
                   config: SearchConfig, rng: Random) -> Action:
    """Depth-1 search: the budget is floor-divided over the legal actions
    (remainder to the earliest), each share played out from that action's
    successor, and the most-winning action returned (ties to the first)."""
    if len(legals) == 1:
        return legals[0]
    policies = playout_policies(config.playout_policy)
    base, extra = divmod(config.playout_budget, len(legals))
    wins = [0] * len(legals)
    for i, action in enumerate(legals):
        share = base + (1 if i < extra else 0)
        if share == 0:
            continue
        child = state.clone()
        _apply_inplace(child, action)
        for _ in range(share):
            trial = child.clone()
            determinize(trial, rng)
            if _finish(trial, policies, rng, config) is WIN:
                wins[i] += 1
    return legals[best_child_index(wins)]


# ---- MCTS with UCB selection ------------------------------------------------


def _audit_tree(node: SearchNode) -> None:
    if node.wins > node.visits:
        raise QuestSimError(f"search tree corrupt: {node!r} has more wins "
                            f"than visits")
    child_visits = sum(c.visits for c in node.children.values())
    if child_visits > node.visits:
        raise QuestSimError(f"search tree corrupt: {node!r} children carry "
                            f"{child_visits} visits")
    for child in node.children.values():
        _audit_tree(child)


def mcts_decide(state: GameState, legals: list[Action],
                config: SearchConfig, rng: Random) -> Action:
    """UCB tree search over successive decision stages of the same game.

    Each iteration re-determinizes a fresh snapshot and then:
    1. selects the first legal action without a child, else the first
       maximal ucb_score;
    2. expands a new child and applies its action, or applies an existing
       child's action, advances the ruled and random stages and selects
       again among the next decision level's fresh legal actions;
    3. plays out from there;
    4. backs the binary result up along the path.
    The final choice is the root child with the most (visits, wins), ties
    to the earliest; unexpanded children rank below every expanded one.
    """
    if len(legals) == 1:
        return legals[0]
    policies = playout_policies(config.playout_policy)
    root = SearchNode()
    for _ in range(config.playout_budget):
        trial = state.clone()
        determinize(trial, rng)
        node, path, level = root, [root], legals
        while True:
            children = node.children
            action = next((a for a in level if a not in children), None)
            expand = action is not None
            if expand:
                children[action] = SearchNode()
            else:
                action = level[best_child_index(
                    [ucb_score(children[a].wins, children[a].visits,
                               node.visits, config.exploration_c)
                     for a in level])]
            node = children[action]
            path.append(node)
            _apply_inplace(trial, action)
            if expand:
                break
            while trial.outcome is None and trial.stage.kind is not DECISION:
                if trial.stage.kind is RULED:
                    _ruled_inplace(trial)
                else:
                    _random_inplace(trial, rng)
            if trial.outcome is not None:
                break
            level = legal_actions(trial)

        won = _finish(trial, policies, rng, config) is WIN
        for visited in path:
            visited.visits += 1
            visited.wins += won
        if config.debug:
            _audit_tree(root)

    keys = [(c.visits, c.wins) if c is not None else (0, 0)
            for c in map(root.children.get, legals)]
    return legals[best_child_index(keys)]


# ---- policy objects and construction ----------------------------------------


class FlatMcPolicy:
    needs_legals = True

    def __init__(self, config: SearchConfig):
        self.config = config

    def decide(self, state: GameState, legals: list[Action],
               rng: Random) -> Action:
        return flat_mc_decide(state, legals, self.config, rng)


class MctsPolicy:
    needs_legals = True

    def __init__(self, config: SearchConfig):
        self.config = config

    def decide(self, state: GameState, legals: list[Action],
               rng: Random) -> Action:
        return mcts_decide(state, legals, self.config, rng)


def build_policy(kind: AgentKind, *, on_playout: Callable[[], None] | None = None):
    """Instantiate the policy object for an agent description."""
    if kind.kind == "random":
        return RandomPolicy()
    if kind.kind == "expert":
        return ExpertPolicy()
    policy = FlatMcPolicy if kind.kind == "flat" else MctsPolicy
    return policy(replace(kind.search, on_playout=on_playout))


def build_stage_policies(pmap: StagePolicyMap) -> dict[StageId, object]:
    """Per-stage policy objects for a StagePolicyMap, with the fixed rules
    on Travel and (unless overridden) DeclareAttackers."""
    policies = {TRAVEL: FixedTravelPolicy(),
                DECLARE_ATTACKERS: FixedAttackPolicy()}
    for stage, kind in pmap.agents().items():
        policies[STAGE_KEYS[stage]] = build_policy(kind)
    return policies


# Playouts play one agent on every configurable stage, with the fixed rules
# on Travel and DeclareAttackers.
_PLAYOUTS = {kind.kind: build_stage_policies(StagePolicyMap(kind, kind, kind))
             for kind in (RANDOM_AGENT, EXPERT_AGENT)}
