"""Search agents: flat Monte-Carlo and MCTS with UCB selection.

Both deciders spend exactly `playout_budget` playouts per decision (single
legal actions short-circuit with zero) and call their optional on_playout
argument once per playout. Hidden information is respected by
determinization (engine.determinize): every playout starts from a snapshot
whose face-down decks and dealt shadow cards are reshuffled with the
playout rng, so search never exploits the true deck order. A playout plays
one of agents.PLAYOUT_KINDS at every configurable stage and the expert at
Travel and DeclareAttackers; playout() checks the name it is given,
SearchConfig the deciders' names.

The MCTS tree is open-loop over decision stages: random stages between tree
levels are re-sampled each iteration instead of branching into chance nodes,
and stored children simply sit out iterations where their action is not
legal under the current sampling.
"""

from __future__ import annotations

import math
from random import Random
from typing import Callable, Sequence

from .agents import (
    EXPERT_POLICY,
    PLAYOUT_KINDS,
    RANDOM_POLICY,
    STAGE_KEYS,
    AgentKind,
    Policy,
    SearchConfig,
    StagePolicyMap,
)
from .engine import (_apply_inplace, _run, apply_action, determinize,
                      legal_actions)
from .errors import ConfigError
from .state import (
    DECLARE_ATTACKERS,
    TRAVEL,
    WIN,
    Action,
    GameState,
    Outcome,
    StageId,
)


class SearchNode:
    """One decision node: its win and visit counts and its children, keyed
    by the Action that leads to each."""

    __slots__ = ("wins", "visits", "children")

    def __init__(self):
        self.wins = 0
        self.visits = 0
        self.children: dict[Action, "SearchNode"] = {}


def ucb_score(wins: int, visits: int, parent_visits: int, c: float) -> float:
    """Win ratio plus the exploration bonus c*sqrt(2*ln(parent)/visits).

    Callers never score unvisited nodes; those are expanded first instead.
    """
    return wins / visits + c * math.sqrt(2.0 * math.log(parent_visits) / visits)


# ---- playouts ---------------------------------------------------------------


def _finish(state: GameState, policies: dict, rng: Random,
            on_playout: Callable[[], None] | None = None) -> Outcome:
    """Play the (already determinized) state to its end, mutating it, and
    call on_playout, when given, once. Actions get their effect alone: the
    playout policies pick only legal ones (see the engine docstring)."""
    if on_playout is not None:
        on_playout()
    _run(state, policies, rng, False)
    return state.outcome


def playout(state: GameState, policy: str, rng: Random) -> Outcome:
    """Outcome of one simulated completion of the game from this state.

    policy is a playout policy name ('random' or 'expert'). The input state
    is never modified; an already terminal state returns its outcome with
    zero stages played.
    """
    if policy not in _PLAYOUTS:
        raise ConfigError(f"unknown playout policy {policy!r}")
    if state.outcome is not None:
        return state.outcome
    copy = state.clone()
    determinize(copy, rng)
    return _finish(copy, _PLAYOUTS[policy], rng)


# ---- flat Monte-Carlo -------------------------------------------------------


def best_child_index(keys: Sequence) -> int:
    """Index of the greatest key, the first of equals: flat MC's pick, MCTS
    selection and MCTS's final pick all break ties this way."""
    return max(range(len(keys)), key=keys.__getitem__)


def flat_mc_decide(state: GameState, legals: list[Action],
                   config: SearchConfig, rng: Random,
                   on_playout: Callable[[], None] | None = None) -> Action:
    """Depth-1 search: the budget is floor-divided over the legal actions
    (remainder to the earliest), each share played out from that action's
    successor, and the most-winning action returned (ties to the first)."""
    if len(legals) == 1:
        return legals[0]
    policies = _PLAYOUTS[config.playout_policy]
    base, extra = divmod(config.playout_budget, len(legals))
    wins = [0] * len(legals)
    for i, action in enumerate(legals):
        share = base + (1 if i < extra else 0)
        if share == 0:
            continue
        child = apply_action(state, action)
        for _ in range(share):
            trial = child.clone()
            determinize(trial, rng)
            if _finish(trial, policies, rng, on_playout) is WIN:
                wins[i] += 1
    return legals[best_child_index(wins)]


# ---- MCTS with UCB selection ------------------------------------------------


def mcts_decide(state: GameState, legals: list[Action],
                config: SearchConfig, rng: Random,
                on_playout: Callable[[], None] | None = None) -> Action:
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
    policies = _PLAYOUTS[config.playout_policy]
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
            _run(trial, {}, rng, True)  # on to the next decision stage
            if trial.outcome is not None:
                break
            level = legal_actions(trial)

        won = _finish(trial, policies, rng, on_playout) is WIN
        for visited in path:
            visited.visits += 1
            visited.wins += won

    keys = [(c.visits, c.wins) if c is not None else (0, 0)
            for c in map(root.children.get, legals)]
    return legals[best_child_index(keys)]


# ---- stage policies ---------------------------------------------------------


def build_policy(kind: AgentKind, *,
                 on_playout: Callable[[], None] | None = None) -> Policy:
    """The Policy for an agent description; on_playout, for the search
    kinds, is called once per playout."""
    if kind.kind == "random":
        return RANDOM_POLICY
    if kind.kind == "expert":
        return EXPERT_POLICY
    # Each decider is called by its module-level name, as in agents.py.
    if kind.kind == "flat":
        def decide(state: GameState, legals: list[Action], rng: Random) -> Action:
            return flat_mc_decide(state, legals, kind.search, rng, on_playout)
    else:
        def decide(state: GameState, legals: list[Action], rng: Random) -> Action:
            return mcts_decide(state, legals, kind.search, rng, on_playout)
    return Policy(decide, needs_legals=True)


def build_stage_policies(pmap: StagePolicyMap) -> dict[StageId, Policy]:
    """Per-stage policies for a StagePolicyMap, with the expert on Travel
    and (unless overridden) DeclareAttackers."""
    policies = {TRAVEL: EXPERT_POLICY, DECLARE_ATTACKERS: EXPERT_POLICY}
    for stage, kind in pmap.agents().items():
        policies[STAGE_KEYS[stage]] = build_policy(kind)
    return policies


# Per-stage policies of each playout kind: that agent on every configurable
# stage, with the expert on Travel and DeclareAttackers. SearchConfig has
# checked a search agent's playout name against the same PLAYOUT_KINDS.
_PLAYOUTS = {name: build_stage_policies(StagePolicyMap(*[AgentKind(name)] * 3))
             for name in PLAYOUT_KINDS}
