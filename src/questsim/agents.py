"""Decision policies: uniform random and the expert rule agent, whose
Travel and DeclareAttackers rules (default_travel, default_attack) are the
fixed rules every agent plays at the stages it is not given.

A Policy is how one decision stage is decided: decide(state, legals, rng)
returns the action, and needs_legals says whether the stage loop
(engine._run) hands it the enumerated legal actions or None. The expert
builds its action analytically, from the rules alone: the action passes
its stage's check, and it is a member of the enumerated legal family
whenever no family cap fired. The caps (engine.py) bound the choices a
search sees only; the expert plays its rule whatever they are. The two
Policies here, RANDOM_POLICY and EXPERT_POLICY, adapt random_decide and
expert_decide; search.py adds the flat and mcts ones.

AgentKind is one parsed agent string (docs/agents.md), its search settings
in a SearchConfig for the flat and mcts kinds. STAGE_KEYS names the stages
an agent can be given; the str() of a StagePolicyMap is the --agents syntax
that parse_policy_map reads back. search.py builds the stage policies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random
from typing import Callable

from .cards import SPIRIT
from .engine import (attack_order, commit_pool, defender_order, hero_pools,
                      take, travel_order)
from .errors import ConfigError, StageError
from .state import (
    COMMIT_CHARACTERS,
    DECLARE_ATTACKERS,
    DECLARE_DEFENDERS,
    PLANNING,
    TRAVEL,
    Action,
    Attack,
    CardInstance,
    Commit,
    Defend,
    GameState,
    PlayCards,
    TravelTo,
)


@dataclass(frozen=True, slots=True)
class Policy:
    """decide(state, legals, rng) -> Action at one decision stage; legals
    is the stage's legal family when needs_legals is set, else None."""

    decide: Callable[[GameState, list[Action] | None, Random], Action]
    needs_legals: bool


# The expert's standout purchase; a card set without it simply never
# triggers the rule.
GANDALF_ID = "gandalf"


# ---- random agent -----------------------------------------------------------


def random_decide(state: GameState, legals: list[Action], rng: Random) -> Action:
    """Uniform choice over the enumerated legal actions."""
    return legals[rng.randrange(len(legals))]


# ---- fixed default rules ----------------------------------------------------
#
# The expert's rules, these two included, run at every decision of an
# expert playout, so each reads the cards it needs once and builds its
# action in canonical order through the actions' _canonical constructor
# (state.py). The empty actions are shared constants.

_NO_COMMIT = Commit(())
_STAY = TravelTo(None)
_NO_DEFENSE = Defend(())
_NO_ATTACK = Attack(())


def default_travel(state: GameState) -> Action:
    """Travel to the first location in engine.travel_order (highest threat,
    ties by id); stay put when a location is already active or none are
    staged. The head of the travel family by construction."""
    spots = travel_order(state)
    return TravelTo(spots[0].instance_id) if spots else _STAY


def default_attack(state: GameState) -> Action:
    """All ready characters attack the first enemy in engine.attack_order
    (fewest remaining hit points, ties by id); empty when nothing to do.
    The head of the attack family by construction."""
    targets = attack_order(state)
    ready = state.ready_characters() if targets else None
    if not ready:
        return _NO_ATTACK
    return Attack._canonical(
        ((targets[0].instance_id, tuple([c.instance_id for c in ready])),))


# ---- expert agent -----------------------------------------------------------


def _buy_order(card: CardInstance) -> tuple:
    """The expert's purchase preference: Gandalf, then Spirit cards by
    descending willpower, then the rest by ascending cost; ties by card
    id, then by instance id."""
    d = card.defn
    if d.id == GANDALF_ID:
        return (0, card.instance_id)
    if d.sphere is SPIRIT:
        return (1, -d.willpower, d.id, card.instance_id)
    return (2, d.cost, d.id, card.instance_id)


def _expert_planning(state: GameState) -> Action:
    """Greedy purchase: the most preferred affordable card (_buy_order),
    repeated until nothing else is affordable.

    The buy only grows, so a card the heroes cannot pay for now they never
    can later: taking, in preference order, each hand card still payable
    picks the same cards as re-filtering the affordable cards every time."""
    left = hero_pools(state.heroes())
    chosen: list[int] = []
    for c in sorted(state.hand(), key=_buy_order):
        rest = take(c.defn, left)
        if rest is not None:
            chosen.append(c.instance_id)
            left = rest

    chosen.sort()
    return PlayCards._canonical(tuple(chosen))


def _expert_commit(state: GameState) -> Action:
    """Commit Gandalf then Spirit characters by descending willpower until
    total willpower strictly exceeds the staging threat; empty commit when
    that is unreachable."""
    pool = commit_pool(state)
    gandalfs: list[CardInstance] = []
    spirits: list[CardInstance] = []
    reach = 0
    for c in pool:
        if c.defn.id == GANDALF_ID:
            gandalfs.append(c)
        elif c.defn.sphere is SPIRIT:
            spirits.append(c)
        else:
            continue
        reach += c.willpower
    threshold = state.staging_threat()
    if reach <= threshold:
        return _NO_COMMIT
    spirits.sort(key=lambda c: (-c.willpower, c.instance_id))
    chosen: list[int] = []
    total = 0
    for c in gandalfs + spirits:
        chosen.append(c.instance_id)
        total += c.willpower
        if total > threshold:
            break
    chosen.sort()
    return Commit._canonical(tuple(chosen))


def _expert_defend(state: GameState) -> Action:
    """Defend the hardest-hitting enemies first, spending ready allies by
    ascending cost before heroes by descending defense; leftover enemies go
    undefended."""
    engaged = state.engaged_enemies()
    if not engaged:
        return _NO_DEFENSE
    queue = defender_order(state)
    ranked = sorted(engaged, key=lambda e: (-e.attack, e.instance_id))
    ideal = {e.instance_id: c.instance_id for e, c in zip(ranked, queue)}
    # engaged_enemies is in id order, the canonical order of assignments.
    return Defend._canonical(tuple([(e.instance_id, ideal.get(e.instance_id))
                                    for e in engaged]))


def expert_decide(state: GameState) -> Action:
    """Deterministic rule agent. Its action passes the stage's check and
    is a member of the legal family whenever no cap fired; the family caps
    bound the search's choices only, not the expert's."""
    stage = state.stage
    if stage is PLANNING:
        return _expert_planning(state)
    if stage is COMMIT_CHARACTERS:
        return _expert_commit(state)
    if stage is DECLARE_DEFENDERS:
        return _expert_defend(state)
    if stage is TRAVEL:
        return default_travel(state)
    if stage is DECLARE_ATTACKERS:
        return default_attack(state)
    raise StageError(f"'{stage.value}' is not a decision stage")


# ---- policies ---------------------------------------------------------------
#
# Each adapter calls its rule by the rule's module-level name when it runs,
# so a wrapper later put on that name (a profiling span, say) sees every
# call from a game or a playout.


def _decide_random(state: GameState, legals: list[Action], rng: Random) -> Action:
    return random_decide(state, legals, rng)


def _decide_expert(state: GameState, legals: None, rng: Random) -> Action:
    return expert_decide(state)


RANDOM_POLICY = Policy(_decide_random, needs_legals=True)
EXPERT_POLICY = Policy(_decide_expert, needs_legals=False)


# ---- agent descriptions -----------------------------------------------------


# The agents a playout can play at every configurable stage, by kind name.
PLAYOUT_KINDS = ("random", "expert")

# SearchConfig's default exploration constant, and the only one a flat
# agent may carry: a flat agent string has no C field to print it in.
DEFAULT_EXPLORATION_C = 0.7


@dataclass(frozen=True)
class SearchConfig:
    """Settings of one flat or mcts agent, exactly those its string prints,
    checked and defaulted here; exploration_c is read by MCTS only. A
    playout counter is a decider argument, not a setting."""

    playout_budget: int
    exploration_c: float = DEFAULT_EXPLORATION_C
    playout_policy: str = "random"

    def __post_init__(self):
        if self.playout_budget < 1:
            raise ConfigError(f"playout budget must be >= 1, "
                              f"got {self.playout_budget}")
        if not 0.0 <= self.exploration_c <= 1.0:
            raise ConfigError(f"exploration constant must lie in [0, 1], "
                              f"got {self.exploration_c}")
        if self.playout_policy not in PLAYOUT_KINDS:
            kinds = " or ".join(map(repr, PLAYOUT_KINDS))
            raise ConfigError(f"playout policy must be {kinds}, "
                              f"got {self.playout_policy!r}")


# Agent kinds in strength order; an agent's numeric label is its place here.
_SEARCH_KINDS = ("flat", "mcts")
AGENT_KINDS = PLAYOUT_KINDS + _SEARCH_KINDS


@dataclass(frozen=True)
class AgentKind:
    """Parsed agent description: random, expert, flat:<budget>:<playout> or
    mcts:<budget>:<C>:<playout>. search holds the settings of the two
    search kinds and is None for the others."""

    kind: str
    search: SearchConfig | None = None

    def __post_init__(self):
        if self.kind not in AGENT_KINDS:
            raise ConfigError(f"unknown agent kind '{self.kind}'")
        if (self.search is None) == (self.kind in _SEARCH_KINDS):
            need = "needs" if self.search is None else "takes no"
            raise ConfigError(f"agent '{self.kind}' {need} search settings")
        if (self.kind == "flat"
                and self.search.exploration_c != DEFAULT_EXPLORATION_C):
            raise ConfigError(f"agent 'flat' takes no exploration constant, "
                              f"got {self.search.exploration_c}")

    @property
    def is_search(self) -> bool:
        return self.search is not None

    @property
    def number(self) -> int:
        """Compact numeric label: 1 random, 2 expert, 3 flat, 4 mcts."""
        return AGENT_KINDS.index(self.kind) + 1

    def with_budget(self, budget: int) -> "AgentKind":
        return (self if self.search is None else
                replace(self, search=replace(self.search, playout_budget=budget)))

    def __str__(self) -> str:
        s = self.search
        if s is None:
            return self.kind
        c = f":{s.exploration_c}" if self.kind == "mcts" else ""
        return f"{self.kind}:{s.playout_budget}{c}:{s.playout_policy}"


RANDOM_AGENT = AgentKind("random")


def parse_agent(token: str) -> AgentKind:
    """Parse a compact agent string; raises ConfigError naming the token."""
    head, *params = token.strip().split(":")
    try:
        if head not in _SEARCH_KINDS:
            kind = AgentKind(head)
            if params:
                raise ConfigError(f"agent '{head}' takes no parameters")
            return kind
        if head == "flat":
            if len(params) != 2:
                raise ConfigError("expected flat:<budget>:<playout>")
            budget, playout = params
            return AgentKind(head, SearchConfig(int(budget),
                                                playout_policy=playout))
        if len(params) != 3:
            raise ConfigError("expected mcts:<budget>:<C>:<playout>")
        budget, c, playout = params
        return AgentKind(head, SearchConfig(int(budget), float(c), playout))
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad agent string '{token}': {exc}") from exc


# The --agents and grid stage names, each with the decision stage it sets.
STAGE_KEYS = {"planning": PLANNING,
              "commit": COMMIT_CHARACTERS,
              "defense": DECLARE_DEFENDERS,
              "attack": DECLARE_ATTACKERS}
# The stages every map assigns; attack is optional and mcts-only.
REQUIRED_STAGES = ("planning", "commit", "defense")


@dataclass(frozen=True)
class StagePolicyMap:
    """Agent assignment for the three configurable decision stages; Travel
    always plays the expert's rule, and DeclareAttackers does too unless
    overridden with an mcts agent. Its str() is the --agents
    syntax, which parse_policy_map reads back."""

    planning: AgentKind
    commit: AgentKind
    defense: AgentKind
    attack: AgentKind | None = None

    def __post_init__(self):
        if self.attack is not None and self.attack.kind != "mcts":
            raise ConfigError("the attack stage can only be overridden with "
                              f"an mcts agent, got '{self.attack}'")

    def agents(self) -> dict[str, AgentKind]:
        """The assigned stages by STAGE_KEYS name, in STAGE_KEYS order."""
        return {stage: kind for stage in STAGE_KEYS
                if (kind := getattr(self, stage)) is not None}

    def with_budget(self, budget: int) -> "StagePolicyMap":
        return replace(self, **{stage: kind.with_budget(budget)
                                for stage, kind in self.agents().items()})

    def has_search_agent(self) -> bool:
        return any(kind.is_search for kind in self.agents().values())

    def triple_label(self) -> str:
        """Numeric planning-commit-defense label, e.g. '4-2-4'."""
        return "-".join(str(getattr(self, stage).number)
                        for stage in REQUIRED_STAGES)

    def __str__(self) -> str:
        return ",".join(f"{stage}={kind}" for stage, kind in self.agents().items())


def _parse_stage_lists(text: str, sep: str) -> dict[str, list[AgentKind]]:
    """Read 'stage=agent[,agent...]' blocks separated by sep into a dict of
    agent lists, in the order given; empty blocks are skipped."""
    lists: dict[str, list[AgentKind]] = {}
    for block in text.split(sep):
        block = block.strip()
        if not block:
            continue
        if "=" not in block:
            raise ConfigError(f"bad agent assignment '{block}', "
                              f"expected stage=agent")
        stage, _, agents = block.partition("=")
        stage = stage.strip()
        if stage not in STAGE_KEYS:
            raise ConfigError(f"unknown stage '{stage}', expected one of "
                              f"{sorted(STAGE_KEYS)}")
        if stage in lists:
            raise ConfigError(f"stage '{stage}' assigned twice")
        lists[stage] = [parse_agent(token) for token in agents.split(",")]
    return lists


def parse_policy_map(text: str) -> StagePolicyMap:
    """Parse 'planning=A,commit=B,defense=C[,attack=D]' agent assignments."""
    fields = {stage: agents[0]
              for stage, agents in _parse_stage_lists(text, ",").items()}
    for stage in REQUIRED_STAGES:
        if stage not in fields:
            raise ConfigError(f"missing agent for stage '{stage}' in '{text}'")
    return StagePolicyMap(**fields)


def parse_stage_choices(text: str) -> dict[str, list[AgentKind]]:
    """Parse grid choices 'stage=A,B;stage=C,...' into agent lists."""
    return _parse_stage_lists(text, ";")
