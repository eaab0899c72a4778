"""Decision policies: uniform random, the expert rule agent, and the fixed
default rules for Travel and DeclareAttackers that every agent shares.

Policies expose decide(state, legals, rng) -> Action. A policy whose
needs_legals attribute is False constructs its action analytically and is
handed legals=None by the driver; such policies still guarantee membership
in the enumerated legal family (they build on the engine's family helpers
and cap predicates instead of enumerating).

AgentKind is one parsed agent string (docs/agents.md), its search settings
in a SearchConfig for the flat and mcts kinds. STAGE_KEYS names the stages
an agent can be given; the str() of a StagePolicyMap is the --agents syntax
that parse_policy_map reads back. search.py builds the policy objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random
from typing import Callable

from .cards import NEUTRAL, SPIRIT, Sphere
from .engine import (
    MAX_COMMIT_ENUM,
    _planning_bounds,
    _planning_enumerate,
    commit_pool,
    commit_prefixes,
    defend_overflows,
    defender_order,
    fits,
    travel_actions,
)
from .errors import ConfigError, StageError
from .state import (
    COMMIT_CHARACTERS,
    DECLARE_ATTACKERS,
    DECLARE_DEFENDERS,
    PLANNING,
    TRAVEL,
    Action,
    Attack,
    Commit,
    Defend,
    GameState,
    PlayCards,
)

# The expert's standout purchase; a card set without it simply never
# triggers the rule.
GANDALF_ID = "gandalf"


# ---- random agent -----------------------------------------------------------


def random_decide(state: GameState, legals: list[Action], rng: Random) -> Action:
    """Uniform choice over the enumerated legal actions."""
    return legals[rng.randrange(len(legals))]


class RandomPolicy:
    needs_legals = True

    def decide(self, state: GameState, legals: list[Action],
               rng: Random) -> Action:
        return random_decide(state, legals, rng)


# ---- fixed default rules ----------------------------------------------------


def default_travel(state: GameState) -> Action:
    """Travel to the staging location with the highest threat (ties by id);
    stay put when a location is already active or none are staged. This is
    the head of the travel family."""
    return travel_actions(state)[0]


def default_attack(state: GameState) -> Action:
    """All ready characters attack the engaged enemy with the fewest
    remaining hit points (ties by id); empty when nothing to do."""
    enemies = state.engaged_enemies()
    ready = state.ready_characters() if enemies else []
    if not ready:
        return Attack(())
    target = min(enemies, key=lambda e: (e.remaining_hp, e.instance_id))
    return Attack(((target.instance_id, tuple(c.instance_id for c in ready)),))


class FixedTravelPolicy:
    needs_legals = False

    def decide(self, state: GameState, legals, rng: Random) -> Action:
        return default_travel(state)


class FixedAttackPolicy:
    needs_legals = False

    def decide(self, state: GameState, legals, rng: Random) -> Action:
        return default_attack(state)


# ---- expert agent -----------------------------------------------------------


def _expert_planning(state: GameState) -> Action:
    """Greedy purchase loop: Gandalf whenever affordable, then affordable
    Spirit cards by descending willpower, then the cheapest affordable card;
    ties by card id, repeated until nothing else is affordable. The hero
    pools, the cards payable on their own and the cap answer come from one
    engine._planning_bounds call."""
    capped, singles, pools, total_pool = _planning_bounds(state)
    demand: dict[Sphere, int] = {}
    spent = 0
    chosen: list[int] = []
    # The buy only grows, so a card that does not fit now never fits again:
    # each pick re-filters the cards that were still affordable before it,
    # starting from the cards payable on their own.
    afford = singles
    while afford:
        gandalfs = [c for c in afford if c.defn.id == GANDALF_ID]
        if gandalfs:
            pick = gandalfs[0]
        else:
            spirit = [c for c in afford if c.defn.sphere is SPIRIT]
            if spirit:
                pick = min(spirit, key=lambda c: (-c.defn.willpower, c.defn.id,
                                                  c.instance_id))
            else:
                pick = min(afford, key=lambda c: (c.defn.cost, c.defn.id,
                                                  c.instance_id))
        chosen.append(pick.instance_id)
        spent += pick.defn.cost
        if pick.defn.sphere is not NEUTRAL:
            demand[pick.defn.sphere] = (demand.get(pick.defn.sphere, 0)
                                        + pick.defn.cost)
        afford = [c for c in afford if c is not pick
                  and fits(c.defn, pools, total_pool, demand, spent)]

    if len(chosen) >= 2:
        if capped is None:
            capped = _planning_enumerate(singles, pools, total_pool) is None
        if capped:
            # Capped family carries only singletons. Each chosen card fitted
            # on top of the cards picked before it, so it is payable on its
            # own: keep the first one in hand (instance-id) order.
            return PlayCards((min(chosen),))
    return PlayCards(tuple(chosen))


def _expert_commit(state: GameState) -> Action:
    """Commit Gandalf then Spirit characters by descending willpower until
    total willpower strictly exceeds the staging threat; empty commit when
    that is unreachable."""
    threshold = state.staging_threat()
    pool = commit_pool(state)
    preferred = ([c for c in pool if c.defn.id == GANDALF_ID]
                 + sorted((c for c in pool
                           if c.defn.sphere is SPIRIT
                           and c.defn.id != GANDALF_ID),
                          key=lambda c: (-c.willpower, c.instance_id)))
    chosen: list[int] = []
    total = 0
    for c in preferred:
        chosen.append(c.instance_id)
        total += c.willpower
        if total > threshold:
            break
    if total <= threshold:
        return Commit(())

    if len(pool) > MAX_COMMIT_ENUM:
        # Capped family carries only the qualifying prefixes: take the
        # longest one inside the ideal set, else the shortest. The whole
        # pool beats the threshold, so there is at least one.
        prefixes = commit_prefixes(pool, threshold)
        ideal = set(chosen)
        inside = [p for p in prefixes if ideal.issuperset(p)]
        return Commit(inside[-1] if inside else prefixes[0])
    return Commit(tuple(chosen))


def _expert_defend(state: GameState) -> Action:
    """Defend the hardest-hitting enemies first, spending ready allies by
    ascending cost before heroes by descending defense; leftover enemies go
    undefended."""
    engaged = state.engaged_enemies()
    if not engaged:
        return Defend(())
    enemies = sorted(engaged, key=lambda e: (-e.attack, e.instance_id))
    queue = defender_order(state)
    ideal: dict[int, int | None] = {}
    for i, enemy in enumerate(enemies):
        ideal[enemy.instance_id] = (queue[i].instance_id
                                    if i < len(queue) else None)

    if defend_overflows(len(enemies), len(queue)):
        # Capped family: all-undefended plus single-defender assignments,
        # enemies outer / characters inner, so keep the first ideal pair.
        engaged_ids = sorted(ideal)
        for eid in engaged_ids:
            did = ideal[eid]
            if did is not None:
                return Defend(tuple((e, did if e == eid else None)
                                    for e in engaged_ids))
        return Defend(tuple((e, None) for e in engaged_ids))
    return Defend(tuple(ideal.items()))


def expert_decide(state: GameState) -> Action:
    """Deterministic rule agent; its construction stays inside the
    enumerated legal family, caps included."""
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


class ExpertPolicy:
    needs_legals = False

    def decide(self, state: GameState, legals, rng: Random) -> Action:
        return expert_decide(state)


# ---- agent descriptions -----------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Settings of one flat or mcts agent, the one place where they are
    checked and defaulted; exploration_c is read by MCTS only."""

    playout_budget: int
    exploration_c: float = 0.7
    playout_policy: str = "random"
    # Debug and test knobs: debug audits the tree after every iteration and
    # checks every playout action (playouts otherwise trust their policies);
    # on_playout counts playouts.
    debug: bool = False
    on_playout: Callable[[], None] | None = None

    def __post_init__(self):
        if self.playout_budget < 1:
            raise ConfigError(f"playout budget must be >= 1, "
                              f"got {self.playout_budget}")
        if not 0.0 <= self.exploration_c <= 1.0:
            raise ConfigError(f"exploration constant must lie in [0, 1], "
                              f"got {self.exploration_c}")
        if self.playout_policy not in ("random", "expert"):
            raise ConfigError(f"playout policy must be 'random' or 'expert', "
                              f"got {self.playout_policy!r}")


# Agent kinds in strength order; an agent's numeric label is its place here.
AGENT_KINDS = ("random", "expert", "flat", "mcts")
_SEARCH_KINDS = ("flat", "mcts")


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
EXPERT_AGENT = AgentKind("expert")


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
    always uses the fixed rule and DeclareAttackers uses the fixed rule
    unless overridden with an mcts agent. Its str() is the --agents
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
