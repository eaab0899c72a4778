"""Decision policies: uniform random, the expert rule agent, and the fixed
default rules for Travel and DeclareAttackers that every agent shares.

Policies expose decide(state, legals, rng) -> Action. A policy whose
needs_legals attribute is False constructs its action analytically and is
handed legals=None by the driver; such policies still guarantee membership
in the enumerated legal family (they build on the engine's family helpers
and cap predicates instead of enumerating).

AgentKind is the parsed description of an agent (used by the CLI and the
experiment harness); the search-backed kinds are instantiated in search.py.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random
from typing import Protocol

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


class DecisionPolicy(Protocol):
    needs_legals: bool

    def decide(self, state: GameState, legals: list[Action] | None,
               rng: Random) -> Action: ...


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
class AgentKind:
    """Parsed agent description: random, expert, flat:<budget>:<playout> or
    mcts:<budget>:<C>:<playout>."""

    kind: str  # "random" | "expert" | "flat" | "mcts"
    budget: int | None = None
    exploration_c: float | None = None
    playout: str | None = None

    def __post_init__(self):
        if self.kind not in ("random", "expert", "flat", "mcts"):
            raise ConfigError(f"unknown agent kind '{self.kind}'")
        if self.kind in ("flat", "mcts"):
            if self.budget is None or self.budget < 1:
                raise ConfigError(f"agent '{self.kind}': budget must be >= 1, "
                                  f"got {self.budget}")
            if self.playout not in ("random", "expert"):
                raise ConfigError(f"agent '{self.kind}': playout must be "
                                  f"'random' or 'expert', got {self.playout!r}")
        if self.kind == "mcts":
            if self.exploration_c is None or not 0.0 <= self.exploration_c <= 1.0:
                raise ConfigError(f"agent 'mcts': exploration constant must lie "
                                  f"in [0, 1], got {self.exploration_c}")

    @property
    def is_search(self) -> bool:
        return self.kind in ("flat", "mcts")

    @property
    def number(self) -> int:
        """Compact numeric label: 1 random, 2 expert, 3 flat, 4 mcts."""
        return ("random", "expert", "flat", "mcts").index(self.kind) + 1

    def with_budget(self, budget: int) -> "AgentKind":
        return replace(self, budget=budget) if self.is_search else self

    def __str__(self) -> str:
        if self.kind == "flat":
            return f"flat:{self.budget}:{self.playout}"
        if self.kind == "mcts":
            return f"mcts:{self.budget}:{self.exploration_c:g}:{self.playout}"
        return self.kind


RANDOM_AGENT = AgentKind("random")
EXPERT_AGENT = AgentKind("expert")


def parse_agent(token: str) -> AgentKind:
    """Parse a compact agent string; raises ConfigError naming the token."""
    parts = token.strip().split(":")
    head = parts[0]
    try:
        if head in ("random", "expert"):
            if len(parts) != 1:
                raise ConfigError(f"agent '{head}' takes no parameters")
            return AgentKind(head)
        if head == "flat":
            if len(parts) != 3:
                raise ConfigError("expected flat:<budget>:<playout>")
            return AgentKind("flat", budget=int(parts[1]), playout=parts[2])
        if head == "mcts":
            if len(parts) != 4:
                raise ConfigError("expected mcts:<budget>:<C>:<playout>")
            return AgentKind("mcts", budget=int(parts[1]),
                             exploration_c=float(parts[2]), playout=parts[3])
        raise ConfigError(f"unknown agent kind '{head}'")
    except ValueError as exc:
        raise ConfigError(f"bad agent string '{token}': {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"bad agent string '{token}': {exc}") from exc


@dataclass(frozen=True)
class StagePolicyMap:
    """Agent assignment for the three configurable decision stages; Travel
    always uses the fixed rule and DeclareAttackers uses the fixed rule
    unless overridden with an mcts agent."""

    planning: AgentKind
    commit: AgentKind
    defense: AgentKind
    attack: AgentKind | None = None

    def __post_init__(self):
        if self.attack is not None and self.attack.kind != "mcts":
            raise ConfigError("the attack stage can only be overridden with "
                              f"an mcts agent, got '{self.attack}'")

    def agents(self) -> dict[str, AgentKind]:
        out = {"planning": self.planning, "commit": self.commit,
               "defense": self.defense}
        if self.attack is not None:
            out["attack"] = self.attack
        return out

    def with_budget(self, budget: int) -> "StagePolicyMap":
        return replace(self, **{stage: kind.with_budget(budget)
                                for stage, kind in self.agents().items()})

    def has_search_agent(self) -> bool:
        return any(kind.is_search for kind in self.agents().values())

    def triple_label(self) -> str:
        """Numeric planning-commit-defense label, e.g. '4-2-4'."""
        return f"{self.planning.number}-{self.commit.number}-{self.defense.number}"

    def __str__(self) -> str:
        return ";".join(f"{stage}={kind}" for stage, kind in self.agents().items())


STAGE_KEYS = {"planning": PLANNING,
              "commit": COMMIT_CHARACTERS,
              "defense": DECLARE_DEFENDERS,
              "attack": DECLARE_ATTACKERS}


def parse_policy_map(text: str) -> StagePolicyMap:
    """Parse 'planning=A,commit=B,defense=C[,attack=D]' agent assignments."""
    fields: dict[str, AgentKind] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad agent assignment '{part}', "
                              f"expected stage=agent")
        stage, _, token = part.partition("=")
        stage = stage.strip()
        if stage not in STAGE_KEYS:
            raise ConfigError(f"unknown stage '{stage}', expected one of "
                              f"{sorted(STAGE_KEYS)}")
        if stage in fields:
            raise ConfigError(f"stage '{stage}' assigned twice")
        fields[stage] = parse_agent(token)
    for stage in ("planning", "commit", "defense"):
        if stage not in fields:
            raise ConfigError(f"missing agent for stage '{stage}' in '{text}'")
    return StagePolicyMap(planning=fields["planning"], commit=fields["commit"],
                          defense=fields["defense"], attack=fields.get("attack"))
