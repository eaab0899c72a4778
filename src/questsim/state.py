"""Game state: stages, zones, card instances, actions and snapshots.

A round is a fixed pipeline of 13 stages grouped into 7 phases. Six stages
are ruled (pure rule application), two are random (they consume the injected
RNG) and five are decision stages where an agent picks an Action;
docs/round.md describes each stage. The engine in engine.py advances this
state; nothing here touches an RNG.

GameState.clone() is the deep snapshot used for playouts: the clone shares
only immutable objects (CardDef, Scenario) with the original.

Each fact is stored once. A deck is its zone's list in the zone index, in
draw order, and cards are drawn from the top (the end of the list); the
number of finished quests is the length of the completed-quests list; a
card's item buffs are its effective stats minus its printed ones.

Each member of StageKind, StageId, Zone and Outcome (and of CardKind and
Sphere in cards.py) is also bound to a module-level name beside its enum,
and no function in state, engine, agents or search reads a member as an
enum class attribute (tests/test_hygiene.py checks this). On CPython 3.11
EnumType defines __getattr__, which takes every read such as
Zone.PLAY_AREA off the interpreter's fast path: about 100 ns a read,
against under 10 ns for a module global (timeit, CPython 3.11.7). A medium
game of MCTS with expert playouts made about 90,000 such reads. cProfile
does not show them, because no Python function runs: the member is found
in the class dict by the slow path. Cold code (the card loader, cli,
experiments, tests) may keep Zone.PLAY_AREA.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .cards import CHARACTER_KINDS, ENEMY, HERO, CardDef, Scenario


class StageKind(Enum):
    RULED = "ruled"
    RANDOM = "random"
    DECISION = "decision"


RULED, RANDOM, DECISION = StageKind


class StageId(Enum):
    """One stage of the round, declared in pipeline order as
    (value, kind, phase). Each member carries .kind, .phase and .next (the
    stage that follows it; REFRESH wraps back to GAIN_RESOURCES_AND_DRAW
    with a new round). .value is the wire name used in fingerprints, trace
    lines and error messages."""

    kind: StageKind
    phase: str
    next: StageId

    __hash__ = object.__hash__  # members are singletons; Enum's hash runs in Python

    GAIN_RESOURCES_AND_DRAW = ("gain-resources", StageKind.RULED, "resource")
    PLANNING = ("planning", StageKind.DECISION, "planning")
    COMMIT_CHARACTERS = ("commit", StageKind.DECISION, "quest")
    STAGING = ("staging", StageKind.RANDOM, "quest")
    QUEST_RESOLUTION = ("quest-resolution", StageKind.RULED, "quest")
    TRAVEL = ("travel", StageKind.DECISION, "travel")
    ENGAGEMENT_CHECKS = ("engagement", StageKind.RULED, "encounter")
    DEAL_SHADOW_CARDS = ("deal-shadows", StageKind.RANDOM, "combat")
    DECLARE_DEFENDERS = ("declare-defenders", StageKind.DECISION, "combat")
    RESOLVE_ENEMY_ATTACKS = ("enemy-attacks", StageKind.RULED, "combat")
    DECLARE_ATTACKERS = ("declare-attackers", StageKind.DECISION, "combat")
    RESOLVE_PLAYER_ATTACKS = ("player-attacks", StageKind.RULED, "combat")
    REFRESH = ("refresh", StageKind.RULED, "refresh")

    def __new__(cls, value: str, kind: StageKind, phase: str) -> StageId:
        member = object.__new__(cls)
        member._value_ = value
        member.kind = kind
        member.phase = phase
        return member


STAGE_ORDER: tuple[StageId, ...] = tuple(StageId)
for stage, successor in zip(STAGE_ORDER, STAGE_ORDER[1:] + STAGE_ORDER[:1]):
    stage.next = successor
del stage, successor

(GAIN_RESOURCES_AND_DRAW, PLANNING, COMMIT_CHARACTERS, STAGING, QUEST_RESOLUTION,
 TRAVEL, ENGAGEMENT_CHECKS, DEAL_SHADOW_CARDS, DECLARE_DEFENDERS,
 RESOLVE_ENEMY_ATTACKS, DECLARE_ATTACKERS, RESOLVE_PLAYER_ATTACKS,
 REFRESH) = STAGE_ORDER


class Zone(Enum):
    """Each member's .slot names its list in GameState.zone_ids (a plain int:
    keying a dict by the member would run Enum.__hash__ in Python), and
    .put(ids, iid) adds a card's id to that list: on top of a deck (the
    end of its list), in id order anywhere else."""

    slot: int
    put: Callable[[list[int], int], None]

    PLAYER_DECK = "player_deck"
    HAND = "hand"
    PLAY_AREA = "play_area"
    STAGING_AREA = "staging_area"
    ENCOUNTER_DECK = "encounter_deck"
    ENGAGEMENT_AREA = "engagement_area"
    ACTIVE_LOCATION = "active_location"
    PLAYER_DISCARD = "player_discard"
    ENCOUNTER_DISCARD = "encounter_discard"
    COMPLETED_QUESTS = "completed_quests"


for slot, zone in enumerate(Zone):
    zone.slot = slot
    zone.put = insort
del slot, zone

(PLAYER_DECK, HAND, PLAY_AREA, STAGING_AREA, ENCOUNTER_DECK, ENGAGEMENT_AREA,
 ACTIVE_LOCATION, PLAYER_DISCARD, ENCOUNTER_DISCARD, COMPLETED_QUESTS) = Zone
PLAYER_DECK.put = ENCOUNTER_DECK.put = list.append


class Outcome(Enum):
    WIN = "win"
    LOSS_THREAT = "loss-threat"
    LOSS_HEROES_DEAD = "loss-heroes-dead"
    LOSS_DECK_EMPTY = "loss-deck-empty"


WIN, LOSS_THREAT, LOSS_HEROES_DEAD, LOSS_DECK_EMPTY = Outcome


class CardInstance:
    """Mutable in-game state of one physical card.

    willpower/attack/defense/hit_points are the effective stats (printed
    stats plus item buffs), kept as plain attributes because search playouts
    read them millions of times; buffs derives the item bonuses from them.
    Shadow cards dealt to an engaged enemy keep zone ENGAGEMENT_AREA and
    point back at their enemy through attached_to; that mark excludes them
    from "engaged enemy" queries.
    """

    __slots__ = ("instance_id", "defn", "zone", "damage", "progress", "exhausted",
                 "resource_pool", "committed", "shadow_card", "attached_to",
                 "willpower", "attack", "defense", "hit_points")

    def __init__(self, instance_id: int, defn: CardDef, zone: Zone):
        self.instance_id = instance_id
        self.defn = defn
        self.zone = zone
        self.reset_in_game_state()

    def copy(self) -> "CardInstance":
        c = CardInstance.__new__(CardInstance)
        c.instance_id = self.instance_id
        c.defn = self.defn
        c.zone = self.zone
        c.damage = self.damage
        c.progress = self.progress
        c.exhausted = self.exhausted
        c.resource_pool = self.resource_pool
        c.committed = self.committed
        c.shadow_card = self.shadow_card
        c.attached_to = self.attached_to
        c.willpower = self.willpower
        c.attack = self.attack
        c.defense = self.defense
        c.hit_points = self.hit_points
        return c

    @property
    def remaining_hp(self) -> int:
        return self.hit_points - self.damage

    @property
    def buffs(self) -> tuple[int, int, int, int] | None:
        """Item bonuses as (willpower, attack, defense, hit_points): the
        effective stats minus the printed ones, or None when there are none."""
        d = self.defn
        b = (self.willpower - d.willpower, self.attack - d.attack,
             self.defense - d.defense, self.hit_points - d.hit_points)
        return b if any(b) else None

    def add_buff(self, stat: str) -> None:
        setattr(self, stat, getattr(self, stat) + 1)

    def reset_in_game_state(self) -> None:
        """Clear transient state, e.g. when a card is shuffled back into a deck."""
        self.damage = 0
        self.progress = 0
        self.exhausted = False
        self.resource_pool = 0
        self.committed = False
        self.shadow_card: int | None = None
        self.attached_to: int | None = None
        self.willpower = self.defn.willpower
        self.attack = self.defn.attack
        self.defense = self.defn.defense
        self.hit_points = self.defn.hit_points

    def __repr__(self) -> str:
        return f"<{self.defn.id}#{self.instance_id} {self.zone.value}>"


class GameState:
    """Full snapshot of one game.

    cards is indexed by instance_id and never grows or shrinks after setup.
    defense_map / attack_map carry combat declarations from the declaration
    stage to the matching resolution stage within a round.

    zone_ids is the zone index: zone_ids[zone.slot] lists the ids of the
    cards in that zone, so zone queries need not scan all cards. A deck's
    list is the deck itself, in draw order with the top card last, and
    player_deck / encounter_deck read those two lists; every other zone
    lists its ids in ascending order. Only add() and move() change zones
    or a deck's cards, and both keep the index in step; the one other
    write is an in-place shuffle of a deck. clone() copies the index, and
    check_invariants audits it. quest_index (the number of finished
    quests) is the length of the completed-quests list.
    """

    __slots__ = ("round_no", "stage", "threat_level", "quest_progress", "cards",
                 "scenario", "difficulty", "outcome", "quest_ids", "defense_map",
                 "attack_map", "zone_ids")

    def __init__(self, scenario: Scenario, difficulty: str):
        self.round_no = 1
        self.stage = GAIN_RESOURCES_AND_DRAW
        self.threat_level = 0
        self.quest_progress = 0
        self.cards: list[CardInstance] = []
        self.scenario = scenario
        self.difficulty = difficulty
        self.outcome: Outcome | None = None
        self.quest_ids: tuple[int, int, int] = (0, 0, 0)
        self.defense_map: dict[int, int] = {}
        self.attack_map: dict[int, tuple[int, ...]] = {}
        self.zone_ids: list[list[int]] = [[] for _ in Zone]

    def clone(self) -> "GameState":
        s = GameState.__new__(GameState)
        s.round_no = self.round_no
        s.stage = self.stage
        s.threat_level = self.threat_level
        s.quest_progress = self.quest_progress
        s.cards = [c.copy() for c in self.cards]
        s.scenario = self.scenario
        s.difficulty = self.difficulty
        s.outcome = self.outcome
        s.quest_ids = self.quest_ids
        s.defense_map = dict(self.defense_map)
        s.attack_map = dict(self.attack_map)
        s.zone_ids = [ids[:] for ids in self.zone_ids]
        return s

    # ---- the only ways to create a card or change its zone ----

    def add(self, defn: CardDef, zone: Zone) -> CardInstance:
        """Create the next card instance in this game, lying in zone (on
        top, if zone is a deck)."""
        card = CardInstance(len(self.cards), defn, zone)
        self.cards.append(card)
        self.zone_ids[zone.slot].append(card.instance_id)  # the largest id yet
        return card

    def move(self, card: CardInstance, zone: Zone) -> None:
        """Put card in zone: on top of a deck, so that it is drawn next, or
        in id order in any other zone. Drawing is moving the top card out."""
        self.zone_ids[card.zone.slot].remove(card.instance_id)
        zone.put(self.zone_ids[zone.slot], card.instance_id)
        card.zone = zone

    # ---- zone and role queries (in instance-id order; decks in draw order) ----

    @property
    def player_deck(self) -> list[int]:
        """The player deck's ids in draw order, top card last."""
        return self.zone_ids[PLAYER_DECK.slot]

    @property
    def encounter_deck(self) -> list[int]:
        """The encounter deck's ids in draw order, top card last."""
        return self.zone_ids[ENCOUNTER_DECK.slot]

    @property
    def quest_index(self) -> int:
        """Quests finished so far (3 once the game is won)."""
        return len(self.zone_ids[COMPLETED_QUESTS.slot])

    def in_zone(self, zone: Zone) -> list[CardInstance]:
        return list(map(self.cards.__getitem__, self.zone_ids[zone.slot]))

    def hand(self) -> list[CardInstance]:
        return list(map(self.cards.__getitem__, self.zone_ids[HAND.slot]))

    def heroes(self) -> list[CardInstance]:
        """Surviving heroes (in play)."""
        return [c for c in map(self.cards.__getitem__, self.zone_ids[PLAY_AREA.slot])
                if c.defn.kind is HERO]

    def ready_characters(self) -> list[CardInstance]:
        return [c for c in map(self.cards.__getitem__, self.zone_ids[PLAY_AREA.slot])
                if not c.exhausted and c.defn.kind in CHARACTER_KINDS]

    def committed_characters(self) -> list[CardInstance]:
        # Only characters in play commit, and leaving play clears the mark.
        return [c for c in map(self.cards.__getitem__, self.zone_ids[PLAY_AREA.slot])
                if c.committed]

    def engaged_enemies(self) -> list[CardInstance]:
        # Shadow cards also sit in ENGAGEMENT_AREA but carry the attached_to
        # mark of their enemy.
        return [c for c in map(self.cards.__getitem__,
                               self.zone_ids[ENGAGEMENT_AREA.slot])
                if c.attached_to is None and c.defn.kind is ENEMY]

    def staging_threat(self) -> int:
        cards = self.cards
        return sum([cards[i].defn.threat for i in self.zone_ids[STAGING_AREA.slot]])

    def active_location(self) -> CardInstance | None:
        ids = self.zone_ids[ACTIVE_LOCATION.slot]
        return self.cards[ids[0]] if ids else None

    def current_quest(self) -> CardInstance:
        return self.cards[self.quest_ids[self.quest_index]]

    @property
    def threat_limit(self) -> int:
        return self.scenario.threat_limit

    def fingerprint(self) -> tuple:
        """Hashable deep identity of the state, for determinism checks."""
        return (
            self.round_no, self.stage, self.threat_level, self.quest_index,
            self.quest_progress, self.outcome, self.difficulty,
            tuple(self.player_deck), tuple(self.encounter_deck),
            tuple(sorted(self.defense_map.items())),
            tuple(sorted(self.attack_map.items())),
            tuple((c.defn.id, c.zone, c.damage, c.progress, c.exhausted,
                   c.resource_pool, c.committed, c.shadow_card, c.attached_to, c.buffs)
                  for c in self.cards),
        )

    def __repr__(self) -> str:
        return (f"<GameState r{self.round_no} {self.stage.value} "
                f"threat={self.threat_level} quest={self.quest_index + 1}"
                f"+{self.quest_progress} outcome={self.outcome}>")


# ---- actions ----------------------------------------------------------------
#
# Actions are immutable, hashable and canonically ordered so that equal
# decisions compare equal regardless of how they were built.
#
# The public constructor sorts its field into canonical order. _canonical
# stores the field as given, at a third to a half of that cost (timeit,
# CPython 3.11.7: 0.35 against 0.8 us for PlayCards, 1.2 us for Defend).
# Only the expert and fixed rules in agents.py call it: they run at every
# decision of an expert playout and build their fields in canonical order
# already. Against the same rules built through the public constructors it
# lowers the expert-batch benchmark's median decision time by a fifth
# (BENCH_11.json). Every other caller uses the public constructor, which also
# accepts fields in any order. tests/test_contracts.py checks that each
# action the rules build equals, field for field, the one the public
# constructor makes from its field.


class _Action:
    """Base of the action types whose constructor sorts their one field."""

    __slots__ = ()

    @classmethod
    def _canonical(cls, field):
        """The action whose one field is `field`, already in canonical
        order: skips __post_init__ and the sort in it."""
        action = object.__new__(cls)
        action.__dict__[cls.__match_args__[0]] = field
        return action


@dataclass(frozen=True)
class PlayCards(_Action):
    """Planning: buy this set of hand cards (may be empty)."""
    cards: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cards", tuple(sorted(self.cards)))


@dataclass(frozen=True)
class Commit(_Action):
    """Commit these characters to the quest (may be empty)."""
    characters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "characters", tuple(sorted(self.characters)))


@dataclass(frozen=True)
class TravelTo:
    """Travel to a staging-area location, or nowhere."""
    location: int | None = None


@dataclass(frozen=True)
class Defend(_Action):
    """Assign at most one ready defender per engaged enemy.

    assignments lists every engaged enemy exactly once as
    (enemy_id, defender_id or None), sorted by enemy id.
    """
    assignments: tuple[tuple[int, int | None], ...] = ()

    def __post_init__(self):
        # None sorts before any defender id, so a repeated enemy is left for
        # apply_action to reject instead of failing to compare here.
        object.__setattr__(self, "assignments", tuple(sorted(
            self.assignments, key=lambda a: (a[0], a[1] is not None, a[1] or 0))))


@dataclass(frozen=True)
class Attack(_Action):
    """Partition attacking characters over engaged enemies.

    assignments lists only enemies that are attacked, as
    (enemy_id, sorted attacker ids), sorted by enemy id.
    """
    assignments: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        norm = tuple(sorted((e, tuple(sorted(group))) for e, group in self.assignments))
        object.__setattr__(self, "assignments", norm)


Action = PlayCards | Commit | TravelTo | Defend | Attack


def describe_action(action: Action, state: GameState) -> str:
    """Compact human-readable action text for trace logs, naming each card
    as <id>#<instance> so that two copies of one card stay apart."""
    def name(iid: int) -> str:
        return f"{state.cards[iid].defn.id}#{iid}"

    if isinstance(action, PlayCards):
        return "play=[" + ",".join(name(i) for i in action.cards) + "]"
    if isinstance(action, Commit):
        return "commit=[" + ",".join(name(i) for i in action.characters) + "]"
    if isinstance(action, TravelTo):
        return f"travel={name(action.location) if action.location is not None else 'none'}"
    if isinstance(action, Defend):
        parts = [f"{name(e)}<-{name(d) if d is not None else 'none'}"
                 for e, d in action.assignments]
        return "defend=[" + ",".join(parts) + "]"
    if isinstance(action, Attack):
        parts = [f"{name(e)}<-{'+'.join(name(a) for a in group)}"
                 for e, group in action.assignments]
        return "attack=[" + ",".join(parts) + "]"
    raise TypeError(f"not an action: {action!r}")
