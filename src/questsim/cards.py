"""Card and scenario loading.

Card data is external and data-driven: both the card pool and the scenario
live in JSON files (see docs/card_format.md for the schema and a commented
example of every card kind). Loading is strict -- each card kind has a fixed
set of required stats, and a missing or extraneous stat is a load error that
names the offending card and field. Nothing is defaulted silently.

load_scenario_bundle reads a scenario and its card file (a dict of CardDefs
by id, parse_card_db) and resolves every card id once: a Scenario holds
CardDefs, and each deck holds one per copy.

Loaded objects are immutable and safe to share across worker processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

from .errors import DataError


class CardKind(str, Enum):
    HERO = "hero"
    ALLY = "ally"
    ITEM = "item"
    EVENT_PLAYER = "event-player"
    ENEMY = "enemy"
    LOCATION = "location"
    EVENT_ENCOUNTER = "event-encounter"
    QUEST = "quest"


# Each member is also bound to a module-level name, and the rules engine,
# the agents and the search read members through these names only. On
# CPython 3.11 EnumType defines __getattr__, which takes every read of a
# class attribute such as CardKind.HERO off the interpreter's fast path:
# about 100 ns a read, against under 10 ns for a module global (timeit,
# CPython 3.11.7).
# Cold code (this loader, cli, experiments, tests) may keep CardKind.HERO.
HERO, ALLY, ITEM, EVENT_PLAYER, ENEMY, LOCATION, EVENT_ENCOUNTER, QUEST = CardKind

PLAYER_KINDS = frozenset({CardKind.ALLY, CardKind.ITEM, CardKind.EVENT_PLAYER})
ENCOUNTER_KINDS = frozenset({CardKind.ENEMY, CardKind.LOCATION, CardKind.EVENT_ENCOUNTER})
CHARACTER_KINDS = frozenset({CardKind.HERO, CardKind.ALLY})


class Sphere(str, Enum):
    SPIRIT = "spirit"
    LEADERSHIP = "leadership"
    TACTICS = "tactics"
    LORE = "lore"
    NEUTRAL = "neutral"
    NONE = "none"


# Module-level member names for hot code, as for CardKind above.
SPIRIT, LEADERSHIP, TACTICS, LORE, NEUTRAL, NONE = Sphere

# Stat buffed by an item attachment (+1 when the item enters play).
BUFF_STATS = ("willpower", "attack", "defense", "hit_points")

# Cards in the opening hand; a scenario's player deck holds at least this many.
STARTING_HAND_SIZE = 6

# Instant effects carried by event cards.
PLAYER_EFFECTS = ("reduce_threat",)
ENCOUNTER_EFFECTS = ("raise_threat", "damage_committed")


@dataclass(frozen=True)
class CardDef:
    """Immutable printed statistics of one card.

    Stats that do not apply to the card's kind are zero / none and are never
    read by the engine for that kind.
    """

    id: str
    name: str
    kind: CardKind
    sphere: Sphere = Sphere.NONE
    cost: int = 0
    willpower: int = 0
    attack: int = 0
    defense: int = 0
    hit_points: int = 0
    threat: int = 0
    threat_cost: int = 0
    engagement_cost: int = 0
    quest_points: int = 0
    shadow_attack_bonus: int = 0
    buff: str = ""
    effect: str = ""
    effect_amount: int = 0


# Required stat fields per kind (id, name, kind are always required).
_REQUIRED: dict[CardKind, tuple[str, ...]] = {
    CardKind.HERO: ("sphere", "threat_cost", "willpower", "attack", "defense", "hit_points"),
    CardKind.ALLY: ("sphere", "cost", "willpower", "attack", "defense", "hit_points"),
    CardKind.ITEM: ("sphere", "cost", "buff"),
    CardKind.EVENT_PLAYER: ("sphere", "cost", "effect", "effect_amount"),
    CardKind.ENEMY: ("threat", "engagement_cost", "attack", "defense", "hit_points",
                     "shadow_attack_bonus"),
    CardKind.LOCATION: ("threat", "quest_points", "shadow_attack_bonus"),
    CardKind.EVENT_ENCOUNTER: ("effect", "effect_amount", "shadow_attack_bonus"),
    CardKind.QUEST: ("quest_points",),
}

_INT_FIELDS = frozenset(f.name for f in fields(CardDef) if f.type == "int")

# Lower bounds; everything else just has to be a non-negative int.
_MIN_VALUE = {"hit_points": 1, "threat_cost": 1, "quest_points": 1, "effect_amount": 1}

_PLAYER_SPHERES = frozenset(Sphere) - {Sphere.NONE}


def _card_error(card_id: str, msg: str) -> DataError:
    return DataError(f"card '{card_id}': {msg}")


def _parse_card(entry: dict) -> CardDef:
    if not isinstance(entry, dict):
        raise DataError(f"card entry is not an object: {entry!r}")
    cid = entry.get("id")
    if not isinstance(cid, str) or not cid:
        raise DataError(f"card entry missing string 'id': {entry!r}")
    kind_raw = entry.get("kind")
    try:
        kind = CardKind(kind_raw)
    except ValueError:
        raise _card_error(cid, f"unknown kind {kind_raw!r}") from None
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise _card_error(cid, "missing field 'name'")

    required = _REQUIRED[kind]
    values: dict[str, object] = {"id": cid, "name": name, "kind": kind}
    for key in required:
        if key not in entry:
            raise _card_error(cid, f"{kind.value} card missing field '{key}'")
        value = entry[key]
        if key in _INT_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise _card_error(cid, f"field '{key}' must be an integer, got {value!r}")
            if value < _MIN_VALUE.get(key, 0):
                raise _card_error(cid, f"field '{key}' must be >= {_MIN_VALUE.get(key, 0)}")
            values[key] = value
        elif key == "sphere":
            try:
                sphere = Sphere(value)
            except ValueError:
                raise _card_error(cid, f"unknown sphere {value!r}") from None
            if sphere not in _PLAYER_SPHERES:
                raise _card_error(cid, f"sphere {sphere.value!r} not allowed on a player card")
            values[key] = sphere
        elif key == "buff":
            if value not in BUFF_STATS:
                raise _card_error(cid, f"unknown buff stat {value!r}")
            values[key] = value
        elif key == "effect":
            allowed = PLAYER_EFFECTS if kind is CardKind.EVENT_PLAYER else ENCOUNTER_EFFECTS
            if value not in allowed:
                raise _card_error(cid, f"unknown effect {value!r} for kind {kind.value}")
            values[key] = value

    # Reject stats that do not belong to this kind: almost always a typo.
    allowed_keys = {"id", "name", "kind", *required}
    for key in entry:
        if key.startswith("_"):
            continue  # annotation keys for humans, ignored
        if key not in allowed_keys:
            raise _card_error(cid, f"field '{key}' does not apply to kind {kind.value}")

    return CardDef(**values)  # type: ignore[arg-type]


def parse_card_db(obj: dict) -> dict[str, CardDef]:
    """The validated card definitions of a parsed card file, by card id."""
    if not isinstance(obj, dict) or "cards" not in obj:
        raise DataError("card file must be an object with a 'cards' list")
    entries = obj["cards"]
    if not isinstance(entries, list):
        raise DataError("'cards' must be a list")
    defs: dict[str, CardDef] = {}
    for entry in entries:
        card = _parse_card(entry)
        if card.id in defs:
            raise _card_error(card.id, "duplicate card id")
        defs[card.id] = card
    return defs


def _read_json(path: Path, what: str) -> object:
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed JSON in {path}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """A playable scenario: quest line, heroes, decks and the loss threshold.

    Card ids are resolved once, when the scenario is loaded: every field
    that names cards holds their CardDefs. A deck holds one CardDef per
    copy, sorted by card id; the engine adds them in this order and then
    shuffles.
    """

    name: str
    quest_line: tuple[CardDef, CardDef, CardDef]
    heroes: tuple[CardDef, CardDef, CardDef]
    player_deck: tuple[CardDef, ...]
    encounter_decks: tuple[tuple[str, tuple[CardDef, ...]], ...]
    threat_limit: int

    def difficulties(self) -> list[str]:
        return [name for name, _ in self.encounter_decks]

    def encounter_deck(self, difficulty: str) -> tuple[CardDef, ...]:
        for name, deck in self.encounter_decks:
            if name == difficulty:
                return deck
        raise DataError(f"scenario '{self.name}' has no difficulty '{difficulty}'")


def _parse_deck(raw: object, where: str, db: dict[str, CardDef],
                allowed: frozenset) -> tuple[CardDef, ...]:
    """The deck a card-id -> count object lists: count copies of each
    card's definition, sorted by card id."""
    if not isinstance(raw, dict) or not raw:
        raise DataError(f"{where} must be a non-empty object of card-id -> count")
    deck: list[CardDef] = []
    for cid, count in sorted(raw.items()):
        if cid not in db:
            raise DataError(f"{where} references unknown card id '{cid}'")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise DataError(f"{where}: count for '{cid}' must be a positive integer")
        defn = db[cid]
        if defn.kind not in allowed:
            raise DataError(f"{where}: card '{cid}' has kind {defn.kind.value}, not allowed here")
        deck.extend([defn] * count)
    return tuple(deck)


def _three_cards(obj: dict, key: str, kind: CardKind, name: str,
                 db: dict[str, CardDef]) -> tuple[CardDef, CardDef, CardDef]:
    """The three cards of this kind that obj[key] lists by id."""
    ids = obj.get(key)
    if not isinstance(ids, list) or len(ids) != 3:
        raise DataError(f"scenario '{name}': {key} must list exactly 3 {kind.value} cards")
    for cid in ids:
        if not isinstance(cid, str) or cid not in db:
            raise DataError(f"scenario '{name}': unknown {kind.value} card id {cid!r}")
        if db[cid].kind is not kind:
            raise DataError(f"scenario '{name}': '{cid}' is not a {kind.value} card")
    return db[ids[0]], db[ids[1]], db[ids[2]]


def parse_scenario(obj: dict, db: dict[str, CardDef]) -> Scenario:
    """Build a validated Scenario from a parsed JSON object, resolving the
    card ids it names against db."""
    if not isinstance(obj, dict):
        raise DataError("scenario file must be a JSON object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise DataError("scenario missing string 'name'")

    quest_line = _three_cards(obj, "quest_line", CardKind.QUEST, name, db)
    heroes = _three_cards(obj, "heroes", CardKind.HERO, name, db)
    if len(set(heroes)) != 3:
        raise DataError(f"scenario '{name}': heroes must be three distinct cards")

    player_deck = _parse_deck(obj.get("player_deck"), f"scenario '{name}' player_deck",
                              db, PLAYER_KINDS)
    if len(player_deck) < STARTING_HAND_SIZE:
        raise DataError(f"scenario '{name}': player deck has {len(player_deck)} cards, "
                        f"needs at least {STARTING_HAND_SIZE}")

    decks_raw = obj.get("encounter_decks")
    if not isinstance(decks_raw, dict) or not decks_raw:
        raise DataError(f"scenario '{name}': encounter_decks must map difficulty -> deck")
    decks = tuple(
        (diff, _parse_deck(decks_raw[diff], f"scenario '{name}' encounter deck '{diff}'",
                           db, ENCOUNTER_KINDS))
        for diff in sorted(decks_raw)
    )

    limit = obj.get("threat_limit")
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise DataError(f"scenario '{name}': threat_limit must be a positive integer")

    return Scenario(
        name=name,
        quest_line=quest_line,
        heroes=heroes,
        player_deck=player_deck,
        encounter_decks=decks,
        threat_limit=limit,
    )


def load_scenario_bundle(path: str | Path | None = None) -> Scenario:
    """Load a scenario together with the card file it names.

    The scenario file's optional "cards" key names the card file, resolved
    relative to the scenario file; without the key the shipped card file,
    data/cards.json, is used. Path None reads the shipped scenario file,
    which has no such key.
    """
    path = builtin_scenario_path() if path is None else Path(path)
    obj = _read_json(path, "scenario")
    cards_ref = obj.get("cards") if isinstance(obj, dict) else None
    if cards_ref is not None and not isinstance(cards_ref, str):
        raise DataError(f"scenario {path}: 'cards' must be a file path")
    cards = _DATA_DIR / "cards.json" if cards_ref is None else path.parent / cards_ref
    return parse_scenario(obj, parse_card_db(_read_json(cards, "card")))


_DATA_DIR = Path(__file__).parent / "data"


def builtin_scenario_path() -> Path:
    """Path of the scenario shipped with the package."""
    return _DATA_DIR / "mirkwood.json"
