"""Card database and scenario loading.

Card data is external and data-driven: both the card pool and the scenario
live in JSON files (see docs/card_format.md for the schema and a commented
example of every card kind). Loading is strict -- each card kind has a fixed
set of required stats, and a missing or extraneous stat is a load error that
names the offending card and field. Nothing is defaulted silently.

Loaded objects are immutable and safe to share across worker processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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

_INT_FIELDS = frozenset({
    "cost", "willpower", "attack", "defense", "hit_points", "threat",
    "threat_cost", "engagement_cost", "quest_points", "shadow_attack_bonus",
    "effect_amount",
})

# Lower bounds; everything else just has to be a non-negative int.
_MIN_VALUE = {"hit_points": 1, "threat_cost": 1, "quest_points": 1, "effect_amount": 1}

_PLAYER_SPHERES = frozenset({Sphere.SPIRIT, Sphere.LEADERSHIP, Sphere.TACTICS,
                             Sphere.LORE, Sphere.NEUTRAL})


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
    fields: dict[str, object] = {"id": cid, "name": name, "kind": kind}
    for key in required:
        if key not in entry:
            raise _card_error(cid, f"{kind.value} card missing field '{key}'")
        value = entry[key]
        if key in _INT_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise _card_error(cid, f"field '{key}' must be an integer, got {value!r}")
            if value < _MIN_VALUE.get(key, 0):
                raise _card_error(cid, f"field '{key}' must be >= {_MIN_VALUE.get(key, 0)}")
            fields[key] = value
        elif key == "sphere":
            try:
                sphere = Sphere(value)
            except ValueError:
                raise _card_error(cid, f"unknown sphere {value!r}") from None
            if sphere not in _PLAYER_SPHERES:
                raise _card_error(cid, f"sphere {sphere.value!r} not allowed on a player card")
            fields[key] = sphere
        elif key == "buff":
            if value not in BUFF_STATS:
                raise _card_error(cid, f"unknown buff stat {value!r}")
            fields[key] = value
        elif key == "effect":
            allowed = PLAYER_EFFECTS if kind is CardKind.EVENT_PLAYER else ENCOUNTER_EFFECTS
            if value not in allowed:
                raise _card_error(cid, f"unknown effect {value!r} for kind {kind.value}")
            fields[key] = value

    # Reject stats that do not belong to this kind: almost always a typo.
    allowed_keys = {"id", "name", "kind", *required}
    for key in entry:
        if key.startswith("_"):
            continue  # annotation keys for humans, ignored
        if key not in allowed_keys:
            raise _card_error(cid, f"field '{key}' does not apply to kind {kind.value}")

    return CardDef(**fields)  # type: ignore[arg-type]


class CardDb:
    """Immutable card database keyed by card id."""

    def __init__(self, defs: dict[str, CardDef]):
        self._defs = dict(defs)

    def __getitem__(self, card_id: str) -> CardDef:
        try:
            return self._defs[card_id]
        except KeyError:
            raise DataError(f"unknown card id '{card_id}'") from None

    def __contains__(self, card_id: str) -> bool:
        return card_id in self._defs

    def __len__(self) -> int:
        return len(self._defs)

    def __iter__(self):
        return iter(self._defs.values())


def parse_card_db(obj: dict) -> CardDb:
    """Build a validated CardDb from a parsed JSON object."""
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
    return CardDb(defs)


def _read_json(path: Path, what: str) -> object:
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed JSON in {path}: {exc}") from exc


def load_card_db(path: str | Path) -> CardDb:
    """Load and validate a card database file."""
    return parse_card_db(_read_json(Path(path), "card"))


@dataclass(frozen=True)
class Scenario:
    """A playable scenario: quest line, heroes, decks and the loss threshold.

    Deck multisets are stored as (card_id, count) tuples sorted by id; use
    expand_deck() to get the flat list the engine shuffles. The card database
    the scenario was validated against rides along so the engine can resolve
    ids without a separate argument.
    """

    name: str
    quest_line: tuple[str, str, str]
    heroes: tuple[str, str, str]
    player_deck: tuple[tuple[str, int], ...]
    encounter_decks: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    threat_limit: int
    db: "CardDb" = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def difficulties(self) -> list[str]:
        return [name for name, _ in self.encounter_decks]

    def encounter_deck(self, difficulty: str) -> tuple[tuple[str, int], ...]:
        for name, deck in self.encounter_decks:
            if name == difficulty:
                return deck
        raise DataError(f"scenario '{self.name}' has no difficulty '{difficulty}'")


def expand_deck(multiset: tuple[tuple[str, int], ...]) -> list[str]:
    """Flatten a deck multiset into a list of card ids (sorted, repeated)."""
    out: list[str] = []
    for cid, count in multiset:
        out.extend([cid] * count)
    return out


def _parse_multiset(raw: object, where: str, db: CardDb,
                    allowed: frozenset) -> tuple[tuple[str, int], ...]:
    if not isinstance(raw, dict) or not raw:
        raise DataError(f"{where} must be a non-empty object of card-id -> count")
    items: list[tuple[str, int]] = []
    for cid, count in raw.items():
        if cid not in db:
            raise DataError(f"{where} references unknown card id '{cid}'")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise DataError(f"{where}: count for '{cid}' must be a positive integer")
        kind = db[cid].kind
        if kind not in allowed:
            raise DataError(f"{where}: card '{cid}' has kind {kind.value}, not allowed here")
        items.append((cid, count))
    return tuple(sorted(items))


def parse_scenario(obj: dict, db: CardDb) -> Scenario:
    """Build a validated Scenario from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise DataError("scenario file must be a JSON object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise DataError("scenario missing string 'name'")

    quest_line = obj.get("quest_line")
    if not isinstance(quest_line, list) or len(quest_line) != 3:
        raise DataError(f"scenario '{name}': quest_line must list exactly 3 quest cards")
    for cid in quest_line:
        if cid not in db:
            raise DataError(f"scenario '{name}': unknown quest card id '{cid}'")
        if db[cid].kind is not CardKind.QUEST:
            raise DataError(f"scenario '{name}': '{cid}' is not a quest card")

    heroes = obj.get("heroes")
    if not isinstance(heroes, list) or len(heroes) != 3:
        raise DataError(f"scenario '{name}': heroes must list exactly 3 hero cards")
    for cid in heroes:
        if cid not in db:
            raise DataError(f"scenario '{name}': unknown hero id '{cid}'")
        if db[cid].kind is not CardKind.HERO:
            raise DataError(f"scenario '{name}': '{cid}' is not a hero card")
    if len(set(heroes)) != 3:
        raise DataError(f"scenario '{name}': heroes must be three distinct cards")

    player_deck = _parse_multiset(obj.get("player_deck"), f"scenario '{name}' player_deck",
                                  db, PLAYER_KINDS)

    decks_raw = obj.get("encounter_decks")
    if not isinstance(decks_raw, dict) or not decks_raw:
        raise DataError(f"scenario '{name}': encounter_decks must map difficulty -> deck")
    decks = tuple(
        (diff, _parse_multiset(decks_raw[diff], f"scenario '{name}' encounter deck '{diff}'",
                               db, ENCOUNTER_KINDS))
        for diff in sorted(decks_raw)
    )

    limit = obj.get("threat_limit")
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise DataError(f"scenario '{name}': threat_limit must be a positive integer")

    return Scenario(
        name=name,
        quest_line=(quest_line[0], quest_line[1], quest_line[2]),
        heroes=(heroes[0], heroes[1], heroes[2]),
        player_deck=player_deck,
        encounter_decks=decks,
        threat_limit=limit,
        db=db,
    )


def load_scenario(path: str | Path, db: CardDb) -> Scenario:
    """Load and validate a scenario file against a card database."""
    return parse_scenario(_read_json(Path(path), "scenario"), db)


def load_scenario_bundle(path: str | Path | None = None) -> Scenario:
    """Load a scenario together with its card database.

    The scenario file's optional "cards" key names the card file, resolved
    relative to the scenario file; without the key (or with path None) the
    shipped data is used.
    """
    if path is None:
        return load_scenario(builtin_scenario_path(),
                             load_card_db(builtin_cards_path()))
    path = Path(path)
    obj = _read_json(path, "scenario")
    cards_ref = obj.get("cards") if isinstance(obj, dict) else None
    if cards_ref is None:
        db = load_card_db(builtin_cards_path())
    else:
        if not isinstance(cards_ref, str):
            raise DataError(f"scenario {path}: 'cards' must be a file path")
        db = load_card_db(path.parent / cards_ref)
    return parse_scenario(obj, db)


_DATA_DIR = Path(__file__).parent / "data"


def builtin_cards_path() -> Path:
    """Path of the card set shipped with the package."""
    return _DATA_DIR / "cards.json"


def builtin_scenario_path() -> Path:
    """Path of the scenario shipped with the package."""
    return _DATA_DIR / "mirkwood.json"
