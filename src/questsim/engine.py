"""Rules engine: setup, legal moves, stage execution and the game driver.

The public stage functions (apply_action, advance_ruled_stage,
resolve_random_stage) are functional: they clone the state, mutate the clone
and return it. Everything else plays stages in place through one private
loop, _run: play_game, search playouts and the descent between MCTS tree
levels. The loop calls the handlers of the one stage table, _STAGES,
directly and stops at the end of the game or at a decision stage its
policies leave out. A stage's kind is read only from StageId.kind.

Where actions are checked: each action type has a check, which raises an
IllegalActionError naming the broken rule and writes nothing, and an
effect, which applies a legal action and raises nothing (both in the
_STAGES row of the action's stage). apply_action, play_game and search
tree levels (flat Monte-Carlo's root children included) run both, through
_apply_inplace (_run does so when its checked flag is set). Search
playouts trust their random and expert policies and run the effect
alone: tests/test_contracts.py shows that those policies pick only
actions that pass their check, past a family cap too, and that the effect
alone leaves the same state as both together.

The engine logs nothing: each handler only applies its rules. play_game
derives its trace lines in the loop's observe callback, by comparing a
clone of the state before each stage with the state after it, and takes
the clone only when tracing.

RNG discipline: only new_game, the random stages and the agents consume
the injected random.Random. Ruled stages and action application never touch
an RNG, so replaying the same seeds and decisions reproduces a game exactly.
"""

from __future__ import annotations

from itertools import accumulate, combinations, islice, product
from random import Random
from typing import Callable

from .cards import (
    ALLY,
    CHARACTER_KINDS,
    ENEMY,
    EVENT_ENCOUNTER,
    HERO,
    ITEM,
    LOCATION,
    NEUTRAL,
    STARTING_HAND_SIZE,
    CardDef,
    Scenario,
    Sphere,
)
from .errors import ConfigError, IllegalActionError, QuestSimError, StageError
from .state import (
    ACTIVE_LOCATION,
    COMMIT_CHARACTERS,
    COMPLETED_QUESTS,
    DEAL_SHADOW_CARDS,
    DECISION,
    DECLARE_ATTACKERS,
    DECLARE_DEFENDERS,
    ENCOUNTER_DECK,
    ENCOUNTER_DISCARD,
    ENGAGEMENT_AREA,
    ENGAGEMENT_CHECKS,
    GAIN_RESOURCES_AND_DRAW,
    HAND,
    LOSS_DECK_EMPTY,
    LOSS_HEROES_DEAD,
    LOSS_THREAT,
    PLANNING,
    PLAY_AREA,
    PLAYER_DECK,
    PLAYER_DISCARD,
    QUEST_RESOLUTION,
    RANDOM,
    REFRESH,
    RESOLVE_ENEMY_ATTACKS,
    RESOLVE_PLAYER_ATTACKS,
    RULED,
    STAGING,
    STAGING_AREA,
    TRAVEL,
    WIN,
    Action,
    Attack,
    CardInstance,
    Commit,
    Defend,
    GameState,
    PlayCards,
    StageId,
    StageKind,
    TravelTo,
    Zone,
    describe_action,
)

# No round starts after this one: its refresh loses the game to threat.
ROUND_CAP = 100

# Legal-action family caps: the search's action abstraction, not rules of
# the game. Over its cap a family falls back to a smaller canonical one, so
# a search never branches combinatorially. They bound the search's choices
# only: the rule agents and apply_action follow the rules, not the caps.
MAX_PLANNING_ACTIONS = 64
MAX_COMMIT_ENUM = 7
MAX_DEFEND_ACTIONS = 512
MAX_ATTACK_ACTIONS = 512


# ---- setup ------------------------------------------------------------------


def new_game(scenario: Scenario, difficulty: str, rng: Random) -> GameState:
    """Set up a fresh game: heroes in play, quest line staged, decks shuffled,
    starting threat equal to the summed hero threat costs (a loss, clamped
    to the limit, when it reaches the limit), 6 cards drawn.

    Instance ids are assigned in a fixed order (heroes, quests, player deck,
    encounter deck); the player deck is shuffled before the encounter deck.
    The scenario holds card definitions, resolved when it was loaded.
    """
    encounter_deck = scenario.encounter_deck(difficulty)
    state = GameState(scenario, difficulty)
    for defn in scenario.heroes:
        state.add(defn, PLAY_AREA)
    state.quest_ids = tuple(state.add(defn, STAGING_AREA).instance_id
                            for defn in scenario.quest_line)

    for defn in scenario.player_deck:
        state.add(defn, PLAYER_DECK)
    for defn in encounter_deck:
        state.add(defn, ENCOUNTER_DECK)
    player = state.zone_ids[PLAYER_DECK.slot]
    rng.shuffle(player)
    rng.shuffle(state.zone_ids[ENCOUNTER_DECK.slot])

    _raise_threat(state, sum(defn.threat_cost for defn in scenario.heroes))

    for _ in range(STARTING_HAND_SIZE):
        state.move(state.cards[player[-1]], HAND)
    return state


# ---- shared helpers ---------------------------------------------------------


def _instance(state: GameState, iid: object) -> CardInstance:
    if not isinstance(iid, int) or not 0 <= iid < len(state.cards):
        raise IllegalActionError(f"unknown instance id {iid!r}")
    return state.cards[iid]


def _ready_character(state: GameState, iid: object) -> CardInstance:
    c = _instance(state, iid)
    if c.zone is not PLAY_AREA or c.defn.kind not in CHARACTER_KINDS:
        raise IllegalActionError(f"{c} is not a character in play")
    if c.exhausted:
        raise IllegalActionError(f"{c} is exhausted")
    return c


def _raise_threat(state: GameState, amount: int) -> None:
    state.threat_level += amount
    if state.threat_level >= state.scenario.threat_limit:
        state.threat_level = state.scenario.threat_limit
        state.outcome = LOSS_THREAT


def _destroy(state: GameState, card: CardInstance) -> None:
    if card.defn.kind in CHARACTER_KINDS:
        # Attached items go to the discard pile with their bearer.
        for item in state.in_zone(PLAY_AREA):
            if item.attached_to == card.instance_id:
                state.move(item, PLAYER_DISCARD)
        state.move(card, PLAYER_DISCARD)
        if card.defn.kind is HERO and not state.heroes():
            state.outcome = LOSS_HEROES_DEAD
    else:
        if card.shadow_card is not None:
            state.move(state.cards[card.shadow_card], ENCOUNTER_DISCARD)
        state.move(card, ENCOUNTER_DISCARD)


def _deal_damage(state: GameState, card: CardInstance, amount: int) -> None:
    if amount <= 0:
        return
    card.damage += amount
    if card.damage >= card.hit_points:
        _destroy(state, card)


def _add_progress(state: GameState, points: int) -> None:
    """Quest progress: an active location soaks points until explored, the
    rest goes to the current quest; completed quests roll overflow forward
    and finishing the third quest wins the game (quest_index parks at 3)."""
    location = state.active_location()
    if location is not None:
        need = location.defn.quest_points - location.progress
        if points < need:
            location.progress += points
            return
        points -= need
        state.move(location, ENCOUNTER_DISCARD)
    state.quest_progress += points
    while state.quest_progress >= state.current_quest().defn.quest_points:
        state.quest_progress -= state.current_quest().defn.quest_points
        state.move(state.current_quest(), COMPLETED_QUESTS)
        if state.quest_index > 2:
            state.outcome = WIN
            return


def _draw_encounter(state: GameState, rng: Random) -> int | None:
    """Id of the top encounter card, which the caller moves out of the deck.
    An empty deck first takes in the discard pile, whose cards carry no
    in-game state, and is shuffled. None when both are empty."""
    deck = state.zone_ids[ENCOUNTER_DECK.slot]
    if not deck:
        pile = state.zone_ids[ENCOUNTER_DISCARD.slot]
        if not pile:
            return None
        for iid in pile[:]:
            state.move(state.cards[iid], ENCOUNTER_DECK)
        rng.shuffle(deck)
    return deck[-1]


Pools = tuple[dict[Sphere, int], int]


def hero_pools(heroes: list[CardInstance]) -> Pools:
    """Resources per hero sphere, and in total, across these heroes."""
    pools: dict[Sphere, int] = {}
    total = 0
    for hero in heroes:
        pools[hero.defn.sphere] = pools.get(hero.defn.sphere, 0) + hero.resource_pool
        total += hero.resource_pool
    return pools, total


def take(defn: CardDef, left: Pools) -> Pools | None:
    """What the heroes still hold once defn is paid for out of `left` (as
    hero_pools gives it), or None when it cannot be. Sphere cards draw only
    on same-sphere heroes, neutral cards on anyone, so a set is payable iff
    each sphere's costs fit its pool and all costs the total (_unpayable):
    taking the cards one at a time, in any order, is exact."""
    pools, total = left
    cost = defn.cost
    if cost > total:
        return None
    if defn.sphere is NEUTRAL:
        return pools, total - cost
    have = pools.get(defn.sphere, 0)
    if cost > have:
        return None
    return {**pools, defn.sphere: have - cost}, total - cost


def _unpayable(heroes: list[CardInstance], defs) -> str | None:
    """Why the heroes cannot pay for this buy (take's rule for a set), or None."""
    pools, total_pool = hero_pools(heroes)
    demand: dict[Sphere, int] = {}
    for d in defs:
        if d.sphere is not NEUTRAL:
            demand[d.sphere] = demand.get(d.sphere, 0) + d.cost
    for sphere in sorted(demand, key=lambda s: s.value):
        if demand[sphere] > pools.get(sphere, 0):
            return (f"needs {demand[sphere]} {sphere.value} resources, "
                    f"heroes have {pools.get(sphere, 0)}")
    total = sum([d.cost for d in defs])
    if total > total_pool:
        return f"costs {total} in total, heroes have {total_pool}"
    return None


def _spend(heroes: list[CardInstance], amount: int) -> None:
    for hero in heroes:
        paid = min(hero.resource_pool, amount)
        hero.resource_pool -= paid
        amount -= paid
        if amount == 0:
            return


# ---- legal action families --------------------------------------------------


def _planning_enumerate(cards: list[CardInstance],
                        left: Pools) -> list[tuple[int, ...]] | None:
    """Subsets of these hand cards (empty buy excluded) payable out of
    `left`, as hero_pools gives it, in depth-first hand order, or None once
    the family overflows the 64-action cap (the walk stops there). Subsets
    led by earlier hand cards come first, supersets before their
    remainders; see legal_actions for why the order matters."""
    def subsets(start: int, chosen: tuple[int, ...], left: Pools):
        # An unpayable subset has no payable superset: its branch is pruned.
        for i in range(start, len(cards)):
            rest = take(cards[i].defn, left)
            if rest is not None:
                ids = chosen + (cards[i].instance_id,)
                yield ids
                yield from subsets(i + 1, ids, rest)

    # The empty buy makes one more action than there are subsets.
    found = list(islice(subsets(0, (), left), MAX_PLANNING_ACTIONS))
    return found if len(found) < MAX_PLANNING_ACTIONS else None


def _planning_actions(state: GameState) -> list[Action]:
    """Every payable subset of the hand, capped at 64 actions; over the cap
    the family collapses to payable singletons plus the empty buy. Subsets
    come out in depth-first hand order with the empty buy last. The walk
    stops at its 64th subset, where the family overflows."""
    left = hero_pools(state.heroes())
    singles = [c for c in state.hand() if take(c.defn, left) is not None]
    subsets = _planning_enumerate(singles, left)
    if subsets is None:
        singles.sort(key=lambda c: (-c.defn.cost, c.instance_id))
        return [PlayCards((c.instance_id,)) for c in singles] + [PlayCards(())]
    return [PlayCards(ids) for ids in subsets] + [PlayCards(())]


def commit_pool(state: GameState) -> list[CardInstance]:
    """Characters that may commit: ready, uncommitted, nonzero willpower."""
    return [c for c in state.ready_characters() if not c.committed and c.willpower > 0]


def _commit_actions(state: GameState) -> list[Action]:
    """Every subset of the commit pool whose willpower strictly beats the
    staging threat, plus the empty commit. Ordered by ascending willpower
    (tightest qualifying commit first) with the empty commit last; past 7
    candidates only the qualifying willpower-descending prefixes (ties by
    id) are offered, shortest first."""
    threshold = state.staging_threat()
    pool = commit_pool(state)

    if len(pool) > MAX_COMMIT_ENUM:
        pool.sort(key=lambda c: (-c.willpower, c.instance_id))
        wills = accumulate(c.willpower for c in pool)
        prefixes = [Commit(tuple(c.instance_id for c in pool[:i]))
                    for i, will in enumerate(wills, 1) if will > threshold]
        return prefixes + [Commit(())]

    qualifying = []
    for r in range(1, len(pool) + 1):
        for subset in combinations(pool, r):
            will = sum(c.willpower for c in subset)
            if will > threshold:
                qualifying.append((will, tuple(c.instance_id for c in subset)))
    qualifying.sort()
    return [Commit(ids) for _, ids in qualifying] + [Commit(())]


def travel_actions(state: GameState) -> list[Action]:
    """Staging-area locations by descending threat (ties by id), then
    staying put; only staying put while a location is active."""
    actions: list[Action] = []
    if state.active_location() is None:
        spots = [c for c in state.in_zone(STAGING_AREA)
                 if c.defn.kind is LOCATION]
        spots.sort(key=lambda c: (-c.defn.threat, c.instance_id))
        actions.extend(TravelTo(c.instance_id) for c in spots)
    actions.append(TravelTo(None))
    return actions


def defender_order(state: GameState) -> list[CardInstance]:
    """Ready characters in defending preference: allies by ascending cost,
    then heroes by descending defense, ties by id."""
    return sorted(state.ready_characters(),
                  key=lambda c: ((0, c.defn.cost, c.instance_id)
                                 if c.defn.kind is ALLY
                                 else (1, -c.defense, c.instance_id)))


def _defend_actions(state: GameState) -> list[Action]:
    """Every assignment of at most one distinct ready defender per engaged
    enemy; above 512 assignments only the single-defender assignments plus
    all-undefended are offered. Assignments are ordered fullest-first (most
    enemies blocked first; cheap-allies-then-heroes preference within a
    tier) with all-undefended always last."""
    enemies = [e.instance_id for e in state.engaged_enemies()]
    chars = [c.instance_id for c in defender_order(state)]
    k = len(enemies)

    def assignments(i: int, used: tuple[int, ...], assign: tuple):
        """(blocked, assignment) for each way to extend assign over
        enemies[i:], each enemy's pick in defending preference, then none."""
        if i == k:
            yield len(used), assign
            return
        for c in chars:
            if c not in used:
                yield from assignments(i + 1, used + (c,),
                                       assign + ((enemies[i], c),))
        yield from assignments(i + 1, used, assign + ((enemies[i], None),))

    # The walk stops one past the cap, where the family overflows.
    found = list(islice(assignments(0, (), ()), MAX_DEFEND_ACTIONS + 1))
    if len(found) > MAX_DEFEND_ACTIONS:
        actions = [Defend(tuple((e2, c if e2 == e else None) for e2 in enemies))
                   for e in enemies for c in chars]
        return actions + [Defend(tuple((e, None) for e in enemies))]
    # Fullest first. The sort is stable and all undefended comes last among
    # the assignments blocking none, so it is the last action.
    found.sort(key=lambda t: -t[0])
    return [Defend(assign) for _, assign in found]


def _attack_actions(state: GameState) -> list[Action]:
    """Every mapping of ready characters to an engaged enemy or to abstaining;
    above 512 mappings only the all-in-on-one-enemy options and the no-attack
    are offered. Enemies are tried weakest (lowest remaining hit points)
    first and the no-attack action always comes last."""
    targets = sorted(state.engaged_enemies(),
                     key=lambda e: (e.remaining_hp, e.instance_id))
    enemies = [e.instance_id for e in targets]
    chars = [c.instance_id for c in state.ready_characters()]
    if (len(enemies) + 1) ** len(chars) > MAX_ATTACK_ACTIONS:
        everyone = tuple(chars)
        return [Attack(((e, everyone),)) for e in enemies] + [Attack(())]

    actions: list[Action] = []
    for picks in product((*enemies, None), repeat=len(chars)):
        groups: dict[int, list[int]] = {}
        for c, e in zip(chars, picks):
            if e is not None:
                groups.setdefault(e, []).append(c)
        actions.append(Attack(tuple((e, tuple(g)) for e, g in groups.items())))
    return actions


def legal_actions(state: GameState) -> list[Action]:
    """Canonically ordered legal actions for the current decision stage.

    Never empty: each family contains its minimal action (pass, empty buy,
    empty commit...). Each family has a fixed deterministic order - buys in
    depth-first hand order, tightest qualifying commit first, fullest
    defense first, all-in attack first - with the pass action last. Search
    code treats this order as a move-ordering prior, so it is part of the
    contract. Raises StageError off decision stages or after the end.
    """
    if state.outcome is not None:
        raise StageError("game is over, no legal actions")
    if state.stage.kind is not DECISION:
        raise StageError(f"'{state.stage.value}' is not a decision stage")
    return _STAGES[state.stage][1](state)


# ---- action application -----------------------------------------------------
#
# Each action type has a check and an effect, paired in its stage's
# _STAGES row; the module docstring says which callers run which.


def _check_play(state: GameState, action: PlayCards) -> None:
    if not action.cards:
        return
    if len(set(action.cards)) != len(action.cards):
        raise IllegalActionError("duplicate card in buy")
    defs = []
    for iid in action.cards:
        inst = _instance(state, iid)
        if inst.zone is not HAND:
            raise IllegalActionError(f"{inst} is not in hand")
        defs.append(inst.defn)
    why = _unpayable(state.heroes(), defs)
    if why is not None:
        raise IllegalActionError(f"cannot pay for {[d.id for d in defs]}: {why}")


def _play(state: GameState, action: PlayCards) -> None:
    if not action.cards:
        return
    insts = [state.cards[iid] for iid in action.cards]
    heroes = state.heroes()
    # Sphere costs drain matching heroes (id order) before neutral costs
    # drain anyone, so paying never strands a sphere requirement.
    for inst in insts:
        if inst.defn.sphere is not NEUTRAL:
            _spend([h for h in heroes if h.defn.sphere is inst.defn.sphere],
                   inst.defn.cost)
    for inst in insts:
        if inst.defn.sphere is NEUTRAL:
            _spend(heroes, inst.defn.cost)

    for inst in insts:
        kind = inst.defn.kind
        if kind is ALLY:
            state.move(inst, PLAY_AREA)
        elif kind is ITEM:
            state.move(inst, PLAY_AREA)
            target = next((h for h in heroes
                           if h.defn.sphere is inst.defn.sphere), heroes[0])
            inst.attached_to = target.instance_id
            target.add_buff(inst.defn.buff)
        else:  # player event
            if inst.defn.effect == "reduce_threat":
                state.threat_level = max(0, state.threat_level
                                         - inst.defn.effect_amount)
            state.move(inst, PLAYER_DISCARD)


def _check_commit(state: GameState, action: Commit) -> None:
    if len(set(action.characters)) != len(action.characters):
        raise IllegalActionError("duplicate character in commit")
    total = 0
    for iid in action.characters:
        c = _ready_character(state, iid)
        if c.willpower <= 0:
            raise IllegalActionError(f"{c} has zero willpower")
        total += c.willpower
    if action.characters:
        threshold = state.staging_threat()
        if total <= threshold:
            raise IllegalActionError(f"committed willpower {total} must strictly "
                                     f"exceed staging threat {threshold}")


def _commit(state: GameState, action: Commit) -> None:
    for iid in action.characters:
        c = state.cards[iid]
        c.committed = True
        c.exhausted = True


def _check_travel(state: GameState, action: TravelTo) -> None:
    if action.location is None:
        return
    loc = _instance(state, action.location)
    if loc.defn.kind is not LOCATION or loc.zone is not STAGING_AREA:
        raise IllegalActionError(f"{loc} is not a staging-area location")
    if state.active_location() is not None:
        raise IllegalActionError("a location is already active")


def _travel(state: GameState, action: TravelTo) -> None:
    if action.location is not None:
        state.move(state.cards[action.location], ACTIVE_LOCATION)


def _check_defend(state: GameState, action: Defend) -> None:
    engaged = [e.instance_id for e in state.engaged_enemies()]
    keys = [e for e, _ in action.assignments]
    if keys != engaged:
        raise IllegalActionError(f"assignments must cover engaged enemies "
                                 f"exactly: expected {engaged}, got {keys}")
    used: set[int] = set()
    for _, did in action.assignments:
        if did is None:
            continue
        defender = _ready_character(state, did)
        if did in used:
            raise IllegalActionError(f"{defender} cannot defend twice")
        used.add(did)


def _defend(state: GameState, action: Defend) -> None:
    for _, did in action.assignments:
        if did is not None:
            state.cards[did].exhausted = True
    state.defenses = action.assignments


def _check_attack(state: GameState, action: Attack) -> None:
    engaged = {e.instance_id for e in state.engaged_enemies()}
    attacked: set[int] = set()
    used: set[int] = set()
    for eid, group in action.assignments:
        if eid not in engaged:
            raise IllegalActionError(f"instance {eid} is not an engaged enemy")
        if eid in attacked:
            raise IllegalActionError(f"enemy {eid} attacked twice")
        if not group:
            raise IllegalActionError(f"empty attacker group for enemy {eid}")
        for aid in group:
            attacker = _ready_character(state, aid)
            if aid in used:
                raise IllegalActionError(f"{attacker} cannot attack twice")
            used.add(aid)
        attacked.add(eid)


def _attack(state: GameState, action: Attack) -> None:
    for _, group in action.assignments:
        for aid in group:
            state.cards[aid].exhausted = True
    state.attacks = action.assignments


def _apply_inplace(state: GameState, action: Action) -> None:
    if state.outcome is not None:
        raise StageError("game is over")
    expected = _ACTION_STAGES.get(type(action))
    if expected is None:
        raise IllegalActionError(f"not an action: {action!r}")
    if state.stage is not expected:
        raise IllegalActionError(f"{type(action).__name__} applies at stage "
                                 f"'{expected.value}', game is at "
                                 f"'{state.stage.value}'")
    _, _, check, effect = _STAGES[expected]
    check(state, action)
    effect(state, action)
    if state.outcome is None:
        state.stage = expected.next


def apply_action(state: GameState, action: Action) -> GameState:
    """Validate and apply a decision action, returning the successor state.

    Structural validation names the violated rule (wrong stage, unpayable
    buy, exhausted defender...). The input state is not modified.
    """
    successor = state.clone()
    _apply_inplace(successor, action)
    return successor


# ---- ruled stages -----------------------------------------------------------


def _stage_gain(state: GameState) -> None:
    for hero in state.heroes():
        hero.resource_pool += 1
    deck = state.zone_ids[PLAYER_DECK.slot]
    if not deck:
        state.outcome = LOSS_DECK_EMPTY
        return
    state.move(state.cards[deck[-1]], HAND)


def _stage_quest_resolution(state: GameState) -> None:
    willpower = sum(c.willpower for c in state.committed_characters())
    threat = state.staging_threat()
    if willpower > threat:
        _add_progress(state, willpower - threat)
    elif willpower < threat:
        _raise_threat(state, threat - willpower)


def _stage_engagement(state: GameState) -> None:
    # Engaging changes no threat, so one pass engages every enemy that can.
    for c in state.in_zone(STAGING_AREA):
        if (c.defn.kind is ENEMY
                and c.defn.engagement_cost <= state.threat_level):
            state.move(c, ENGAGEMENT_AREA)


def _stage_enemy_attacks(state: GameState) -> None:
    # Declared enemies are still engaged; a defender may have died.
    for eid, did in state.defenses:
        enemy = state.cards[eid]
        attack = enemy.attack
        if enemy.shadow_card is not None:
            attack += state.cards[enemy.shadow_card].defn.shadow_attack_bonus
        if did is not None and state.cards[did].zone is PLAY_AREA:
            defender = state.cards[did]
            _deal_damage(state, defender, attack - defender.defense)
        else:
            # Undefended attacks hit the first surviving hero at full force.
            _deal_damage(state, state.heroes()[0], attack)
        if state.outcome is not None:
            break
    state.defenses = ()


def _stage_player_attacks(state: GameState) -> None:
    # Declared enemies are still engaged, declared attackers in play.
    for eid, group in state.attacks:
        enemy = state.cards[eid]
        total = sum(state.cards[aid].attack for aid in group)
        _deal_damage(state, enemy, total - enemy.defense)
    state.attacks = ()


def _stage_refresh(state: GameState) -> None:
    # Only characters in play exhaust or commit; only engaged enemies hold
    # shadows, and leaving either zone clears these marks.
    for c in state.in_zone(PLAY_AREA):
        c.exhausted = False
        c.committed = False
    for c in state.in_zone(ENGAGEMENT_AREA):
        if c.shadow_card is not None:
            state.move(state.cards[c.shadow_card], ENCOUNTER_DISCARD)
            c.shadow_card = None
    _raise_threat(state, 1)
    # The next round starts here, unless the threat rise ended the game or
    # this was the last round.
    if state.outcome is None:
        if state.round_no < ROUND_CAP:
            state.round_no += 1
        else:
            state.outcome = LOSS_THREAT


# ---- random stages ----------------------------------------------------------


def _stage_staging(state: GameState, rng: Random) -> None:
    iid = _draw_encounter(state, rng)
    if iid is None:
        return
    card = state.cards[iid]
    if card.defn.kind is EVENT_ENCOUNTER:
        if card.defn.effect == "raise_threat":
            _raise_threat(state, card.defn.effect_amount)
        else:  # damage_committed
            for ch in state.committed_characters():
                _deal_damage(state, ch, card.defn.effect_amount)
                if state.outcome is not None:
                    break
        state.move(card, ENCOUNTER_DISCARD)
    else:
        state.move(card, STAGING_AREA)


def _stage_shadows(state: GameState, rng: Random) -> None:
    for enemy in state.engaged_enemies():
        iid = _draw_encounter(state, rng)
        if iid is None:
            return
        shadow = state.cards[iid]
        state.move(shadow, ENGAGEMENT_AREA)
        shadow.attached_to = enemy.instance_id
        enemy.shadow_card = iid


# ---- the stage table --------------------------------------------------------


# Each stage's rules, in round order: a ruled stage's handler(state), a
# random stage's handler(state, rng), and a decision stage's (action type,
# legal family, check, effect).
_STAGES: dict[StageId, Callable | tuple[type, Callable, Callable, Callable]] = {
    GAIN_RESOURCES_AND_DRAW: _stage_gain,
    PLANNING: (PlayCards, _planning_actions, _check_play, _play),
    COMMIT_CHARACTERS: (Commit, _commit_actions, _check_commit, _commit),
    STAGING: _stage_staging,
    QUEST_RESOLUTION: _stage_quest_resolution,
    TRAVEL: (TravelTo, travel_actions, _check_travel, _travel),
    ENGAGEMENT_CHECKS: _stage_engagement,
    DEAL_SHADOW_CARDS: _stage_shadows,
    DECLARE_DEFENDERS: (Defend, _defend_actions, _check_defend, _defend),
    RESOLVE_ENEMY_ATTACKS: _stage_enemy_attacks,
    DECLARE_ATTACKERS: (Attack, _attack_actions, _check_attack, _attack),
    RESOLVE_PLAYER_ATTACKS: _stage_player_attacks,
    REFRESH: _stage_refresh,
}
# Action type -> the decision stage it applies at.
_ACTION_STAGES = {rules[0]: stage for stage, rules in _STAGES.items()
                  if stage.kind is DECISION}


def _step(state: GameState, kind: StageKind, *args) -> GameState:
    """A clone of state with its current stage, which must be of this kind,
    played by its handler."""
    if state.outcome is not None:
        raise StageError("game is over")
    if state.stage.kind is not kind:
        raise StageError(f"'{state.stage.value}' is not a {kind.value} stage")
    successor = state.clone()
    _STAGES[state.stage](successor, *args)
    if successor.outcome is None:
        successor.stage = successor.stage.next
    return successor


def advance_ruled_stage(state: GameState) -> GameState:
    """Execute the current ruled stage, returning the successor state."""
    return _step(state, RULED)


def resolve_random_stage(state: GameState, rng: Random) -> GameState:
    """Execute the current random stage, returning the successor state.

    Consumes the caller's rng (the input state itself is untouched).
    """
    return _step(state, RANDOM, rng)


# ---- driver -----------------------------------------------------------------


def _trace_line(before: GameState, after: GameState, action: Action | None) -> str:
    """The trace line of the stage that took `before` to `after`: the
    action taken at a decision stage, then in instance-id order each card
    that changed zone and each card whose damage rose, then the counters
    after the stage. docs/round.md gives the format."""
    events = [] if action is None else [describe_action(action, before)]
    for old, new in zip(before.cards, after.cards):
        if old.zone is not new.zone:
            events.append(f"{new} {old.zone.value}->{new.zone.value}")
        if new.damage > old.damage:
            events.append(f"{new} takes {new.damage - old.damage}")
    line = (f"R{before.round_no:02d} {before.stage.value:<18} "
            f"{'; '.join(events) or '-'} | "
            f"threat={after.threat_level} "
            f"quest={min(after.quest_index + 1, 3)} "
            f"progress={after.quest_progress}")
    if after.outcome is not None:
        line += f" outcome={after.outcome.value}"
    return line


def _run(state: GameState, policies: dict, rng: Random, checked: bool,
         observe: Callable[[GameState, Action | None], None] | None = None,
         ) -> None:
    """Play stages in place until the game ends or reaches a decision stage
    that policies does not map; that stage is left unplayed.

    policies maps decision StageIds to agents.Policy values: decide() is
    handed the stage's legal actions when the policy's needs_legals is
    set, else None. checked runs each action's check before its effect.
    observe, when given, is called after every stage with the state and
    the action taken there (None at ruled and random stages).
    """
    while state.outcome is None:
        stage = state.stage
        kind = stage.kind
        rules = _STAGES[stage]
        action = None
        if kind is RULED:
            rules(state)
        elif kind is RANDOM:
            rules(state, rng)
        else:
            try:
                policy = policies[stage]
            except KeyError:
                return
            action = policy.decide(
                state, legal_actions(state) if policy.needs_legals else None, rng)
            if checked:
                _apply_inplace(state, action)  # advances the stage, as below
            else:
                rules[3](state, action)
        if state.outcome is None:
            state.stage = stage.next
        if observe is not None:
            observe(state, action)


def play_game(state: GameState, policies: dict, rng: Random, *,
              trace: Callable[[str], None] | None = None,
              check: bool = False) -> GameState:
    """Drive a game to its outcome, mutating state in place.

    policies maps each decision StageId to an agents.Policy; reaching a
    stage that it leaves out raises ConfigError naming the stage. Every
    action is checked before its effect. trace, when given, receives one
    line per stage, which the driver derives from a clone taken before the
    stage and the state after it (the stage handlers log nothing); without
    trace no clone is taken. check runs the full invariant audit after
    every stage.
    """
    observe = None
    if trace is not None or check:
        before = state.clone() if trace is not None else None

        def observe(after: GameState, action: Action | None) -> None:
            nonlocal before
            if trace is not None:
                trace(_trace_line(before, after, action))
                before = after.clone()
            if check:
                check_invariants(after)

    _run(state, policies, rng, True, observe)
    if state.outcome is None:
        raise ConfigError(f"no policy for decision stage '{state.stage.value}'")
    return state


# ---- invariant audit --------------------------------------------------------


def check_invariants(state: GameState) -> None:
    """Audit structural invariants; raises QuestSimError naming the breakage.

    Used by fuzz tests and the driver's check mode, not on hot paths.
    """
    def fail(msg: str) -> None:
        raise QuestSimError(f"invariant violation: {msg}")

    for i, c in enumerate(state.cards):
        if c.instance_id != i:
            fail(f"card at index {i} has instance_id {c.instance_id}")

    for zone in Zone:
        ids = [c.instance_id for c in state.cards if c.zone is zone]
        listed = state.zone_ids[zone.slot]
        # A deck lists its cards in draw order, any other zone in id order.
        if (sorted(listed) if zone in (PLAYER_DECK, ENCOUNTER_DECK) else listed) != ids:
            fail(f"zone index lists {listed} in {zone.value}, "
                 f"but the cards there are {ids}")

    shadows = [c.shadow_card for c in state.cards if c.shadow_card is not None]
    if len(set(shadows)) != len(shadows):
        fail("one card dealt as shadow to two enemies")
    for c in state.cards:
        if c.shadow_card is not None:
            if c.defn.kind is not ENEMY or c.zone is not ENGAGEMENT_AREA:
                fail(f"{c!r} holds a shadow card but is not an engaged enemy")
            shadow = state.cards[c.shadow_card]
            if shadow.zone is not ENGAGEMENT_AREA:
                fail(f"shadow card {c.shadow_card} left the engagement area")
            if shadow.attached_to != c.instance_id:
                fail(f"shadow card {c.shadow_card} not marked as attached "
                     f"to its enemy {c.instance_id}")
        if (c.zone is ENGAGEMENT_AREA and c.attached_to is not None
                and state.cards[c.attached_to].shadow_card != c.instance_id):
            fail(f"{c!r} marked as a shadow of {c.attached_to} which does "
                 f"not hold it")
        if c.committed and (c.zone is not PLAY_AREA or not c.exhausted
                            or c.defn.kind not in CHARACTER_KINDS):
            fail(f"{c!r} committed but not an exhausted character in play")
        if c.zone.clears:
            fresh = CardInstance(c.instance_id, c.defn, c.zone)
            for field in CardInstance.__slots__:
                if getattr(c, field) != getattr(fresh, field):
                    fail(f"{c!r} carries in-game state in a deck or a discard pile: {field}")
        if c.zone in (PLAY_AREA, ENGAGEMENT_AREA, STAGING_AREA) \
                and c.defn.hit_points and c.damage >= c.hit_points:
            fail(f"{c!r} should have been destroyed")
        if c.resource_pool and c.defn.kind is not HERO:
            fail(f"{c!r} holds resources but is not a hero")
        if c.progress and c.zone is not ACTIVE_LOCATION:
            fail(f"{c!r} carries quest progress but is not the active location")
        if c.attached_to is not None:
            bearer = state.cards[c.attached_to]
            if c.zone is PLAY_AREA and bearer.zone is not PLAY_AREA:
                fail(f"{c!r} attached to {bearer!r} which left play")

    active = [c for c in state.cards if c.zone is ACTIVE_LOCATION]
    if len(active) > 1:
        fail("more than one active location")

    if state.outcome is WIN:
        if state.quest_index != 3:
            fail(f"won with quest_index {state.quest_index}")
    elif not 0 <= state.quest_index <= 2:
        fail(f"quest_index {state.quest_index} out of range")
    else:
        done = {state.quest_ids[i] for i in range(state.quest_index)}
        for iid in state.quest_ids:
            zone = state.cards[iid].zone
            want = COMPLETED_QUESTS if iid in done else STAGING_AREA
            if zone is not want:
                fail(f"quest card {iid} in {zone.value}, expected {want.value}")
        if state.quest_progress >= state.current_quest().defn.quest_points:
            fail(f"quest_progress {state.quest_progress} not rolled over")

    if state.quest_progress < 0:
        fail("negative quest_progress")
    if not 0 <= state.threat_level <= state.scenario.threat_limit:
        fail(f"threat {state.threat_level} outside [0, limit]")
    if state.outcome is None and state.threat_level >= state.scenario.threat_limit:
        fail("threat at limit but game not lost")
