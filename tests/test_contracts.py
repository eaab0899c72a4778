"""Policies that build their action without the legal family must still
play legally: the fixed rules pick the family's head, and the expert picks
a member of it whenever no cap fired. The caps bound the search's choices
only, so past one the expert plays its rule all the same: its action
passes its stage's check, and its effect alone leaves the same state as
check and effect together. Checked on organic states of seeded games
(audited after every stage) and on hand-built states whose families hit
the caps. The expert's one-pass rules must pick what the greedy loops and
sorts that define them pick (kept here as references), and every action
the rules build through the canonical constructor must equal, field for
field, the one the public constructor makes. Perturbed legal actions on
organic states must be rejected with a named error. Every action the
playout policies pick passes its check, and its effect alone leaves the
same state as check and effect together, which is what lets playouts skip
the check. What the combat resolution stages take from their declarations
without re-testing it (enemies still engaged, attackers still in play, a
hero to hit) holds on organic states."""

from dataclasses import fields
from itertools import combinations
from random import Random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import pytest

from questsim.agents import (
    GANDALF_ID,
    default_attack,
    default_travel,
    expert_decide,
)
from questsim.cards import CHARACTER_KINDS, CardDef, CardKind, Sphere, load_scenario_bundle
from questsim.engine import (
    _STAGES,
    _apply_inplace,
    _unpayable,
    advance_ruled_stage,
    apply_action,
    check_invariants,
    commit_pool,
    defender_order,
    hero_pools,
    legal_actions,
    new_game,
    resolve_random_stage,
    take,
    travel_actions,
)
from questsim.errors import IllegalActionError, StageError
from questsim.search import _PLAYOUTS, _finish, determinize
from questsim.state import (
    Attack,
    Commit,
    Defend,
    Outcome,
    PlayCards,
    StageId,
    StageKind,
    TravelTo,
    Zone,
)

import helpers
from helpers import at_stage, family_capped, put, stash_hand

SHIPPED = load_scenario_bundle()
SYNTH = helpers.make_scenario()

CONTRACT = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

EXPERT_STAGES = (StageId.PLANNING, StageId.COMMIT_CHARACTERS,
                 StageId.DECLARE_DEFENDERS)
HAND_CARDS = ("ally-lantern", "ally-banner", "ally-shield", "ally-porter",
              "gandalf", "item-blade", "item-charm", "item-pack",
              "event-respite")
ALLIES = ("ally-lantern", "ally-banner", "ally-shield", "ally-porter",
          "gandalf")
ENEMIES = ("enemy-wolf", "enemy-warg", "enemy-troll")
LOCATIONS = ("loc-clearing", "loc-ridge")
# Card spheres for the cost rule: a sphere no synthetic hero has (lore),
# and neutral twice as often as each other, since only neutral cards can
# leave the total short while every sphere fits.
BUY_SPHERES = (Sphere.SPIRIT, Sphere.LEADERSHIP, Sphere.TACTICS, Sphere.LORE,
               Sphere.NEUTRAL, Sphere.NEUTRAL)


def greedy_buy(state) -> PlayCards:
    """The expert's buy as its definition reads: pick Gandalf whenever
    affordable, else the affordable Spirit card of highest willpower, else
    the cheapest affordable card (ties by card id, then instance), and
    re-filter the affordable cards after every pick."""
    left = hero_pools(state.heroes())
    chosen: list[int] = []
    afford = [c for c in state.hand() if take(c.defn, left) is not None]
    while afford:
        gandalfs = [c for c in afford if c.defn.id == GANDALF_ID]
        spirit = [c for c in afford if c.defn.sphere is Sphere.SPIRIT]
        if gandalfs:
            pick = gandalfs[0]
        elif spirit:
            pick = min(spirit, key=lambda c: (-c.defn.willpower, c.defn.id,
                                              c.instance_id))
        else:
            pick = min(afford, key=lambda c: (c.defn.cost, c.defn.id,
                                              c.instance_id))
        chosen.append(pick.instance_id)
        left = take(pick.defn, left)
        afford = [c for c in afford if c is not pick
                  and take(c.defn, left) is not None]
    return PlayCards(tuple(chosen))


def sorted_commit(state) -> Commit:
    """The expert's commit as its definition reads: Gandalf, then Spirit
    characters sorted by descending willpower, until the staging threat is
    beaten."""
    threshold = state.staging_threat()
    pool = commit_pool(state)
    preferred = ([c for c in pool if c.defn.id == GANDALF_ID]
                 + sorted((c for c in pool if c.defn.sphere is Sphere.SPIRIT
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
    return Commit(tuple(chosen))


def sorted_defense(state) -> Defend:
    """The expert's defense as its definition reads: enemies sorted by
    descending attack take the defenders in defender_order, one each."""
    enemies = sorted(state.engaged_enemies(),
                     key=lambda e: (-e.attack, e.instance_id))
    queue = defender_order(state)
    ideal = {e.instance_id: queue[i].instance_id if i < len(queue) else None
             for i, e in enumerate(enemies)}
    return Defend(tuple(ideal.items()))


REFERENCE = {StageId.PLANNING: greedy_buy,
             StageId.COMMIT_CHARACTERS: sorted_commit,
             StageId.TRAVEL: lambda state: travel_actions(state)[0],
             StageId.DECLARE_DEFENDERS: sorted_defense,
             StageId.DECLARE_ATTACKERS: lambda state: legal_actions(state)[0]}


def assert_canonical(action) -> None:
    """The public constructor, which sorts the action's field, leaves it
    as it is: an action built by _canonical is in canonical form."""
    name = fields(action)[0].name
    field = getattr(action, name)
    rebuilt = type(action)(field)
    assert rebuilt == action and getattr(rebuilt, name) == field


def check_and_effect_agree(state, action) -> None:
    """Apply the action to two clones of the state: through _apply_inplace
    (check and effect), which raises if the check fails, and through the
    stage's effect alone, advanced as _finish advances it. The two must
    agree."""
    checked, trusted = state.clone(), state.clone()
    _apply_inplace(checked, action)
    _STAGES[state.stage][3](trusted, action)
    trusted.stage = trusted.stage.next
    assert trusted.fingerprint() == checked.fingerprint()
    assert trusted.zone_ids == checked.zone_ids


def check_contracts(state) -> list:
    """Assert the contract for the current decision stage: the expert and
    fixed rules pick what their references pick, in canonical form, and
    the fixed rules pick the family's head. The expert's action is a
    member of the legal family when no cap fired; past a cap it passes its
    check, and its effect alone matches check and effect. Return the
    legal family."""
    legals = legal_actions(state)
    action = expert_decide(state)
    assert action == REFERENCE[state.stage](state)
    assert_canonical(action)
    if family_capped(state):
        check_and_effect_agree(state, action)
    else:
        assert action in legals
    if state.stage is StageId.TRAVEL:
        assert action == default_travel(state) == legals[0]
    elif state.stage is StageId.DECLARE_ATTACKERS:
        assert action == default_attack(state) == legals[0]
    return legals


@CONTRACT
@given(seed=st.integers(0, 2**32 - 1),
       difficulty=st.sampled_from(["medium", "hard"]),
       agent=st.sampled_from(["random", "expert"]))
def test_contracts_hold_on_organic_states(seed, difficulty, agent):
    rng = Random(seed)
    state = new_game(SHIPPED, difficulty, rng)
    seen = set()
    while state.outcome is None and state.round_no <= 40:
        kind = state.stage.kind
        if kind is StageKind.RULED:
            state = advance_ruled_stage(state)
        elif kind is StageKind.RANDOM:
            state = resolve_random_stage(state, rng)
        else:
            legals = check_contracts(state)
            seen.add(state.stage)
            action = (rng.choice(legals) if agent == "random"
                      else expert_decide(state))
            _apply_inplace(state, action)
        check_invariants(state)
    assert set(EXPERT_STAGES) <= seen


@CONTRACT
@given(seed=st.integers(0, 2**32 - 1),
       difficulty=st.sampled_from(["medium", "hard"]),
       agent=st.sampled_from(["random", "expert"]))
def test_combat_declarations_still_hold_at_their_resolution(seed, difficulty,
                                                           agent):
    """The resolution stages trust the declarations: at enemy-attacks every
    declared enemy is still engaged and a hero is in play; at
    player-attacks every declared enemy is still engaged and every declared
    attacker is still in play. Within enemy-attacks a hero leaves play only
    by being destroyed, which ends the game when it was the last one, so
    every attack there finds a hero."""
    rng = Random(seed)
    state = new_game(SHIPPED, difficulty, rng)
    declared = {}
    while state.outcome is None and state.round_no <= 40:
        stage = state.stage
        if stage.kind is StageKind.DECISION:
            action = (rng.choice(legal_actions(state)) if agent == "random"
                      else expert_decide(state))
            declared[stage.next] = getattr(action, "assignments", ())
            state = apply_action(state, action)
            continue
        if stage is StageId.RESOLVE_ENEMY_ATTACKS:
            engaged = {e.instance_id for e in state.engaged_enemies()}
            assert all(enemy in engaged for enemy, _ in declared[stage])
            assert state.heroes() or not declared[stage]
        elif stage is StageId.RESOLVE_PLAYER_ATTACKS:
            engaged = {e.instance_id for e in state.engaged_enemies()}
            for enemy, group in declared[stage]:
                assert enemy in engaged
                assert all(state.cards[a].zone is Zone.PLAY_AREA for a in group)
        state = (advance_ruled_stage(state) if stage.kind is StageKind.RULED
                 else resolve_random_stage(state, rng))
        assert state.heroes() or state.outcome is Outcome.LOSS_HEROES_DEAD


def perturbed(state, action) -> list:
    """Illegal variants of a legal action at the state's decision stage:
    ids out of range, repeated ids, a hand card never drawn, exhausted
    characters, missing or extra enemies, empty attack groups, and actions
    of the wrong type."""
    far = len(state.cards)
    undrawn = state.player_deck[-1:]
    hand = [c.instance_id for c in state.hand()]
    ready = [c.instance_id for c in state.ready_characters()]
    tired = [c.instance_id for c in state.in_zone(Zone.PLAY_AREA)
             if c.exhausted and c.defn.kind in CHARACTER_KINDS]
    engaged = [e.instance_id for e in state.engaged_enemies()]
    out = ["pass", Commit((0,)) if isinstance(action, PlayCards) else PlayCards(())]
    if isinstance(action, PlayCards):
        picked = action.cards
        out += [PlayCards(picked + (far,)), PlayCards(picked + (-1,))]
        out += [PlayCards(picked + (iid,)) for iid in undrawn]
        out += [PlayCards(picked + (iid, iid)) for iid in hand[:1] if iid not in picked]
        out += [PlayCards(picked + picked[:1])] if picked else []
    elif isinstance(action, Commit):
        picked = action.characters
        out += [Commit(picked + (far,)), Commit(picked + (-1,))]
        out += [Commit(picked + (iid,)) for iid in undrawn + hand[:1] + tired[:1]]
        out += [Commit(picked + picked[:1])] if picked else []
    elif isinstance(action, TravelTo):
        out += [TravelTo(far), TravelTo(-1), TravelTo(0)]
        out += [TravelTo(iid) for iid in undrawn]
    elif isinstance(action, Defend):
        given = list(action.assignments)
        out += [Defend(given + [(far, None)]), Defend(given + [(0, None)])]
        if given:
            (enemy, _), rest = given[0], given[1:]
            out += [Defend(rest),
                    Defend(given + [(enemy, None)]),
                    Defend([(enemy, far)] + rest)]
            out += [Defend(given + [(enemy, iid)]) for iid in ready[:1]]
            out += [Defend([(enemy, iid)] + rest) for iid in tired[:1] + hand[:1]]
    elif isinstance(action, Attack):
        given = list(action.assignments)
        attackers = ready[:1] or [0]
        out += [Attack(given + [(far, tuple(attackers))]),
                Attack(given + [(hand[0] if hand else 0, tuple(attackers))])]
        out += [Attack([(enemy, ())]) for enemy in engaged[:1]]
        out += [Attack([(enemy, (far,))]) for enemy in engaged[:1]]
        out += [Attack([(enemy, (iid,))]) for enemy in engaged[:1] for iid in tired[:1]]
        if given:
            enemy, group = given[0]
            out += [Attack([(enemy, group + group[:1])] + given[1:]),
                    Attack(given + [(enemy, ())])]
    return out


@CONTRACT
@given(seed=st.integers(0, 2**32 - 1),
       difficulty=st.sampled_from(["medium", "hard"]))
def test_perturbed_actions_are_rejected_by_name(seed, difficulty):
    rng = Random(seed)
    state = new_game(SHIPPED, difficulty, rng)
    while state.outcome is None and state.round_no <= 25:
        kind = state.stage.kind
        if kind is StageKind.RULED:
            state = advance_ruled_stage(state)
        elif kind is StageKind.RANDOM:
            state = resolve_random_stage(state, rng)
        else:
            action = rng.choice(legal_actions(state))
            fingerprint = state.fingerprint()
            index = [ids[:] for ids in state.zone_ids]
            for bad in perturbed(state, action):
                with pytest.raises((IllegalActionError, StageError)):
                    apply_action(state, bad)
            assert state.fingerprint() == fingerprint
            assert state.zone_ids == index
            _apply_inplace(state, action)


class Audited:
    """A playout policy whose every action is also checked by
    check_and_effect_agree."""

    def __init__(self, inner, seen: set):
        self.inner = inner
        self.needs_legals = inner.needs_legals
        self.seen = seen

    def decide(self, state, legals, rng):
        action = self.inner.decide(state, legals, rng)
        check_and_effect_agree(state, action)
        self.seen.add(state.stage)
        return action


@CONTRACT
@given(seed=st.integers(0, 2**32 - 1),
       difficulty=st.sampled_from(["medium", "hard"]),
       policy=st.sampled_from(["random", "expert"]))
def test_playout_actions_pass_their_check_and_match_the_effect(seed, difficulty,
                                                              policy):
    rng = Random(seed)
    seen: set = set()
    audited = {stage: Audited(inner, seen)
               for stage, inner in _PLAYOUTS[policy].items()}
    state = determinize(new_game(SHIPPED, difficulty, rng), rng)
    _finish(state, audited, rng)
    check_invariants(state)
    assert state.outcome is not None
    assert set(EXPERT_STAGES) <= seen


def synth_game():
    return helpers.new_synth_game(seed=1, scenario=SYNTH)


@CONTRACT
@given(hand=st.lists(st.sampled_from(HAND_CARDS), min_size=8, max_size=11),
       pools=st.tuples(*[st.integers(2, 9)] * 3))
def test_expert_planning_stays_legal_when_capped(hand, pools):
    game = at_stage(synth_game(), StageId.PLANNING)
    stash_hand(game)
    for cid in hand:
        put(game, cid, Zone.HAND)
    for hero, pool in zip(game.heroes(), pools):
        hero.resource_pool = pool
    assume(family_capped(game))
    check_contracts(game)


@CONTRACT
@given(pools=st.tuples(*[st.integers(0, 3)] * 3),
       buy=st.lists(st.tuples(st.sampled_from(BUY_SPHERES), st.integers(0, 4)),
                    max_size=7),
       data=st.data())
def test_take_is_exact_in_any_order(pools, buy, data):
    """Taking a buy's cards one at a time gives the same verdict, and when
    the buy is payable the same resources left, in any order; for each
    subset of the buy the verdict is the set rule that _unpayable states."""
    heroes = synth_game().heroes()
    for hero, pool in zip(heroes, pools):
        hero.resource_pool = pool
    defs = [CardDef(f"card-{i}", "Card", CardKind.ALLY, sphere=sphere, cost=cost)
            for i, (sphere, cost) in enumerate(buy)]

    def left_after(cards):
        left = hero_pools(heroes)
        for d in cards:
            left = take(d, left)
            if left is None:
                break
        return left

    for k in range(len(defs) + 1):
        for subset in combinations(defs, k):
            assert (left_after(subset) is None) == (_unpayable(heroes, subset) is not None)
    assert left_after(data.draw(st.permutations(defs))) == left_after(defs)


@CONTRACT
@given(allies=st.lists(st.sampled_from(ALLIES), min_size=5, max_size=9),
       staged=st.lists(st.sampled_from(ENEMIES + LOCATIONS), max_size=6))
def test_expert_commit_stays_legal_when_capped(allies, staged):
    game = at_stage(synth_game(), StageId.COMMIT_CHARACTERS)
    for cid in allies:
        put(game, cid, Zone.PLAY_AREA)
    for cid in staged:
        put(game, cid, Zone.STAGING_AREA)
    assume(family_capped(game))
    check_contracts(game)


@CONTRACT
@given(enemies=st.lists(st.sampled_from(ENEMIES), min_size=2, max_size=6),
       allies=st.lists(st.sampled_from(ALLIES), min_size=1, max_size=7),
       exhausted=st.sets(st.integers(0, 9)))
def test_expert_defense_stays_legal_when_capped(enemies, allies, exhausted):
    game = at_stage(synth_game(), StageId.DECLARE_DEFENDERS)
    for cid in enemies:
        put(game, cid, Zone.ENGAGEMENT_AREA)
    for i, cid in enumerate(allies):
        put(game, cid, Zone.PLAY_AREA, exhausted=i in exhausted)
    assume(family_capped(game))
    check_contracts(game)


@CONTRACT
@given(enemies=st.lists(st.sampled_from(ENEMIES), max_size=5),
       damage=st.lists(st.integers(0, 1), max_size=5),
       allies=st.lists(st.sampled_from(ALLIES), max_size=6))
def test_default_attack_heads_the_attack_family(enemies, damage, allies):
    game = at_stage(synth_game(), StageId.DECLARE_ATTACKERS)
    for cid, dmg in zip(enemies, damage + [0] * len(enemies)):
        put(game, cid, Zone.ENGAGEMENT_AREA, damage=dmg)
    for cid in allies:
        put(game, cid, Zone.PLAY_AREA)
    check_contracts(game)


@CONTRACT
@given(staged=st.lists(st.sampled_from(LOCATIONS + ENEMIES), max_size=6),
       active=st.booleans())
def test_default_travel_heads_the_travel_family(staged, active):
    game = at_stage(synth_game(), StageId.TRAVEL)
    for cid in staged:
        put(game, cid, Zone.STAGING_AREA)
    if active:
        put(game, "loc-ridge", Zone.ACTIVE_LOCATION)
    check_contracts(game)
