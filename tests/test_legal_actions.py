"""Legal-action enumeration: completeness against brute force, family
order contracts, caps and pass actions."""

import itertools
import time

import pytest

from questsim.cards import CardKind, Sphere
from questsim.engine import (
    MAX_COMMIT_ENUM,
    MAX_DEFEND_ACTIONS,
    MAX_PLANNING_ACTIONS,
    apply_action,
    legal_actions,
)
from questsim.errors import StageError
from questsim.state import (
    Attack,
    Commit,
    Defend,
    Outcome,
    PlayCards,
    StageId,
    TravelTo,
    Zone,
)

import helpers
from helpers import at_stage, put, stash_hand


# ---- planning ---------------------------------------------------------------


def brute_payable_subsets(state):
    """Independent affordability check over all hand subsets."""
    heroes = state.heroes()
    pools = {}
    for h in heroes:
        pools[h.defn.sphere] = pools.get(h.defn.sphere, 0) + h.resource_pool
    total_pool = sum(h.resource_pool for h in heroes)
    hand = state.hand()
    out = []
    for r in range(1, len(hand) + 1):
        for combo in itertools.combinations(range(len(hand)), r):
            cards = [hand[i] for i in combo]
            demand = {}
            for c in cards:
                if c.defn.sphere is not Sphere.NEUTRAL:
                    demand[c.defn.sphere] = (demand.get(c.defn.sphere, 0)
                                             + c.defn.cost)
            total = sum(c.defn.cost for c in cards)
            if total <= total_pool and all(
                    demand[s] <= pools.get(s, 0) for s in demand):
                out.append((combo, tuple(c.instance_id for c in cards)))
    return out


def planning_state(game, hand_ids, pools):
    stash_hand(game)
    at_stage(game, StageId.PLANNING)
    for cid in hand_ids:
        put(game, cid, Zone.HAND)
    for hero, pool in zip(game.heroes(), pools):
        hero.resource_pool = pool
    return game


def test_planning_matches_brute_force(game):
    planning_state(game, ["ally-lantern", "ally-banner", "ally-shield",
                          "ally-porter", "item-charm", "event-respite"],
                   (2, 2, 1))
    legals = legal_actions(game)
    brute = brute_payable_subsets(game)
    assert set(legals) == {PlayCards(ids) for _, ids in brute} | {PlayCards(())}
    assert legals[-1] == PlayCards(())
    assert len(legals) == len(brute) + 1


def test_planning_order_is_depth_first_hand_order(game):
    planning_state(game, ["ally-lantern", "ally-porter", "item-charm"],
                   (3, 0, 0))
    legals = legal_actions(game)
    brute = brute_payable_subsets(game)
    # Depth-first traversal of hand positions emits subsets in lexicographic
    # position order: (0,) (0,1) (0,1,2) (0,2) (1,) ...
    expected = [PlayCards(ids) for _, ids in sorted(brute)]
    assert legals == expected + [PlayCards(())]


def test_planning_includes_empty_even_when_nothing_affordable(game):
    planning_state(game, ["gandalf"], (0, 0, 0))
    assert legal_actions(game) == [PlayCards(())]


def test_planning_cap_collapses_to_singletons(game):
    planning_state(game, ["ally-lantern"] * 8, (9, 9, 9))
    legals = legal_actions(game)
    assert len(legals) == 9  # 8 singletons plus the empty buy
    assert all(len(a.cards) <= 1 for a in legals)
    assert legals[-1] == PlayCards(())


def test_planning_small_family_not_capped(game):
    planning_state(game, ["ally-lantern", "ally-porter"], (2, 0, 0))
    assert len(legal_actions(game)) <= MAX_PLANNING_ACTIONS


def test_capped_planning_family_lists_singles_by_descending_cost(game):
    # Seven cards payable together (5 spirit, 2 leadership, 1 neutral from
    # the leadership spare) and an unpayable tactics Blade: 127 payable
    # subsets, capped.
    planning_state(game, ["item-blade"] + ["ally-lantern"] * 5
                   + ["ally-banner", "ally-porter"], (5, 3, 0))
    _, *lanterns, banner, porter = [c.instance_id for c in game.hand()]
    singles = [banner, *lanterns, porter]  # by descending cost, then id
    assert legal_actions(game) == ([PlayCards((i,)) for i in singles]
                                   + [PlayCards(())])


def test_planning_walk_stops_at_the_cap(game):
    # 30 neutral one-cost cards and 6 resources: about 768k subsets are
    # payable. The walk must stop once the family overflows, not list them
    # all.
    planning_state(game, ["ally-porter"] * 30, (2, 2, 2))
    start = time.perf_counter()
    legals = legal_actions(game)
    assert time.perf_counter() - start < 0.5
    assert legals == ([PlayCards((c.instance_id,)) for c in game.hand()]
                      + [PlayCards(())])


# ---- commit -----------------------------------------------------------------


def commit_state(game, staged=(), allies=()):
    at_stage(game, StageId.COMMIT_CHARACTERS)
    for cid in staged:
        put(game, cid, Zone.STAGING_AREA)
    for cid in allies:
        put(game, cid, Zone.PLAY_AREA)
    return game


def brute_commit_subsets(state):
    threshold = state.staging_threat()
    pool = [c for c in state.ready_characters()
            if not c.committed and c.willpower > 0]
    out = []
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            total = sum(c.willpower for c in combo)
            if total > threshold:
                out.append((total, tuple(c.instance_id for c in combo)))
    return out


def test_commit_matches_brute_force(game):
    commit_state(game, staged=["enemy-warg"], allies=["ally-porter",
                                                      "ally-banner"])
    legals = legal_actions(game)
    brute = brute_commit_subsets(game)
    assert set(legals) == {Commit(ids) for _, ids in brute} | {Commit(())}
    # Ascending total willpower, ties by the id tuple, empty last.
    assert legals == [Commit(ids) for _, ids in sorted(brute)] + [Commit(())]


def test_commit_excludes_zero_willpower_characters(game):
    commit_state(game, allies=["ally-shield"])  # willpower 0
    shield = helpers.by_id(game, "ally-shield")[0]
    for action in legal_actions(game):
        assert shield.instance_id not in action.characters


def test_commit_empty_only_when_threshold_unreachable(game):
    commit_state(game, staged=["enemy-troll", "enemy-troll", "enemy-troll"])
    assert legal_actions(game) == [Commit(())]  # 7 willpower vs threat 9


def test_commit_large_pool_offers_descending_prefixes(game):
    allies = ["ally-porter", "ally-lantern", "ally-banner", "gandalf",
              "ally-porter"]
    commit_state(game, staged=["enemy-warg"], allies=allies)
    pool = [c for c in game.ready_characters() if c.willpower > 0]
    assert len(pool) == 8 > MAX_COMMIT_ENUM
    legals = legal_actions(game)
    ordered = sorted(pool, key=lambda c: (-c.willpower, c.instance_id))
    expected = []
    ids, total = [], 0
    for c in ordered:
        ids.append(c.instance_id)
        total += c.willpower
        if total > 2:  # warg threat
            expected.append(Commit(tuple(ids)))
    assert legals == expected + [Commit(())]


# ---- travel -----------------------------------------------------------------


def test_travel_orders_locations_by_threat(game):
    at_stage(game, StageId.TRAVEL)
    clearing = put(game, "loc-clearing", Zone.STAGING_AREA)  # threat 1
    ridge = put(game, "loc-ridge", Zone.STAGING_AREA)        # threat 2
    assert legal_actions(game) == [TravelTo(ridge.instance_id),
                                   TravelTo(clearing.instance_id),
                                   TravelTo(None)]


def test_travel_only_pass_while_location_active(game):
    at_stage(game, StageId.TRAVEL)
    put(game, "loc-clearing", Zone.ACTIVE_LOCATION)
    put(game, "loc-ridge", Zone.STAGING_AREA)
    assert legal_actions(game) == [TravelTo(None)]


# ---- defend -----------------------------------------------------------------


def defend_state(game, n_enemies=3, extra_allies=("ally-porter",
                                                  "ally-banner")):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    enemy_ids = ["enemy-wolf", "enemy-warg", "enemy-troll"]
    for cid in enemy_ids[:n_enemies]:
        put(game, cid, Zone.ENGAGEMENT_AREA)
    for cid in extra_allies:
        put(game, cid, Zone.PLAY_AREA)
    return game


def brute_defend_assignments(state):
    """All ways to give each engaged enemy at most one distinct ready
    defender."""
    enemies = [e.instance_id for e in state.engaged_enemies()]
    ready = [c.instance_id for c in state.ready_characters()]
    out = set()
    for picks in itertools.product([None, *ready], repeat=len(enemies)):
        used = [p for p in picks if p is not None]
        if len(used) == len(set(used)):
            out.add(Defend(tuple(zip(enemies, picks))))
    return out


def test_defend_three_enemies_five_ready_oracle(game):
    start = time.perf_counter()
    defend_state(game)  # 3 heroes + 2 allies ready
    assert len(game.ready_characters()) == 5
    legals = legal_actions(game)
    brute = brute_defend_assignments(game)
    assert set(legals) == brute
    assert len(legals) == len(brute) == 136

    # Full one-defender-per-enemy assignments use 10 distinct defender sets:
    # choosing which 3 of the 5 ready characters block.
    full = [a for a in legals
            if all(d is not None for _, d in a.assignments)]
    distinct_sets = {frozenset(d for _, d in a.assignments) for a in full}
    assert len(distinct_sets) == 10
    assert time.perf_counter() - start < 1.0


def preference_rank(state):
    """Each ready character's place in defending preference (allies by
    ascending cost, then heroes by descending defense, ties by id), with
    None, no defender, last."""
    ready = sorted(state.ready_characters(), key=lambda c: (
        c.defn.kind is not CardKind.ALLY,
        c.defn.cost if c.defn.kind is CardKind.ALLY else -c.defense,
        c.instance_id))
    rank = {c.instance_id: i for i, c in enumerate(ready)}
    rank[None] = len(ready)
    return rank


@pytest.mark.parametrize("fourth_enemy, expected", [(False, 136), (True, 501)])
def test_defend_family_order_matches_oracle(game, fourth_enemy, expected):
    defend_state(game)  # 3 enemies, 3 heroes + 2 allies ready
    if fourth_enemy:  # over the (n+1)^k = 1296 bound, under the cap
        put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    rank = preference_rank(game)

    def key(action):
        picks = [d for _, d in action.assignments]
        return (-sum(d is not None for d in picks), [rank[d] for d in picks])

    legals = legal_actions(game)
    assert len(legals) == expected
    assert legals == sorted(brute_defend_assignments(game), key=key)


def test_defend_walk_stays_bounded(game):
    # 14 enemies and 2 ready characters: 3^14 = 4.8M raw picks, but only
    # 1 + 14*2 + 91*2 = 211 assignments use each defender at most once.
    at_stage(game, StageId.DECLARE_DEFENDERS)
    game.heroes()[2].exhausted = True
    for _ in range(14):
        put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    start = time.perf_counter()
    legals = legal_actions(game)
    assert time.perf_counter() - start < 0.5
    assert len(legals) == 211
    assert legals[-1] == Defend(tuple((e.instance_id, None)
                                      for e in game.engaged_enemies()))


def test_defend_orders_fullest_first_pass_last(game):
    defend_state(game)
    legals = legal_actions(game)
    blocked = [sum(1 for _, d in a.assignments if d is not None)
               for a in legals]
    assert blocked == sorted(blocked[:-1], reverse=True) + [0]
    assert legals[-1] == Defend(tuple((e.instance_id, None)
                                      for e in game.engaged_enemies()))


def test_defend_zero_enemies_single_action(game):
    at_stage(game, StageId.DECLARE_DEFENDERS)
    assert legal_actions(game) == [Defend(())]


def test_defend_cap_collapses_to_single_defender(game):
    defend_state(game, n_enemies=3,
                 extra_allies=["ally-porter", "ally-banner", "ally-lantern",
                               "ally-shield"])
    put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)  # 4th enemy, 7 ready
    assert helpers.family_capped(game)
    legals = legal_actions(game)
    assert len(legals) == 4 * 7 + 1
    for action in legals[:-1]:
        assert sum(1 for _, d in action.assignments if d is not None) == 1
    assert legals[-1] == Defend(tuple((e.instance_id, None)
                                      for e in game.engaged_enemies()))


def brute_defend_count(k, n):
    """Assignments of at most one of n distinct defenders to each of k
    enemies, counted one by one up to one past the defend cap."""
    count = 0

    def rec(i, used):
        nonlocal count
        if count > MAX_DEFEND_ACTIONS:
            return
        if i == k:
            count += 1
            return
        rec(i + 1, used)
        for d in range(n):
            if not used >> d & 1:
                rec(i + 1, used | 1 << d)

    rec(0, 0)
    return count


def test_defend_family_is_every_assignment_up_to_the_cap():
    # 4 enemies and 4 defenders: (4+1)^4 = 625 raw picks, 209 assignments.
    assert brute_defend_count(4, 4) == helpers.defend_count(4, 4) == 209
    enemy_ids = ["enemy-wolf", "enemy-warg", "enemy-troll"]
    ally_ids = ["ally-porter", "ally-banner", "ally-lantern", "ally-shield"]
    for k in range(7):
        for n in range(11):
            game = helpers.new_synth_game(seed=1)
            at_stage(game, StageId.DECLARE_DEFENDERS)
            for hero in game.heroes():
                hero.exhausted = True
            for i in range(k):
                put(game, enemy_ids[i % 3], Zone.ENGAGEMENT_AREA)
            for i in range(n):
                put(game, ally_ids[i % 4], Zone.PLAY_AREA)
            count = brute_defend_count(k, n)
            capped = count > MAX_DEFEND_ACTIONS
            assert len(legal_actions(game)) == (k * n + 1 if capped else count), (k, n)
            assert helpers.family_capped(game) == capped, (k, n)


def test_all_defend_actions_apply_cleanly(game):
    defend_state(game)
    for action in legal_actions(game):
        nxt = apply_action(game, action)
        assert nxt.stage is StageId.RESOLVE_ENEMY_ATTACKS


# ---- attack -----------------------------------------------------------------


def brute_attack_assignments(state):
    enemies = [e.instance_id for e in state.engaged_enemies()]
    ready = [c.instance_id for c in state.ready_characters()]
    out = set()
    for picks in itertools.product([None, *enemies], repeat=len(ready)):
        groups = {}
        for cid, eid in zip(ready, picks):
            if eid is not None:
                groups.setdefault(eid, []).append(cid)
        out.add(Attack(tuple((e, tuple(g)) for e, g in groups.items())))
    return out


def test_attack_matches_brute_force(game):
    at_stage(game, StageId.DECLARE_ATTACKERS)
    put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
    put(game, "enemy-warg", Zone.ENGAGEMENT_AREA)
    legals = legal_actions(game)
    brute = brute_attack_assignments(game)
    assert set(legals) == brute
    assert len(legals) == len(brute) == 27  # 3 ready, 3 choices each
    assert legals[-1] == Attack(())


def test_attack_first_action_is_all_in_on_weakest(game):
    at_stage(game, StageId.DECLARE_ATTACKERS)
    put(game, "enemy-troll", Zone.ENGAGEMENT_AREA)  # 6 hp
    wolf = put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)  # 2 hp, weakest
    legals = legal_actions(game)
    assert legals[0] == Attack(((wolf.instance_id, (0, 1, 2)),))


def test_attack_family_order_matches_oracle(game):
    at_stage(game, StageId.DECLARE_ATTACKERS)
    # Weakest first is neither id order nor its reverse: warg (4 hp) is
    # attacked before troll (6 hp), wolf (2 hp) before both.
    for cid in ("enemy-warg", "enemy-troll", "enemy-wolf"):
        put(game, cid, Zone.ENGAGEMENT_AREA)
    put(game, "ally-porter", Zone.PLAY_AREA)
    ready = [c.instance_id for c in game.ready_characters()]
    weakest_first = sorted(game.engaged_enemies(),
                           key=lambda e: (e.remaining_hp, e.instance_id))
    rank = {e.instance_id: i for i, e in enumerate(weakest_first)}
    rank[None] = len(rank)

    def key(action):
        target = {c: e for e, group in action.assignments for c in group}
        return [rank[target.get(c)] for c in ready]

    legals = legal_actions(game)
    assert len(legals) == 4 ** 4
    assert legals == sorted(brute_attack_assignments(game), key=key)


def test_attack_cap_collapses_to_all_in_options(game):
    at_stage(game, StageId.DECLARE_ATTACKERS)
    enemies = [put(game, "enemy-wolf", Zone.ENGAGEMENT_AREA)
               for _ in range(3)]
    for _ in range(3):
        put(game, "ally-porter", Zone.PLAY_AREA)
    # 6 ready characters over 3 enemies: 4^6 = 4096 raw assignments
    legals = legal_actions(game)
    assert len(legals) == len(enemies) + 1
    ready_ids = tuple(c.instance_id for c in game.ready_characters())
    for action, enemy in zip(legals, enemies):
        assert action == Attack(((enemy.instance_id, ready_ids),))
    assert legals[-1] == Attack(())


# ---- stage guards -----------------------------------------------------------


def test_legal_actions_rejects_ruled_stage(game):
    at_stage(game, StageId.REFRESH)
    with pytest.raises(StageError, match="not a decision stage"):
        legal_actions(game)


def test_legal_actions_rejects_finished_game(game):
    game.outcome = Outcome.WIN
    with pytest.raises(StageError, match="over"):
        legal_actions(game)


def test_every_stage_has_its_pass_action(game):
    passes = {
        StageId.PLANNING: PlayCards(()),
        StageId.COMMIT_CHARACTERS: Commit(()),
        StageId.TRAVEL: TravelTo(None),
        StageId.DECLARE_DEFENDERS: Defend(()),
        StageId.DECLARE_ATTACKERS: Attack(()),
    }
    for stage, pass_action in passes.items():
        at_stage(game, stage)
        legals = legal_actions(game)
        assert legals, stage
        assert pass_action in legals, stage
