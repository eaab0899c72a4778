"""Per-layer measurements for the traced benchmark run.

Two sources feed the per-layer metrics:

* Spans. Tracer.wrap times a callable; installed() substitutes wrapped
  versions for the attributes named in SPANS for the duration of a with
  block and restores the originals afterwards. Spans are aggregated in
  memory as self time per layer (a span's duration minus the spans it
  directly encloses) and call counts per span name.
* Fixed states. fixed_states() steps seeded games through the public
  functional API (advance_ruled_stage, resolve_random_stage, apply_action)
  and keeps the first state with each wanted property; every layer is then
  timed from outside on those states.

Layers are the package's modules: cards, state, engine, agents, search and
experiments.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from random import Random

STATE_QUERIES = ("hand", "in_zone", "heroes", "ready_characters",
                 "committed_characters", "engaged_enemies", "staging_threat",
                 "active_location")

# (owner, attribute, span name, layer). Owners are dotted paths from the
# package; a missing attribute is reported and skipped, so a refactor that
# removes one costs only that span. The three private stage steps are the
# engine work that search runs inside playouts.
SPANS = tuple(("state.GameState", query, "state.query", "state")
              for query in STATE_QUERIES) + (
    ("", "new_game", "engine.new_game", "engine"),
    ("", "play_game", "engine.play_game", "engine"),
    ("engine", "legal_actions", "engine.legal_actions", "engine"),
    ("search", "legal_actions", "engine.legal_actions", "engine"),
    ("search", "_apply_inplace", "engine.stage", "engine"),
    ("search", "_ruled_inplace", "engine.stage", "engine"),
    ("search", "_random_inplace", "engine.stage", "engine"),
    ("state.GameState", "clone", "state.clone", "state"),
    ("agents.ExpertPolicy", "decide", "agents.decide", "agents"),
    ("agents.RandomPolicy", "decide", "agents.decide", "agents"),
    ("agents.FixedTravelPolicy", "decide", "agents.decide", "agents"),
    ("agents.FixedAttackPolicy", "decide", "agents.decide", "agents"),
    ("search", "determinize", "search.determinize", "search"),
    ("search.MctsPolicy", "decide", "search.decide", "search"),
    ("search.FlatMcPolicy", "decide", "search.decide", "search"),
)
TRACED_LAYERS = ("engine", "state", "agents", "search")
COUNTED_SPANS = ("engine.legal_actions", "engine.stage", "state.clone",
                 "state.query", "agents.decide", "search.determinize")

# Fixed-state search: seeded games tried before giving up.
FIXTURE_GAMES = 200
MCTS_BUDGET, FLAT_BUDGET = 40, 20
PARALLEL_GAMES = 500


class Tracer:
    """In-memory span aggregates for one caller (no threads)."""

    def __init__(self):
        self.stack: list[float] = []      # child time of each open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()

    def wrap(self, name: str, layer: str, fn):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
        return span

    def per_game_metrics(self, games: int) -> dict:
        """Each layer's share of the traced self time, and span calls per game."""
        total = sum(self.self_s.values())
        out = {f"{layer}.self_share": metric(self.self_s[layer] / total, "ratio")
               for layer in TRACED_LAYERS}
        for name in COUNTED_SPANS:
            out[f"{name}.calls_per_game"] = metric(self.calls[name] / games, "count")
        return out


def _resolve(qs, dotted: str):
    owner = qs
    for part in filter(None, dotted.split(".")):
        owner = getattr(owner, part, None)
    return owner


@contextmanager
def installed(qs, tracer: Tracer):
    """Substitute traced versions of the SPANS attributes, then restore."""
    saved = []
    try:
        for owner_path, attr, name, layer in SPANS:
            owner = _resolve(qs, owner_path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                print(f"benchmark: no span for {owner_path}.{attr}: not found",
                      file=sys.stderr)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, layer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def workload_counts(tally, untraced: dict, traced_wall: float) -> dict:
    """Counts from the untraced and traced passes over the same games."""
    games = tally.games
    search = untraced["search_decisions"]
    return {
        "trace.stages_per_game": metric(tally.stages / games, "count"),
        "trace.decisions_per_game": metric(untraced["decisions"] / games, "count"),
        "trace.playouts_per_decision": metric(
            untraced["playouts"] / search if search else 0.0, "count"),
        "trace.overhead_frac": metric(traced_wall / untraced["wall"] - 1.0, "ratio"),
    }


# ---- fixed states -----------------------------------------------------------


def _walk(qs, scenario, difficulty: str, seed: int, decide):
    """Every state of one game, stepped through the functional API."""
    rng = Random(seed)
    state = qs.new_game(scenario, difficulty, rng)
    while state.outcome is None:
        yield state
        kind = state.stage.kind
        if kind is qs.StageKind.RULED:
            state = qs.advance_ruled_stage(state)
        elif kind is qs.StageKind.RANDOM:
            state = qs.resolve_random_stage(state, rng)
        else:
            state = qs.apply_action(state, decide(state))


def _wanted(qs):
    """name -> (stage, property, description) of each fixed decision state."""
    S = qs.StageId

    def staged_locations(s):
        return [c for c in s.in_zone(qs.Zone.STAGING_AREA)
                if c.defn.kind is qs.CardKind.LOCATION]

    return {
        "commit": (S.COMMIT_CHARACTERS,
                   lambda s: sum(1 for c in s.ready_characters()
                                 if c.willpower > 0) >= 4,
                   "at least 4 ready characters with willpower"),
        "travel": (S.TRAVEL,
                   lambda s: (s.active_location() is None
                              and len(staged_locations(s)) >= 2),
                   "no active location and at least 2 staged locations"),
        "midgame": (S.DECLARE_DEFENDERS,
                    lambda s: (len(s.engaged_enemies()) >= 2
                               and all(e.shadow_card is not None
                                       for e in s.engaged_enemies())),
                    "at least 2 engaged enemies, each dealt a shadow card"),
        "attack": (S.DECLARE_ATTACKERS,
                   lambda s: (len(s.engaged_enemies()) >= 1
                              and len(s.ready_characters()) >= 2),
                   "an engaged enemy and at least 2 ready characters"),
        "planning": (S.PLANNING, lambda s: len(s.hand()) >= 8,
                     "a hand of at least 8 cards"),
    }


def fixed_states(qs, scenario, seed: int) -> dict:
    """Seeded fixed states, each asserted to have its stated property.

    opening: a fresh medium game. planning: a wide hand, reached by buying
    nothing. commit/travel/midgame/attack: expert play on hard; shadows is
    the deal-shadows state just before midgame, and ruled the enemy-attack
    state just after it.
    """
    wanted = _wanted(qs)
    found = {"opening": qs.new_game(scenario, "medium",
                                    Random(qs.derive_seed(seed, 0)))}

    def buy_nothing(s):
        return (qs.PlayCards(()) if s.stage is qs.StageId.PLANNING
                else qs.expert_decide(s))

    walks = (("hard", qs.expert_decide, ("commit", "travel", "midgame", "attack")),
             ("medium", buy_nothing, ("planning",)))
    for difficulty, decide, names in walks:
        for k in range(FIXTURE_GAMES):
            if all(name in found for name in names):
                break
            previous = None
            for state in _walk(qs, scenario, difficulty,
                               qs.derive_seed(seed, 1000 + k), decide):
                for name in names:
                    stage, has_property, _ = wanted[name]
                    if (name not in found and state.stage is stage
                            and has_property(state)):
                        found[name] = state
                        if name == "midgame":
                            found["shadows"] = previous
                previous = state
    missing = [f"{name} ({wanted[name][2]})" for name in wanted if name not in found]
    if missing:
        raise RuntimeError(f"no fixed state found in {FIXTURE_GAMES} seeded "
                           f"games for: {', '.join(missing)}")
    midgame = found["midgame"]
    found["ruled"] = qs.apply_action(midgame, qs.expert_decide(midgame))
    assert found["shadows"].stage is qs.StageId.DEAL_SHADOW_CARDS
    assert found["ruled"].stage is qs.StageId.RESOLVE_ENEMY_ATTACKS
    return found


# ---- timing -----------------------------------------------------------------


def per_call_s(fn, net_of=None, batch_s: float = 0.01, batches: int = 7) -> float:
    """Median seconds per call of fn() over batches sized to take about
    batch_s each (one call per batch when a call is slower than that).

    With net_of, batches of net_of() alternate with those of fn() and the
    result is the difference of the two medians.
    """
    clock = time.perf_counter

    def batch(f, n: int) -> float:
        start = clock()
        for _ in range(n):
            f()
        return (clock() - start) / n

    n = 1
    while batch(fn, n) * n < batch_s / 2:
        n *= 2
    if net_of is None:
        return statistics.median([batch(fn, n) for _ in range(batches)])
    times, base = [], []
    for _ in range(batches):
        times.append(batch(fn, n))
        base.append(batch(net_of, n))
    return statistics.median(times) - statistics.median(base)


def fixed_state_metrics(qs, seed: int) -> dict:
    """Every layer timed from outside on the seeded fixed states."""
    scenario = qs.load_scenario_bundle()
    st = fixed_states(qs, scenario, seed)
    rng = Random(qs.derive_seed(seed, 2))
    out: dict[str, dict] = {}

    def us(name: str, fn, net_of=None) -> None:
        out[name] = metric(per_call_s(fn, net_of) * 1e6, "us")

    def ms(name: str, fn, batches: int = 7) -> None:
        out[name] = metric(per_call_s(fn, batches=batches) * 1e3, "ms")

    ms("cards.load_bundle_ms", qs.load_scenario_bundle)

    mid = st["midgame"]
    us("state.clone_us.opening", st["opening"].clone)
    us("state.clone_us.midgame", mid.clone)
    for query in ("heroes", "ready_characters", "engaged_enemies",
                  "staging_threat", "active_location"):
        us(f"state.{query}_us", getattr(mid, query))

    families = {"planning": "planning", "commit": "commit", "travel": "travel",
                "defend": "midgame", "attack": "attack"}
    for family, name in families.items():
        state = st[name]
        us(f"engine.legal_actions_us.{family}", lambda: qs.legal_actions(state))
        out[f"engine.legal_actions_count.{family}"] = metric(
            len(qs.legal_actions(state)), "count")

    # The functional stage steps clone their input; report them net of it.
    for family, name in (("planning", "planning"), ("defend", "midgame")):
        state = st[name]
        action = qs.expert_decide(state)
        us(f"engine.apply_action_us.{family}",
           lambda: qs.apply_action(state, action), net_of=state.clone)
    us("engine.ruled_stage_us", lambda: qs.advance_ruled_stage(st["ruled"]),
       net_of=st["ruled"].clone)
    us("engine.random_stage_us",
       lambda: qs.resolve_random_stage(st["shadows"], rng),
       net_of=st["shadows"].clone)
    us("engine.new_game_us", lambda: qs.new_game(scenario, "medium", rng))

    for stage, name in (("planning", "planning"), ("commit", "commit"),
                        ("defense", "midgame")):
        state = st[name]
        us(f"agents.expert_decide_us.{stage}", lambda: qs.expert_decide(state))
    us("agents.default_travel_us", lambda: qs.default_travel(st["travel"]))
    us("agents.default_attack_us", lambda: qs.default_attack(st["attack"]))

    us("search.determinize_us.midgame",
       lambda: qs.determinize(mid.clone(), rng), net_of=mid.clone)
    for policy in ("random", "expert"):
        ms(f"search.playout_ms.{policy}",
           lambda: qs.playout(st["opening"], policy, rng))
    wide = st["planning"]
    wide_legals = qs.legal_actions(wide)
    mcts = qs.SearchConfig(MCTS_BUDGET, 0.7, "expert")
    ms("search.mcts_decide_ms",
       lambda: qs.mcts_decide(wide, wide_legals, mcts, rng), batches=5)
    mid_legals = qs.legal_actions(mid)
    flat = qs.SearchConfig(FLAT_BUDGET, playout_policy="random")
    ms("search.flat_mc_decide_ms",
       lambda: qs.flat_mc_decide(mid, mid_legals, flat, rng), batches=5)

    out["experiments.parallel_efficiency"] = metric(parallel_efficiency(qs, seed),
                                                "ratio")
    return out


def parallel_efficiency(qs, seed: int) -> float:
    """games/s of run_games at 2 workers over twice that at 1 worker, for
    expert play on hard; both batches must agree on every result."""
    pmap = qs.parse_policy_map("planning=expert,commit=expert,defense=expert")
    stats = [qs.run_games(qs.ExperimentConfig(
        games=PARALLEL_GAMES, master_seed=seed, policy_map=pmap,
        difficulty="hard", workers=workers)) for workers in (1, 2)]
    if (stats[0].wins, stats[0].mean_rounds) != (stats[1].wins, stats[1].mean_rounds):
        raise RuntimeError("run_games results depend on the worker count")
    return stats[0].wall_time_s / (2 * stats[1].wall_time_s)
