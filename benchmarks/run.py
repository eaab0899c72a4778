"""Seeded closed-loop benchmark of the questsim batch simulator.

Each workload plays whole games back to back from one caller, game i seeded
by derive_seed(--seed, i), until --seconds have passed, then checks its
outcomes against run_games and a check=True replay. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 replays the games with
spans installed around the calls into each layer and reports the per-layer
metrics (see layers.py). Usage:

    python3 benchmarks/run.py --workload mcts-expert --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

The package is imported from src/ of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path
from random import Random

import layers
from layers import metric

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
WORKLOADS: dict[str, dict] = SPEC["workloads"]

SETUP_REPEATS = 8        # set-ups timed at each of three points of a run
MIN_DECISIONS = 100      # p90 needs ten samples beyond it
VERIFY_WORKERS = 2       # run_games check of the timed games
CHECK_SHARE = 0.03       # share of the timed games replayed with check=True


class CheckFailed(Exception):
    """An output of the program differs from its reference."""


def import_questsim():
    """Import questsim from src/ next to this directory, never from elsewhere."""
    src = BENCH_DIR.parent / "src"
    if not (src / "questsim" / "__init__.py").is_file():
        sys.exit(f"benchmark: no questsim package under {src}")
    sys.path.insert(0, str(src))
    import questsim
    if Path(questsim.__file__).resolve().parent != (src / "questsim").resolve():
        sys.exit(f"benchmark: imported questsim from {questsim.__file__}, "
                 f"expected {src / 'questsim'}")
    return questsim


class Samples:
    """decide() wall times in bounded memory, so that the benchmark's own
    bookkeeping does not grow with the number of games a run plays. Once
    CAP are kept, every other one is dropped and from then on only every
    stride-th call is kept, so the kept samples stay evenly spread."""

    CAP = 1 << 15

    def __init__(self):
        self.count = 0
        self.stride = 1
        self.kept = array("d")

    def add(self, seconds: float) -> None:
        self.count += 1
        if self.count % self.stride == 0:
            self.kept.append(seconds)
            if len(self.kept) == self.CAP:
                del self.kept[::2]
                self.stride *= 2

    def clear(self) -> None:
        self.__init__()


class TimedPolicy:
    """A stage policy whose decide() calls are timed into `samples`.

    needs_legals passes through, so play_game hands the wrapped policy the
    same arguments and the game plays out exactly as without the wrapper.
    """

    def __init__(self, policy, samples: Samples):
        self.policy = policy
        self.needs_legals = getattr(policy, "needs_legals", True)
        self.samples = samples

    def decide(self, state, legals, rng):
        start = time.perf_counter()
        action = self.policy.decide(state, legals, rng)
        self.samples.add(time.perf_counter() - start)
        return action


class Workload:
    """One workload's scenario, policies and per-run counters."""

    def __init__(self, qs, name: str, time_all_stages: bool = False):
        spec = WORKLOADS[name]
        self.qs = qs
        self.name = name
        self.difficulty = spec["difficulty"]
        self.pmap = qs.parse_policy_map(spec["agents"])
        self.golden = spec["golden"]
        self.playouts = 0
        # Timed decide() seconds at search stages and at the other stages.
        self.search_samples = Samples()
        self.other_samples = Samples()
        self.scenario, self.policies = self._setup(time_all_stages)

    def reset(self) -> None:
        self.playouts = 0
        self.search_samples.clear()
        self.other_samples.clear()

    def _count_playout(self) -> None:
        self.playouts += 1

    def _setup(self, time_all_stages: bool):
        """Load the scenario bundle and build the stage policies. Search
        stages count playouts through the build_policy hook; the timed
        stages are the search stages, or every stage when there are none."""
        qs = self.qs
        scenario = qs.load_scenario_bundle()
        scenario.encounter_deck(self.difficulty)
        policies = qs.build_stage_policies(self.pmap)
        search_stages = set()
        for key, kind in self.pmap.agents().items():
            if kind.is_search:
                stage = qs.agents.STAGE_KEYS[key]
                policies[stage] = qs.build_policy(kind, on_playout=self._count_playout)
                search_stages.add(stage)
        timed = (set(policies) if time_all_stages or not search_stages
                 else search_stages)
        for stage in timed:
            samples = (self.search_samples if stage in search_stages
                       else self.other_samples)
            policies[stage] = TimedPolicy(policies[stage], samples)
        return scenario, policies

    def decision_samples(self) -> Samples:
        """decide() seconds the decision metrics cover: search-stage calls
        on search workloads, every call otherwise."""
        return (self.search_samples if self.pmap.has_search_agent()
                else self.other_samples)

    def play(self, master_seed: int, index: int, check: bool = False) -> tuple:
        """Play game `index`; returns (outcome, round_no, stages played)."""
        qs = self.qs
        rng = Random(qs.derive_seed(master_seed, index))
        state = qs.new_game(self.scenario, self.difficulty, rng)
        qs.play_game(state, self.policies, rng, check=check)
        order = qs.state.STAGE_ORDER
        stages = len(order) * (state.round_no - 1) + order.index(state.stage) + 1
        return state.outcome, state.round_no, stages


def time_setups(qs, name: str, times: list[float]) -> Workload:
    """Set the workload up SETUP_REPEATS times, appending each wall time;
    returns the last set-up."""
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = Workload(qs, name)
        times.append(time.perf_counter() - start)
    return workload


class Tally:
    """A run's game results in constant memory: counts, sums, a digest of
    the per-game (outcome, round_no) sequence and the first KEEP results,
    so that peak memory does not grow with the number of games played."""

    KEEP = 100

    def __init__(self):
        self.games = self.failed = self.wins = self.rounds = self.stages = 0
        self.first: list[tuple] = []
        self._hash = hashlib.sha256()

    def add(self, result: tuple) -> None:
        outcome, rounds, stages = result
        self.games += 1
        self.wins += outcome.value == "win"
        self.rounds += rounds
        self.stages += stages
        self._hash.update(f"{outcome.value}:{rounds},".encode())
        if len(self.first) < self.KEEP:
            self.first.append(result)

    def summary(self) -> dict:
        return {"games": self.games, "wins": self.wins,
                "mean_rounds": self.rounds / self.games,
                "digest": self._hash.hexdigest()[:16]}


def check_golden(workload: Workload) -> None:
    """Replay the pinned reference games under the invariant audit; they
    double as the warm-up, so they run before anything is timed."""
    golden = workload.golden
    tally = Tally()
    for i in range(golden["games"]):
        tally.add(workload.play(golden["master_seed"], i, check=True))
    got = tally.summary()["digest"]
    if got != golden["digest"]:
        raise CheckFailed(f"{workload.name}: reference games {golden['games']} "
                          f"at master seed {golden['master_seed']} give digest "
                          f"{got}, pinned {golden['digest']}")


def play_timed(workload: Workload, seed: int, seconds: float,
               games: int | None = None) -> tuple[Tally, float]:
    """Closed loop: play games 0, 1, ... until `seconds` have passed and the
    timed decisions reach MIN_DECISIONS (or exactly `games` games).
    Returns the results and the wall seconds."""
    tally = Tally()
    samples = workload.decision_samples()
    start = time.perf_counter()
    while True:
        try:
            tally.add(workload.play(seed, tally.games + tally.failed))
        except Exception:  # a crashing game is counted, and the run goes on
            traceback.print_exc()
            tally.failed += 1
        if games is not None:
            if tally.games + tally.failed >= games:
                break
        elif (time.perf_counter() - start >= seconds
              and samples.count >= MIN_DECISIONS):
            break
    return tally, time.perf_counter() - start


def verify(qs, workload: Workload, seed: int, tally: Tally) -> dict:
    """Check the timed games against run_games and a check=True replay of
    their first CHECK_SHARE; returns the summary of the timed games."""
    mine = tally.summary()
    config = qs.ExperimentConfig(games=tally.games, master_seed=seed,
                                 policy_map=workload.pmap,
                                 difficulty=workload.difficulty,
                                 workers=VERIFY_WORKERS)
    stats = qs.run_games(config)
    if (stats.wins, stats.mean_rounds) != (mine["wins"], mine["mean_rounds"]):
        raise CheckFailed(f"{workload.name}: timed games give wins="
                          f"{mine['wins']} mean_rounds={mine['mean_rounds']}, "
                          f"run_games gives wins={stats.wins} "
                          f"mean_rounds={stats.mean_rounds}")
    replays = min(len(tally.first), max(1, int(tally.games * CHECK_SHARE)))
    for i in range(replays):
        replay = workload.play(seed, i, check=True)
        if replay != tally.first[i]:
            raise CheckFailed(f"{workload.name}: game {i} gives {tally.first[i]} "
                              f"timed and {replay} under check=True")
    return mine


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def crashed(tally: Tally) -> dict:
    """Result of a run in which some games raised; nothing is measured."""
    return {"correct": False, "attempted": tally.games + tally.failed,
            "failed": tally.failed, "metrics": {}}


def run_end_to_end(qs, name: str, seed: int, seconds: float) -> dict:
    # Set-up is timed before the games, after them and after the checks, so
    # that one burst of load on the machine does not decide its median.
    setup_times: list[float] = []
    workload = time_setups(qs, name, setup_times)
    check_golden(workload)
    workload.reset()
    tally, wall = play_timed(workload, seed, seconds)
    if tally.failed:
        return crashed(tally)
    samples = workload.decision_samples().kept.tolist()  # the checks add more
    metrics = {
        "rounds_per_s": metric(tally.rounds / wall, "1/s"),
        "decision_ms_p50": metric(statistics.median(samples) * 1e3, "ms"),
        "decision_ms_p90": metric(statistics.quantiles(samples, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    time_setups(qs, name, setup_times)
    start = time.perf_counter()
    checked = verify(qs, workload, seed, tally)
    checks = time.perf_counter() - start
    time_setups(qs, name, setup_times)
    print(f"benchmark: timed {wall:.1f} s, checks {checks:.1f} s", file=sys.stderr)
    metrics["setup_s"] = metric(statistics.median(setup_times), "s")
    checked["games_per_s"] = tally.games / wall
    return {"attempted": tally.games, "failed": 0, "metrics": metrics,
            "summary": checked}


def run_traced(qs, name: str, seed: int, seconds: float) -> dict:
    workload = Workload(qs, name, time_all_stages=True)
    check_golden(workload)
    workload.reset()
    tally, wall = play_timed(workload, seed, seconds / 2)
    if tally.failed:
        return crashed(tally)
    untraced = {"wall": wall, "playouts": workload.playouts,
                "decisions": (workload.search_samples.count
                              + workload.other_samples.count),
                "search_decisions": workload.search_samples.count}
    tracer = layers.Tracer()
    with layers.installed(qs, tracer):
        traced, traced_wall = play_timed(workload, seed, 0, games=tally.games)
    if traced.failed or traced.summary() != tally.summary():
        raise CheckFailed(f"{name}: traced replay changed the game outcomes")
    metrics = tracer.per_game_metrics(tally.games)
    metrics.update(layers.workload_counts(tally, untraced, traced_wall))
    metrics.update(layers.fixed_state_metrics(qs, seed))
    checked = verify(qs, workload, seed, tally)
    checked["games_per_s"] = tally.games / wall
    return {"attempted": tally.games, "failed": 0, "metrics": metrics,
            "summary": checked}


def run_one(qs, name: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        out = (run_traced if trace else run_end_to_end)(qs, name, seed, seconds)
        out.setdefault("correct", True)
    except CheckFailed as exc:
        print(f"benchmark: output check failed: {exc}", file=sys.stderr)
        out = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return out


def result(out: dict) -> dict:
    return {key: out[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    qs = import_questsim()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = {}
    for name in names:
        out = run_one(qs, name, args.seed, args.seconds, bool(args.trace))
        outs[name] = out
        if "summary" in out:
            s = out["summary"]
            print(f"{name}: games={s['games']} wins={s['wins']} "
                  f"mean_rounds={s['mean_rounds']:.4f} digest={s['digest']} "
                  f"games_per_s={s['games_per_s']:.4g}")
        for key, m in out["metrics"].items():
            print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({name: result(out) for name, out in outs.items()}
                     if args.workload == "all" else result(outs[args.workload])))
    return 0 if all(out["correct"] for out in outs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
