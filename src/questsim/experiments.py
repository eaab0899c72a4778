"""Experiment harness: seeded parallel batches, winrate confidence
intervals, playout-budget sweeps and per-stage agent combination grids.

Reproducibility contract: game i of a batch is seeded by
derive_seed(master_seed, i), a pure function, so results are independent of
worker count and scheduling; each worker sums the wins and rounds of a span
of game indices, and the parent adds those integer sums, which no order of
arrival can change. Sweep and grid rows reuse the same per-game seeds.
A game's encounter cards and its agents' choices still share one random
stream, so until the two streams are separated, agents that draw
differently see different encounter cards from the same seed.

Only a batch that starts a pool loads multiprocessing, and only CSV output
loads csv, so a single-process run or a JSON report imports neither.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import product
from pathlib import Path
from random import Random

from .agents import REQUIRED_STAGES, AgentKind, Policy, StagePolicyMap
from .cards import load_scenario_bundle
from .engine import new_game, play_game
from .errors import ConfigError
from .search import build_stage_policies
from .state import STAGE_ORDER, WIN, StageId

Z_DEFAULT = 1.96  # 95% confidence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, game_index: int) -> int:
    """Per-game seed: SplitMix64 finalizer of master_seed + (i+1)*golden.

    Bit-exact definition (all arithmetic mod 2**64):
        x = master_seed + 0x9E3779B97F4A7C15 * (game_index + 1)
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB
        return x ^ (x >> 31)
    """
    x = (master_seed + _GOLDEN * (game_index + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def winrate_ci(wins: int, n: int, z: float = Z_DEFAULT) -> tuple[float, float]:
    """Binomial winrate and normal-approximation CI halfwidth
    z*sqrt(p*(1-p)/n); exactly 0 at the endpoints wins in {0, n}."""
    if n < 1:
        raise ValueError(f"need at least one game, got n={n}")
    if not 0 <= wins <= n:
        raise ValueError(f"wins={wins} outside [0, {n}]")
    p = wins / n
    return p, z * math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch: how many games, how seeded, which scenario and agents."""

    games: int
    master_seed: int
    policy_map: StagePolicyMap
    difficulty: str = "medium"
    scenario_path: str | None = None  # None: the shipped scenario
    workers: int = 1
    z: float = Z_DEFAULT

    def __post_init__(self):
        if self.games < 1:
            raise ConfigError(f"games must be >= 1, got {self.games}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not 0 < self.z < math.inf:  # also rejects nan
            raise ConfigError(f"z must be finite and positive, got {self.z}")

    def resolved(self) -> dict[str, object]:
        """Full config with defaults expanded, for output headers."""
        return {
            "scenario": self.scenario_path or "builtin",
            "difficulty": self.difficulty,
            "agents": str(self.policy_map),
            "games": self.games,
            "master_seed": self.master_seed,
            "workers": self.workers,
            "z": self.z,
        }


@dataclass
class RunStats:
    """Aggregated result of one batch."""

    label: str
    agents: str  # the batch's StagePolicyMap in --agents syntax
    n: int
    wins: int
    winrate: float
    ci_halfwidth: float
    mean_rounds: float
    wall_time_s: float
    # Mean seconds per decide() call at each decision stage, keyed by the
    # stage's wire name in stage order; measured, so excluded from
    # determinism comparisons.
    mean_decision_time: dict[str, float] = field(default_factory=dict)

    def to_obj(self) -> dict:
        return asdict(self)


# Per-process batch state, set up by _init_worker: in each pool worker,
# and in the parent before any game.
_WORKER: dict = {}


def _init_worker(config: ExperimentConfig) -> None:
    """Load the scenario, check its deck and build the policies: the
    parent's check before any game runs, the in-process set-up and the
    Pool initializer."""
    scenario = load_scenario_bundle(config.scenario_path)
    scenario.encounter_deck(config.difficulty)
    _WORKER.update(scenario=scenario, config=config,
                   policies=build_stage_policies(config.policy_map))


def _timed(policy: Policy, cell: list) -> Policy:
    """A copy of policy whose decide() adds its seconds and one call to
    cell, a [seconds, calls] pair."""
    def timed(state, legals, rng):
        start = time.perf_counter()
        action = policy.decide(state, legals, rng)
        cell[0] += time.perf_counter() - start
        cell[1] += 1
        return action
    return replace(policy, decide=timed)


def _play_span(games: range) -> tuple[int, int, dict[StageId, list]]:
    """Play the given game indices; returns (wins, rounds summed over the
    games, {stage: [decide seconds, decide calls]}) with only the stages
    decided at least once."""
    scenario, config = _WORKER["scenario"], _WORKER["config"]
    timings = {stage: [0.0, 0] for stage in _WORKER["policies"]}
    policies = {stage: _timed(policy, timings[stage])
                for stage, policy in _WORKER["policies"].items()}
    wins = rounds = 0
    for i in games:
        rng = Random(derive_seed(config.master_seed, i))
        state = new_game(scenario, config.difficulty, rng)
        play_game(state, policies, rng)
        wins += state.outcome is WIN
        rounds += state.round_no
    return wins, rounds, {stage: cell for stage, cell in timings.items() if cell[1]}


def run_games(config: ExperimentConfig, label: str = "run") -> RunStats:
    """Play config.games independent games and aggregate the batch.

    The scenario and agents are checked before any game runs. The batch
    uses no more processes than config.workers, usable CPUs or games. One
    process plays every game in this one; more play spans of game indices
    in a pool, and send back one (wins, rounds, timings) tuple per span.
    Only a batch that starts a pool loads multiprocessing, before the
    clock starts.
    Everything except the timing fields is a pure function of the config;
    worker count only affects wall time.
    """
    _init_worker(config)
    games = range(config.games)
    # The CPUs this process may run on.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(config.workers, cpus, config.games)
    if workers > 1:
        from multiprocessing import Pool
    start = time.perf_counter()
    if workers == 1:
        results = [_play_span(games)]
    else:
        chunk = max(1, config.games // (workers * 4))
        spans = [games[i:i + chunk] for i in games[::chunk]]
        with Pool(processes=workers, initializer=_init_worker,
                  initargs=(config,)) as pool:
            results = list(pool.imap_unordered(_play_span, spans))
    wall = time.perf_counter() - start

    wins = rounds = 0
    timings: dict[StageId, list] = {}
    for span_wins, span_rounds, span_timings in results:
        wins += span_wins
        rounds += span_rounds
        for stage, (secs, calls) in span_timings.items():
            cell = timings.setdefault(stage, [0.0, 0])
            cell[0] += secs
            cell[1] += calls
    winrate, halfwidth = winrate_ci(wins, config.games, config.z)
    return RunStats(
        label=label,
        agents=str(config.policy_map),
        n=config.games,
        wins=wins,
        winrate=winrate,
        ci_halfwidth=halfwidth,
        mean_rounds=rounds / config.games,
        wall_time_s=wall,
        mean_decision_time={stage.value: timings[stage][0] / timings[stage][1]
                            for stage in STAGE_ORDER if stage in timings},
    )


def budget_sweep(base: ExperimentConfig, budgets: list[int]) -> list[RunStats]:
    """One batch per budget, labelled by it, with that budget substituted
    into every search agent in the map; rows share per-game seeds (common
    random numbers)."""
    if not budgets:
        raise ConfigError("budget sweep needs at least one budget")
    if not base.policy_map.has_search_agent():
        raise ConfigError("budget sweep needs at least one search agent "
                          f"in the map '{base.policy_map}'")
    # Building every map checks every budget before any game is played.
    maps = [base.policy_map.with_budget(budget) for budget in budgets]
    return [run_games(replace(base, policy_map=pmap), label=str(budget))
            for budget, pmap in zip(budgets, maps)]


def combination_grid(base: ExperimentConfig,
                     per_stage_choices: dict[str, list[AgentKind]],
                     ) -> list[RunStats]:
    """One batch per assignment in the Cartesian product of per-stage agent
    choices over planning/commit/defense; stages without choices keep the
    base agent. Rows are labelled by the numeric triple (e.g. '4-2-4'),
    which two agents of one number share, so each row also carries its
    map; rows share per-game seeds."""
    for stage, choices in per_stage_choices.items():
        if stage not in REQUIRED_STAGES:
            raise ConfigError(f"unknown grid stage '{stage}'")
        if not choices:
            raise ConfigError(f"grid stage '{stage}' has no choices")
    base_map = base.policy_map
    rows = []
    for combo in product(*(per_stage_choices.get(stage, [getattr(base_map, stage)])
                           for stage in REQUIRED_STAGES)):
        pmap = replace(base_map, **dict(zip(REQUIRED_STAGES, combo)))
        rows.append(run_games(replace(base, policy_map=pmap),
                              label=pmap.triple_label()))
    return rows


# ---- output -----------------------------------------------------------------


CSV_COLUMNS = ("label", "agents", "n", "wins", "winrate", "ci_halfwidth",
               "mean_rounds", "wall_time_s")


def _format_row(stats: RunStats) -> list[str]:
    return [stats.label, stats.agents, str(stats.n), str(stats.wins),
            f"{stats.winrate:.6f}", f"{stats.ci_halfwidth:.6f}",
            f"{stats.mean_rounds:.6f}", f"{stats.wall_time_s:.3f}"]


def render_csv(rows: list[RunStats], header: dict[str, object]) -> str:
    """CSV text: '# key=value' resolved-config comments, column header,
    one row per batch. No timestamps, so equal configs give equal bytes
    (up to the wall_time_s column)."""
    import csv

    out = io.StringIO()
    for key, value in header.items():
        out.write(f"# {key}={value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for stats in rows:
        writer.writerow(_format_row(stats))
    return out.getvalue()


def render_json(rows: list[RunStats], header: dict[str, object]) -> str:
    """JSON text: the resolved config under "config", one object per batch
    under "rows". Two row fields are measured, wall_time_s and
    mean_decision_time; everything else is a pure function of the config,
    so equal configs give equal documents once those two are dropped."""
    doc = {"config": {k: str(v) if isinstance(v, Path) else v
                      for k, v in header.items()},
           "rows": [stats.to_obj() for stats in rows]}
    return json.dumps(doc, indent=2) + "\n"


def _unwritable(dest: str | Path, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write '{dest}': {exc.strerror}")


def check_writable(dest: str | Path) -> None:
    """Raise ConfigError naming dest unless it can be opened for writing,
    so that a batch learns of a bad output path before its first game. An
    existing file keeps its contents, and a symlink stays in place; only a
    file that the check itself created, exclusively, is removed again."""
    path = Path(os.path.realpath(dest))
    try:
        try:
            with path.open("x"):
                pass
        except FileExistsError:
            with path.open("a"):
                pass
        else:
            path.unlink()
    except OSError as exc:
        raise _unwritable(dest, exc) from exc


def write_output(dest: str | Path, rows: list[RunStats],
                 header: dict[str, object]) -> str:
    """Write results to a file ('-' for stdout handled by the CLI); the
    format follows the extension: .json is JSON, anything else CSV.
    Returns the rendered text; a file that cannot be written raises
    ConfigError naming it."""
    text = (render_json(rows, header) if str(dest).endswith(".json")
            else render_csv(rows, header))
    try:
        Path(dest).write_text(text)
    except OSError as exc:
        raise _unwritable(dest, exc) from exc
    return text
