"""Experiment harness: seeded parallel batches, winrate confidence
intervals, playout-budget sweeps and per-stage agent combination grids.

Reproducibility contract: game i of a batch is seeded by
derive_seed(master_seed, i), a pure function, so results are independent of
worker count and scheduling; aggregation sorts per-game results by index
before summing. Sweep and grid rows reuse the same per-game seeds (common
random numbers) to sharpen comparisons between configurations.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from itertools import product
from multiprocessing import Pool
from pathlib import Path
from random import Random

from .agents import REQUIRED_STAGES, STAGE_KEYS, AgentKind, StagePolicyMap
from .cards import Scenario, load_scenario_bundle
from .engine import new_game, play_game
from .errors import ConfigError
from .search import build_stage_policies
from .state import Outcome, StageId

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
    n: int
    wins: int
    winrate: float
    ci_halfwidth: float
    mean_rounds: float
    wall_time_s: float
    # Mean seconds per decide() call, split into search-backed stages and
    # the rest; measured, so excluded from determinism comparisons.
    mean_decision_time: dict[str, float] = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "label": self.label,
            "n": self.n,
            "wins": self.wins,
            "winrate": self.winrate,
            "ci_halfwidth": self.ci_halfwidth,
            "mean_rounds": self.mean_rounds,
            "wall_time_s": self.wall_time_s,
            "mean_decision_time": dict(self.mean_decision_time),
        }


def _search_stages(pmap: StagePolicyMap) -> frozenset[StageId]:
    return frozenset(STAGE_KEYS[stage] for stage, kind in pmap.agents().items()
                     if kind.is_search)


def _play_single(scenario: Scenario, difficulty: str, policies: dict,
                 search_stages: frozenset[StageId],
                 seed: int) -> tuple[int, int, float, int, float, int]:
    """One game; returns (win, rounds, search seconds, search decisions,
    other seconds, other decisions)."""
    rng = Random(seed)
    state = new_game(scenario, difficulty, rng)
    timings: dict[StageId, list] = {}
    play_game(state, policies, rng, timings=timings)
    win = 1 if state.outcome is Outcome.WIN else 0
    s_time = s_count = o_time = o_count = 0
    for stage, (secs, count) in timings.items():
        if stage in search_stages:
            s_time, s_count = s_time + secs, s_count + count
        else:
            o_time, o_count = o_time + secs, o_count + count
    return win, state.round_no, s_time, s_count, o_time, o_count


# Worker-process state, set up once per worker by _init_worker.
_WORKER: dict = {}


def _init_worker(scenario_path: str | None, difficulty: str,
                 pmap: StagePolicyMap, master_seed: int) -> None:
    _WORKER["scenario"] = load_scenario_bundle(scenario_path)
    _WORKER["difficulty"] = difficulty
    _WORKER["policies"] = build_stage_policies(pmap)
    _WORKER["search_stages"] = _search_stages(pmap)
    _WORKER["master_seed"] = master_seed


def _run_indexed(index: int) -> tuple:
    seed = derive_seed(_WORKER["master_seed"], index)
    return (index,) + _play_single(_WORKER["scenario"], _WORKER["difficulty"],
                                   _WORKER["policies"],
                                   _WORKER["search_stages"], seed)


def run_games(config: ExperimentConfig, label: str = "run") -> RunStats:
    """Play config.games independent games and aggregate the batch.

    Everything except the timing fields is a pure function of the config;
    worker count only affects wall time.
    """
    # Validate scenario and agents in the parent before any game runs.
    scenario = load_scenario_bundle(config.scenario_path)
    scenario.encounter_deck(config.difficulty)

    start = time.perf_counter()
    results: list[tuple] = []
    if config.workers == 1:
        _init_worker(config.scenario_path, config.difficulty,
                     config.policy_map, config.master_seed)
        for i in range(config.games):
            results.append(_run_indexed(i))
    else:
        chunk = max(1, config.games // (config.workers * 4))
        with Pool(processes=config.workers, initializer=_init_worker,
                  initargs=(config.scenario_path, config.difficulty,
                            config.policy_map, config.master_seed)) as pool:
            for row in pool.imap_unordered(_run_indexed, range(config.games),
                                           chunksize=chunk):
                results.append(row)
    wall = time.perf_counter() - start

    results.sort()  # index order: aggregation independent of arrival order
    wins = sum(r[1] for r in results)
    rounds = sum(r[2] for r in results)
    s_time = sum(r[3] for r in results)
    s_count = sum(r[4] for r in results)
    o_time = sum(r[5] for r in results)
    o_count = sum(r[6] for r in results)
    winrate, halfwidth = winrate_ci(wins, config.games, config.z)
    return RunStats(
        label=label,
        n=config.games,
        wins=wins,
        winrate=winrate,
        ci_halfwidth=halfwidth,
        mean_rounds=rounds / config.games,
        wall_time_s=wall,
        mean_decision_time={
            "search": s_time / s_count if s_count else 0.0,
            "other": o_time / o_count if o_count else 0.0,
        },
    )


def budget_sweep(base: ExperimentConfig,
                 budgets: list[int]) -> list[tuple[int, RunStats]]:
    """One batch per budget with that budget substituted into every search
    agent in the map; rows share per-game seeds (common random numbers)."""
    if not budgets:
        raise ConfigError("budget sweep needs at least one budget")
    if not base.policy_map.has_search_agent():
        raise ConfigError("budget sweep needs at least one search agent "
                          f"in the map '{base.policy_map}'")
    # Building every map checks every budget before any game is played.
    maps = [base.policy_map.with_budget(budget) for budget in budgets]
    return [(budget, run_games(replace(base, policy_map=pmap), label=str(budget)))
            for budget, pmap in zip(budgets, maps)]


def combination_grid(base: ExperimentConfig,
                     per_stage_choices: dict[str, list[AgentKind]],
                     ) -> list[tuple[str, RunStats]]:
    """One batch per assignment in the Cartesian product of per-stage agent
    choices over planning/commit/defense; stages without choices keep the
    base agent. Rows are keyed by the numeric triple (e.g. '4-2-4') and
    share per-game seeds."""
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
        config = replace(base, policy_map=pmap)
        rows.append((pmap.triple_label(),
                     run_games(config, label=pmap.triple_label())))
    return rows


# ---- output -----------------------------------------------------------------


CSV_COLUMNS = ("label", "n", "wins", "winrate", "ci_halfwidth",
               "mean_rounds", "wall_time_s")


def _format_row(stats: RunStats) -> list[str]:
    return [stats.label, str(stats.n), str(stats.wins),
            f"{stats.winrate:.6f}", f"{stats.ci_halfwidth:.6f}",
            f"{stats.mean_rounds:.6f}", f"{stats.wall_time_s:.3f}"]


def render_csv(rows: list[RunStats], header: dict[str, object]) -> str:
    """CSV text: '# key=value' resolved-config comments, column header,
    one row per batch. No timestamps, so equal configs give equal bytes
    (up to the wall_time_s column)."""
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
