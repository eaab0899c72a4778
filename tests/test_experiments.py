"""Experiment harness: the seed derivation, the confidence interval,
common random numbers across sweep and grid rows, the fold of a batch
over worker spans and the output document."""

import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from questsim import experiments
from questsim.agents import parse_agent, parse_policy_map
from questsim.engine import ROUND_CAP
from questsim.errors import ConfigError
from questsim.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    RunStats,
    budget_sweep,
    combination_grid,
    derive_seed,
    run_games,
    winrate_ci,
)
from questsim.state import DECISION, STAGE_ORDER, StageId

M = 2**64


def splitmix_reference(master_seed: int, game_index: int) -> int:
    """The formula in derive_seed's docstring, written out step by step."""
    x = (master_seed + 0x9E3779B97F4A7C15 * (game_index + 1)) % M
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % M
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % M
    return x ^ (x >> 31)


@pytest.mark.parametrize("master", [0, 1, 2109, 2**32 + 7, 2**63, M - 1])
def test_derive_seed_matches_its_documented_formula(master):
    for i in (0, 1, 2, 999, 2**20):
        seed = derive_seed(master, i)
        assert seed == splitmix_reference(master, i)
        assert 0 <= seed < M


def test_derive_seed_known_value():
    # SplitMix64's first output for state 0 (golden-ratio increment).
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("n", [1, 7, 100])
def test_winrate_ci_is_exact_at_the_endpoints(n):
    assert winrate_ci(0, n) == (0.0, 0.0)
    assert winrate_ci(n, n) == (1.0, 0.0)


def test_winrate_ci_halfwidth_formula():
    p, half = winrate_ci(30, 100, z=2.0)
    assert p == 0.3
    assert half == pytest.approx(2.0 * math.sqrt(0.3 * 0.7 / 100))


@pytest.mark.parametrize("wins,n", [(0, 0), (1, 0), (-1, 5), (6, 5)])
def test_winrate_ci_rejects_impossible_counts(wins, n):
    with pytest.raises(ValueError):
        winrate_ci(wins, n)


# ---- common random numbers --------------------------------------------------

CRN_AGENTS = "planning=flat:{}:random,commit=expert,defense=random"


def crn_config(budget: int) -> ExperimentConfig:
    return ExperimentConfig(games=5, master_seed=11,
                            policy_map=parse_policy_map(CRN_AGENTS.format(budget)))


def result(stats) -> tuple:
    return stats.wins, stats.mean_rounds


def test_sweep_rows_at_one_budget_are_equal():
    first, second = budget_sweep(crn_config(1), [2, 2])
    assert result(first) == result(second)


def test_grid_rows_of_one_agent_are_equal():
    rows = combination_grid(crn_config(2),
                            {"commit": [parse_agent("random"),
                                        parse_agent("random")]})
    first, second = rows
    assert first.label == second.label == "3-1-1"
    assert result(first) == result(second)


def test_sweep_checks_every_budget_before_playing(monkeypatch):
    played = []
    monkeypatch.setattr(experiments, "run_games",
                        lambda config, label: played.append(label))
    with pytest.raises(ConfigError, match="budget must be >= 1, got 0"):
        budget_sweep(crn_config(1), [1, 0])
    assert played == []


def test_sweep_row_equals_a_batch_at_that_budget_alone():
    rows = budget_sweep(crn_config(1), [1, 3])
    assert [stats.label for stats in rows] == ["1", "3"]
    for budget, stats in zip([1, 3], rows):
        assert result(stats) == result(run_games(crn_config(budget)))


@pytest.mark.parametrize("budgets,agents,message", [
    ([], CRN_AGENTS.format(1), "budget sweep needs at least one budget"),
    ([1], "planning=expert,commit=random,defense=random",
     "budget sweep needs at least one search agent in the map "
     "'planning=expert,commit=random,defense=random'"),
])
def test_a_sweep_with_nothing_to_vary_is_refused(budgets, agents, message):
    config = ExperimentConfig(games=1, master_seed=0,
                              policy_map=parse_policy_map(agents))
    with pytest.raises(ConfigError, match=re.escape(message)):
        budget_sweep(config, budgets)


@pytest.mark.parametrize("choices,message", [
    ({"travel": [parse_agent("expert")]}, "unknown grid stage 'travel'"),
    ({"commit": []}, "grid stage 'commit' has no choices"),
])
def test_a_grid_over_no_choices_is_refused(choices, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        combination_grid(crn_config(1), choices)


@pytest.mark.parametrize("field,message", [("games", "games must be >= 1, got 0"),
                                           ("workers", "workers must be >= 1, got 0")])
def test_a_batch_needs_a_game_and_a_worker(field, message):
    settings = {"games": 1, "workers": 1, field: 0}
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig(master_seed=0, policy_map=EXPERTS, **settings)


# ---- the fold of a batch ----------------------------------------------------

EXPERTS = parse_policy_map("planning=expert,commit=expert,defense=expert")
DECISION_KEYS = [stage.value for stage in STAGE_ORDER if stage.kind is DECISION]


def expert_config(games: int, workers: int = 1) -> ExperimentConfig:
    return ExperimentConfig(games=games, master_seed=3, policy_map=EXPERTS,
                            workers=workers)


def test_an_in_process_batch_reads_the_scenario_once(monkeypatch):
    reads = []
    real = experiments.load_scenario_bundle

    def load(path=None):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(experiments, "load_scenario_bundle", load)
    run_games(expert_config(3))
    assert reads == [None]


# Run in a fresh interpreter without the site module (-S), so that only
# what questsim imports counts: not the modules this test process or a
# .pth file has already loaded.
SINGLE_PROCESS_RUN = """
import sys
from random import Random
import questsim, questsim.cli
from questsim import (ExperimentConfig, load_scenario_bundle, new_game,
                      parse_policy_map, play_game, run_games)
from questsim.search import build_stage_policies
experts = parse_policy_map("planning=expert,commit=expert,defense=expert")
rng = Random(1)
state = new_game(load_scenario_bundle(), "medium", rng)
play_game(state, build_stage_policies(experts), rng)
run_games(ExperimentConfig(games=2, master_seed=1, policy_map=experts))
print(*sorted(set(sys.argv[1:]) & set(sys.modules)))
"""


def test_a_single_process_run_loads_no_pool_and_no_csv_module():
    """Only a batch that starts a pool imports multiprocessing (and with it
    pickle, socket and selectors), and only CSV output imports csv."""
    src = Path(__file__).parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-S", "-c", SINGLE_PROCESS_RUN,
         "multiprocessing", "pickle", "socket", "selectors", "csv"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


def in_process_pool(asked: list[int]):
    """A stand-in for multiprocessing.Pool that records the process count
    asked for, runs the initializer and every task in this process, and
    hands results back in reverse order."""
    class InProcessPool:
        def __init__(self, processes, initializer, initargs):
            asked.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def imap_unordered(self, func, tasks, chunksize=1):
            return map(func, reversed(list(tasks)))
    return InProcessPool


def usable_cpus(monkeypatch, cpus: set[int]) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: len(cpus))


def test_a_pool_asks_for_no_more_processes_than_games(monkeypatch):
    alone = run_games(expert_config(3))
    asked = []
    monkeypatch.setattr(multiprocessing, "Pool", in_process_pool(asked))
    usable_cpus(monkeypatch, set(range(8)))
    pooled = run_games(expert_config(3, workers=1000))
    assert asked == [3]
    assert result(pooled) == result(alone)


@pytest.mark.parametrize("games,cpus", [(4, {0}), (1, {0, 1})],
                         ids=["one-cpu", "one-game"])
def test_one_usable_process_plays_in_this_one(monkeypatch, games, cpus):
    """Two workers asked for, but one CPU or one game: no pool is built."""
    alone = run_games(expert_config(games))
    asked = []
    monkeypatch.setattr(multiprocessing, "Pool", in_process_pool(asked))
    usable_cpus(monkeypatch, cpus)
    pooled = run_games(expert_config(games, workers=2))
    assert asked == []
    assert result(pooled) == result(alone)
    assert list(pooled.mean_decision_time) == DECISION_KEYS


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
def test_a_pool_asks_for_no_more_processes_than_usable_cpus(monkeypatch, affinity):
    """The CPUs this process may use bound the pool: those of its affinity
    mask, else every CPU. No process is started."""
    alone = run_games(expert_config(20))
    asked = []
    monkeypatch.setattr(multiprocessing, "Pool", in_process_pool(asked))
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pooled = run_games(expert_config(20, workers=16))
    assert asked == [3]
    assert result(pooled) == result(alone)
    assert list(pooled.mean_decision_time) == DECISION_KEYS


def test_decision_time_is_kept_per_decision_stage():
    for workers in (1, 2):
        times = run_games(expert_config(4, workers)).mean_decision_time
        assert list(times) == DECISION_KEYS
        assert all(seconds > 0 for seconds in times.values())


def test_a_random_batch_times_its_planning_decisions():
    config = ExperimentConfig(games=2, master_seed=11, policy_map=parse_policy_map(
        "planning=random,commit=random,defense=random"))
    assert run_games(config).mean_decision_time["planning"] > 0


def test_stages_never_decided_stay_absent(monkeypatch):
    """Games that start at the last round's Declare Attackers decide only
    there, so no other stage gets a decision time."""
    real = experiments.new_game

    def at_the_last_attack(*args):
        state = real(*args)
        state.stage, state.round_no = StageId.DECLARE_ATTACKERS, ROUND_CAP
        return state

    monkeypatch.setattr(experiments, "new_game", at_the_last_attack)
    stats = run_games(expert_config(3))
    assert list(stats.mean_decision_time) == ["declare-attackers"]
    assert stats.mean_rounds == ROUND_CAP


# ---- the output document ----------------------------------------------------


def doc_table(doc: str, heading: str) -> list[str]:
    """The first-column names of the table under '## heading'."""
    section = doc.split(f"\n## {heading}\n")[1].split("\n## ")[0]
    return re.findall(r"^\| `([^`]+)`", section, re.M)


def test_output_doc_lists_every_column_field_and_stage_key():
    doc = (Path(__file__).parent.parent / "docs" / "output.md").read_text()
    assert doc_table(doc, "CSV columns") == list(CSV_COLUMNS)
    assert doc_table(doc, "JSON fields") == [f.name for f in fields(RunStats)]
    assert doc_table(doc, "Per-stage keys") == DECISION_KEYS
