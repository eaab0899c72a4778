"""Experiment harness: the seed derivation, the confidence interval,
common random numbers across sweep and grid rows, the fold of a batch
over worker spans and the output document."""

import json
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
    render_csv,
    render_json,
    run_games,
    winrate_ci,
    write_output,
)
from questsim.state import DECISION, STAGE_ORDER, StageId

import helpers

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
    p, low, high = winrate_ci(0, n)
    assert (p, low) == (0.0, 0.0) and 0.0 < high < 1.0
    p, low, high = winrate_ci(n, n)
    assert (p, high) == (1.0, 1.0) and 0.0 < low < 1.0


def test_winrate_ci_is_the_wilson_score_interval():
    # The bounds are the roots p' of (p - p')**2 = z*z*p'*(1-p')/n.
    p, low, high = winrate_ci(30, 100, z=2.0)
    assert p == 0.3
    for bound in (low, high):
        assert (p - bound) ** 2 == pytest.approx(4.0 * bound * (1 - bound) / 100)
    assert low < p < high


@pytest.mark.parametrize("wins,n", [(1, 2), (1, 40), (7, 10), (1, 10**9),
                                    (10**9 - 1, 10**9)])
def test_winrate_ci_lies_in_the_unit_interval_and_holds_the_winrate(wins, n):
    p, low, high = winrate_ci(wins, n)
    assert 0.0 < low < p < high < 1.0


def test_shipped_default_batch_interval():
    # questsim simulate --games 40 --seed 1 wins 1 game of 40.
    assert [f"{x:.6f}" for x in winrate_ci(1, 40)] == ["0.025000", "0.004427",
                                                       "0.128817"]


def binomial_coverage(n: int, p: float) -> float:
    """Exact probability that winrate_ci's interval holds p when the wins
    of n games are Binomial(n, p): the pmf summed over the covering counts."""
    total = 0.0
    for wins in range(n + 1):
        _, low, high = winrate_ci(wins, n)
        if low <= p <= high:
            total += math.comb(n, wins) * p**wins * (1 - p) ** (n - wins)
    return total


@pytest.mark.parametrize("n", [10, 40, 100])
def test_winrate_ci_covers_at_least_90_percent_exactly(n):
    # The nominal level is 95%; the binomial's lattice pulls the Wilson
    # interval below it near p = 0.01 and p = 0.8 (minima 0.904, 0.928 and
    # 0.921 for these n), where the Wald interval falls to 0.096, 0.331
    # and 0.633.
    worst = min(binomial_coverage(n, i / 100) for i in range(1, 100))
    assert worst >= 0.90


@pytest.mark.parametrize("wins,n", [(0, 0), (1, 0), (-1, 5), (6, 5)])
def test_winrate_ci_rejects_impossible_counts(wins, n):
    with pytest.raises(ValueError):
        winrate_ci(wins, n)


@pytest.mark.parametrize("z", [-1.0, 0.0, math.inf, math.nan])
def test_winrate_ci_rejects_a_z_that_is_not_finite_and_positive(z):
    with pytest.raises(ValueError, match="z must be finite and positive"):
        winrate_ci(1, 2, z)


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


@pytest.mark.parametrize("value", [2.5, True, "3"])
@pytest.mark.parametrize("field", ["games", "workers", "master_seed"])
def test_a_batch_count_must_be_an_int(field, value):
    settings = {"games": 1, "workers": 1, "master_seed": 0, field: value}
    with pytest.raises(ConfigError, match=re.escape(
            f"{field} must be an int, got {value!r}")):
        ExperimentConfig(policy_map=EXPERTS, **settings)


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


# A 2-worker batch on a scenario file whose player deck cannot deal the
# opening hand, with two usable CPUs whatever the machine has. It prints
# whether multiprocessing was loaded when the DataError came, and the error.
SHORT_DECK_POOLED_RUN = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from questsim import DataError, ExperimentConfig, parse_policy_map, run_games
experts = parse_policy_map("planning=expert,commit=expert,defense=expert")
try:
    run_games(ExperimentConfig(games=4, master_seed=1, policy_map=experts,
                               difficulty="test", scenario_path=sys.argv[1],
                               workers=2))
except DataError as error:
    print("multiprocessing" in sys.modules, error)
"""


def test_a_short_player_deck_fails_before_a_pool_starts(tmp_path):
    """run_games checks the scenario before any game runs: the opening-hand
    rule is the loader's, so no worker is started to find the fault."""
    cards_file = tmp_path / "pool.json"
    cards_file.write_text(json.dumps(helpers.SYNTH_CARDS))
    scenario_file = tmp_path / "short.json"
    scenario_file.write_text(json.dumps({
        **helpers.SYNTH_SCENARIO, "cards": "pool.json",
        "player_deck": {"ally-lantern": 4, "gandalf": 1}}))
    src = Path(__file__).parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-S", "-c", SHORT_DECK_POOLED_RUN, str(scenario_file)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120)
    assert run.stdout == ("False scenario 'testlands': player deck has 5 cards, "
                          "needs at least 6\n")


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


SWEEP_AGENTS = "planning=flat:{}:random,commit=random,defense=random"
SWEEP_HEADER = {"command": "sweep", "budgets": "1,2", "scenario": "builtin",
                "difficulty": "medium", "agents": SWEEP_AGENTS.format(1),
                "games": 3, "master_seed": 5, "workers": 1, "z": 1.96}
SWEEP_ROWS = [
    RunStats("1", SWEEP_AGENTS.format(1), 3, 1, 1 / 3, 0.0614903, 0.7923450,
             12.3456789, 1.23456, {"planning": 2.5e-05, "declare-defenders": 0.001}),
    RunStats("2", SWEEP_AGENTS.format(2), 3, 3, 1.0, 0.4384939, 1.0, 7.0, 0.0004, {}),
]


def test_csv_bytes_are_the_header_the_columns_and_rounded_rows():
    assert render_csv(SWEEP_ROWS, SWEEP_HEADER) == """\
# command=sweep
# budgets=1,2
# scenario=builtin
# difficulty=medium
# agents=planning=flat:1:random,commit=random,defense=random
# games=3
# master_seed=5
# workers=1
# z=1.96
label,agents,n,wins,winrate,ci_low,ci_high,mean_rounds,wall_time_s
1,"planning=flat:1:random,commit=random,defense=random",3,1,0.333333,0.061490,0.792345,12.345679,1.235
2,"planning=flat:2:random,commit=random,defense=random",3,3,1.000000,0.438494,1.000000,7.000000,0.000
"""


def test_json_bytes_are_the_config_and_full_precision_rows():
    assert render_json(SWEEP_ROWS, SWEEP_HEADER) == """\
{
  "config": {
    "command": "sweep",
    "budgets": "1,2",
    "scenario": "builtin",
    "difficulty": "medium",
    "agents": "planning=flat:1:random,commit=random,defense=random",
    "games": 3,
    "master_seed": 5,
    "workers": 1,
    "z": 1.96
  },
  "rows": [
    {
      "label": "1",
      "agents": "planning=flat:1:random,commit=random,defense=random",
      "n": 3,
      "wins": 1,
      "winrate": 0.3333333333333333,
      "ci_low": 0.0614903,
      "ci_high": 0.792345,
      "mean_rounds": 12.3456789,
      "wall_time_s": 1.23456,
      "mean_decision_time": {
        "planning": 2.5e-05,
        "declare-defenders": 0.001
      }
    },
    {
      "label": "2",
      "agents": "planning=flat:2:random,commit=random,defense=random",
      "n": 3,
      "wins": 3,
      "winrate": 1.0,
      "ci_low": 0.4384939,
      "ci_high": 1.0,
      "mean_rounds": 7.0,
      "wall_time_s": 0.0004,
      "mean_decision_time": {}
    }
  ]
}
"""


def test_an_unwritable_output_path_is_a_config_error(tmp_path):
    dest = tmp_path / "missing" / "x.csv"
    with pytest.raises(ConfigError) as failure:
        write_output(dest, SWEEP_ROWS, SWEEP_HEADER)
    assert str(failure.value) == f"cannot write '{dest}': No such file or directory"
    assert not dest.parent.exists()
