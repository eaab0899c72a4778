"""A ratchet on the work the benchmark's reference games do: the number of
calls into the package's named functions while they are played.

The counted games are the golden games of the two benchmark workloads, as
benchmarks/spec.json gives them: master seed 2109, medium difficulty, 3
games with MCTS planning and expert playouts (mcts-expert) and 40
all-expert games (expert-batch). sys.setprofile counts each "call" event into a code object
of src/questsim whose name does not start with "<", which leaves out
comprehensions, generator expressions and lambdas; loading the scenario
and building the policies are not counted. Functions are keyed by file
name and co_name, which every supported Python has, and every pin reads
the same on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0.

Each count must stay at or below its pin. The rule: a change that lowers a
count lowers its pin here, and a change that raises one raises the pin
and records the reason in CHANGES.md.
"""

import json
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import questsim
from questsim.agents import parse_policy_map
from questsim.cards import load_scenario_bundle
from questsim.engine import new_game, play_game
from questsim.experiments import derive_seed
from questsim.search import build_stage_policies

PACKAGE = str(Path(questsim.__file__).parent)
WORKLOADS = json.loads((Path(__file__).parent.parent / "benchmarks" / "spec.json")
                       .read_text())["workloads"]

# workload -> {"file name co_name" or "total": pin}.
PINS = {
    "mcts-expert": {"total": 116_698, "state.py clone": 190,
                    "engine.py legal_actions": 132,
                    "search.py determinize": 190, "state.py move": 9_945},
    "expert-batch": {"total": 49_185, "state.py clone": 0,
                     "engine.py legal_actions": 0,
                     "search.py determinize": 0, "state.py move": 3_188},
}


def count_calls(workload: str, games: int | None = None) -> Counter:
    """Calls per 'file name co_name' over the workload's golden games, or
    its first `games` of them, with their sum under 'total'."""
    spec = WORKLOADS[workload]
    golden = spec["golden"]
    scenario = load_scenario_bundle()
    policies = build_stage_policies(parse_policy_map(spec["agents"]))
    calls: Counter = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(PACKAGE)
                and not code.co_name.startswith("<")):
            calls[f"{Path(code.co_filename).name} {code.co_name}"] += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i in range(golden["games"] if games is None else games):
            rng = Random(derive_seed(golden["master_seed"], i))
            play_game(new_game(scenario, spec["difficulty"], rng), policies, rng)
    finally:
        sys.setprofile(outer)
    calls["total"] = sum(calls.values())
    return calls


@pytest.mark.parametrize("workload", PINS)
def test_reference_games_make_no_more_calls_than_pinned(workload):
    calls = count_calls(workload)
    over = {name: (calls[name], pin) for name, pin in PINS[workload].items()
            if calls[name] > pin}
    assert not over, f"{workload}: (count, pin) over the pin: {over}"


def test_call_counter_counts_named_package_functions_only():
    calls = count_calls("expert-batch", games=1)
    assert calls["engine.py play_game"] == calls["engine.py new_game"] == 1
    files = {name.split()[0] for name in calls if name != "total"}
    assert files <= {path.name for path in Path(PACKAGE).glob("*.py")}
    assert not [name for name in calls if name.split()[-1].startswith("<")]
