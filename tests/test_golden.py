"""Golden outcomes: final-state fingerprints of seeded games and batch
results, pinned so that a refactor which claims to keep behaviour can
prove it. A change that alters game outcomes on purpose must regenerate
these values and say so.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
from random import Random

import pytest

from questsim.agents import parse_policy_map
from questsim.cards import load_scenario_bundle
from questsim.engine import new_game, play_game
from questsim.experiments import ExperimentConfig, derive_seed, run_games
from questsim.search import build_stage_policies

MASTER_SEED = 2109

# (agents, games per difficulty). The mix covers both search agents, both
# playout policies and the attack-stage override.
GAME_CONFIGS = {
    "expert": ("planning=expert,commit=expert,defense=expert", 6),
    "random": ("planning=random,commit=random,defense=random", 6),
    "mix": ("planning=mcts:6:0.7:expert,commit=flat:4:random,"
            "defense=expert,attack=mcts:4:0.5:random", 3),
}

GOLDEN_DIGESTS = {
    ("expert", "medium"):
        "1a2fd0993471e9303fa974905da509eb251d15a75734ae43722c32906619c1ff",
    ("expert", "hard"):
        "ce9a3917701edbbae4c1d2b1811e17d15bdd92e7f4f08fa8787dc872bc66ce93",
    ("random", "medium"):
        "1254c4bfae552066a9efb59fd1f019704f65f114a669905da20ab1f6a70a4682",
    ("random", "hard"):
        "6b771dfcb5e3b30e6a1e9f0b2ef84f71a464e59b3586a9ec4ee898131e13bc98",
    ("mix", "medium"):
        "33de9206d33c5d6f6c931ce697c7ef5eed9e8c515596dfed4627211020697ce5",
    ("mix", "hard"):
        "b9631c7711c4937af44506a5c496b02f865a25b5234039fb9bc441ff69a084d0",
}

# name -> (agents, difficulty, games); pinned as (wins, mean_rounds).
BATCH_CONFIGS = {
    "expert-medium": ("planning=expert,commit=expert,defense=expert",
                      "medium", 24),
    "mixed-hard": ("planning=expert,commit=random,defense=expert",
                   "hard", 16),
}

GOLDEN_BATCHES = {
    "expert-medium": (9, 9.791666666666666),
    "mixed-hard": (6, 7.5625),
}


def fingerprint_digest(agents: str, difficulty: str, games: int) -> str:
    """sha256 over the final-state fingerprints of games 0..games-1, each
    seeded by derive_seed(MASTER_SEED, i) and audited after every stage."""
    scenario = load_scenario_bundle()
    policies = build_stage_policies(parse_policy_map(agents))
    digest = hashlib.sha256()
    for i in range(games):
        rng = Random(derive_seed(MASTER_SEED, i))
        state = new_game(scenario, difficulty, rng)
        play_game(state, policies, rng, check=True)
        fp = json.dumps(state.fingerprint(), default=lambda e: e.value)
        digest.update(fp.encode())
    return digest.hexdigest()


def batch_result(name: str, workers: int) -> tuple[int, float]:
    agents, difficulty, games = BATCH_CONFIGS[name]
    stats = run_games(ExperimentConfig(games=games, master_seed=MASTER_SEED,
                                       policy_map=parse_policy_map(agents),
                                       difficulty=difficulty, workers=workers))
    return stats.wins, stats.mean_rounds


@pytest.mark.parametrize("config,difficulty", sorted(GOLDEN_DIGESTS))
def test_final_state_fingerprints_are_pinned(config, difficulty):
    agents, games = GAME_CONFIGS[config]
    assert fingerprint_digest(agents, difficulty, games) == \
        GOLDEN_DIGESTS[config, difficulty]


@pytest.mark.parametrize("name", sorted(GOLDEN_BATCHES))
def test_batch_results_are_pinned_for_any_worker_count(name):
    assert batch_result(name, workers=1) == GOLDEN_BATCHES[name]
    assert batch_result(name, workers=2) == GOLDEN_BATCHES[name]


if __name__ == "__main__":
    for config, difficulty in sorted(GOLDEN_DIGESTS):
        agents, games = GAME_CONFIGS[config]
        print(f"    ({config!r}, {difficulty!r}): "
              f"{fingerprint_digest(agents, difficulty, games)!r},")
    for name in sorted(GOLDEN_BATCHES):
        print(f"    {name!r}: {batch_result(name, workers=1)!r},")
