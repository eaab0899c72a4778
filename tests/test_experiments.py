"""Experiment harness: the seed derivation and the confidence interval."""

import math

import pytest

from questsim.experiments import derive_seed, winrate_ci

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
