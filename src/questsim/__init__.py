"""Seedable card-game simulator with random/expert/flat-MC/MCTS agents and
a parallel winrate benchmarking harness."""

from .agents import (
    AgentKind,
    Policy,
    SearchConfig,
    StagePolicyMap,
    default_attack,
    default_travel,
    expert_decide,
    parse_agent,
    parse_policy_map,
    random_decide,
)
from .cards import (
    CardDb,
    CardDef,
    CardKind,
    Scenario,
    Sphere,
    builtin_cards_path,
    builtin_scenario_path,
    load_card_db,
    load_scenario_bundle,
    parse_card_db,
    parse_scenario,
)
from .engine import (
    advance_ruled_stage,
    apply_action,
    check_invariants,
    legal_actions,
    new_game,
    play_game,
    resolve_random_stage,
)
from .errors import (
    ConfigError,
    DataError,
    IllegalActionError,
    QuestSimError,
    StageError,
)
from .experiments import (
    ExperimentConfig,
    RunStats,
    budget_sweep,
    combination_grid,
    derive_seed,
    run_games,
    winrate_ci,
)
from .search import (
    SearchNode,
    build_policy,
    build_stage_policies,
    determinize,
    flat_mc_decide,
    mcts_decide,
    playout,
    ucb_score,
)
from .state import (
    Action,
    Attack,
    Commit,
    Defend,
    GameState,
    Outcome,
    PlayCards,
    StageId,
    StageKind,
    TravelTo,
    Zone,
)

__version__ = "0.1.0"
