"""Command-line interface: single-game traces plus the three batch modes
(simulate, budget sweep, agent combination grid).

The CLI is a thin sequential shell: it parses and validates flags, then
hands off to the engine or the experiment harness. All output files carry
the resolved configuration in their header.
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from .agents import (
    RANDOM_AGENT,
    StagePolicyMap,
    parse_policy_map,
    parse_stage_choices,
)
from .cards import load_scenario_bundle
from .engine import new_game, play_game
from .errors import ConfigError, QuestSimError
from .experiments import (
    ExperimentConfig,
    budget_sweep,
    check_writable,
    combination_grid,
    render_csv,
    run_games,
    write_output,
)
from .search import build_stage_policies

DEFAULT_AGENTS = str(StagePolicyMap(RANDOM_AGENT, RANDOM_AGENT, RANDOM_AGENT))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default=None, metavar="FILE",
                        help="scenario JSON file (default: the shipped scenario)")
    parser.add_argument("--difficulty", default="medium",
                        help="encounter deck to play against (default: medium)")
    parser.add_argument("--agents", default=DEFAULT_AGENTS, metavar="MAP",
                        help="per-stage agents 'planning=A,commit=B,defense=C"
                             "[,attack=D]' where an agent is random, expert, "
                             "flat:<budget>:<playout> or "
                             "mcts:<budget>:<C>:<playout>; see docs/agents.md "
                             f"(default: {DEFAULT_AGENTS})")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default: 0)")


def _add_batch(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--games", type=int, default=100,
                        help="games per batch (default: 100)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes (default: 1)")
    parser.add_argument("--out", default="-", metavar="FILE",
                        help="output file; '-' for CSV on stdout, a .json "
                             "suffix selects JSON (default: -)")
    parser.add_argument("--z", type=float, default=1.96,
                        help="z value for the confidence interval "
                             "(default: 1.96)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="questsim",
        description="Card-game simulator and agent benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    play = sub.add_parser("play", help="play one game and print its course")
    _add_common(play)
    play.add_argument("--trace", action="store_true",
                      help="print one line per stage")

    sim = sub.add_parser("simulate", help="run one batch of games")
    _add_batch(sim)

    sweep = sub.add_parser("sweep", help="batch per playout budget")
    _add_batch(sweep)
    sweep.add_argument("--budgets", required=True, metavar="LIST",
                       help="comma-separated playout budgets, e.g. "
                            "5,10,20,40,80")

    grid = sub.add_parser("grid", help="batch per per-stage agent assignment")
    _add_batch(grid)
    grid.add_argument("--choices", default="", metavar="SPEC",
                      help="per-stage choice lists "
                           "'stage=agent,agent;stage=...' over planning, "
                           "commit and defense; unlisted stages keep the "
                           "--agents assignment (see docs/agents.md)")
    return parser


def _parse_budgets(text: str) -> list[int]:
    budgets = []
    for token in text.split(","):
        token = token.strip()
        try:
            budgets.append(int(token))
        except ValueError:
            raise ConfigError(f"bad budget '{token}' in '{text}'") from None
    return budgets


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    """The batch configuration; an --out that cannot be written fails here,
    before any game is played."""
    config = ExperimentConfig(
        games=args.games,
        master_seed=args.seed,
        policy_map=parse_policy_map(args.agents),
        difficulty=args.difficulty,
        scenario_path=args.scenario,
        workers=args.workers,
        z=args.z,
    )
    if args.out != "-":
        check_writable(args.out)
    return config


def _emit(out: str, rows, header: dict) -> None:
    if out == "-":
        sys.stdout.write(render_csv(rows, header))
        return
    text = write_output(out, rows, header)
    print(f"wrote {len(text.splitlines())} lines to {out}", file=sys.stderr)


def _cmd_play(args: argparse.Namespace) -> int:
    scenario = load_scenario_bundle(args.scenario)
    pmap = parse_policy_map(args.agents)
    policies = build_stage_policies(pmap)
    rng = Random(args.seed)
    state = new_game(scenario, args.difficulty, rng)
    trace = print if args.trace else None
    play_game(state, policies, rng, trace=trace)
    print(f"outcome={state.outcome.value} rounds={state.round_no} "
          f"threat={state.threat_level} quests_completed={state.quest_index}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from(args)
    stats = run_games(config, label=str(config.policy_map))
    header = {"command": "simulate", **config.resolved()}
    _emit(args.out, [stats], header)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from(args)
    budgets = _parse_budgets(args.budgets)
    rows = budget_sweep(config, budgets)
    header = {"command": "sweep", "budgets": ",".join(map(str, budgets)),
              **config.resolved()}
    _emit(args.out, [stats for _, stats in rows], header)
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    config = _config_from(args)
    choices = parse_stage_choices(args.choices)
    rows = combination_grid(config, choices)
    header = {"command": "grid", "choices": args.choices, **config.resolved()}
    _emit(args.out, [stats for _, stats in rows], header)
    return 0


_COMMANDS = {"play": _cmd_play, "simulate": _cmd_simulate,
             "sweep": _cmd_sweep, "grid": _cmd_grid}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except QuestSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
