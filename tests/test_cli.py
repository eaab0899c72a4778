"""Command-line interface: batch output bytes and loud failures on bad
flags."""

import csv
import json
import re
from dataclasses import replace

import pytest

from questsim import cli
from questsim.agents import parse_agent, parse_policy_map
from questsim.cards import builtin_scenario_path
from questsim.experiments import render_csv, render_json

AGENTS = "planning=expert,commit=random,defense=expert"


@pytest.fixture
def recorded(monkeypatch):
    """Run the real batch, keeping what the CLI was handed to render."""
    calls = []
    real = cli.run_games

    def run_games(config, label="run"):
        stats = real(config, label=label)
        calls.append((config, stats))
        return stats

    monkeypatch.setattr(cli, "run_games", run_games)
    return calls


def expected_output(calls, render) -> str:
    (config, stats), = calls
    return render([stats], {"command": "simulate", **config.resolved()})


def simulate(out: str) -> int:
    return cli.main(["simulate", "--games", "3", "--seed", "5",
                     "--agents", AGENTS, "--out", out])


def test_simulate_to_stdout_prints_the_csv(recorded, capsys):
    assert simulate("-") == 0
    captured = capsys.readouterr()
    assert captured.out == expected_output(recorded, render_csv)
    assert captured.err == ""


@pytest.mark.parametrize("name,render", [("out.csv", render_csv),
                                         ("out.json", render_json)])
def test_simulate_writes_the_rendered_file(recorded, capsys, tmp_path,
                                           name, render):
    dest = tmp_path / name
    assert simulate(str(dest)) == 0
    text = expected_output(recorded, render)
    assert dest.read_text() == text
    assert capsys.readouterr().err == \
        f"wrote {len(text.splitlines())} lines to {dest}\n"


def test_simulate_json_repeats_up_to_measured_fields(tmp_path):
    docs = []
    for name in ("a.json", "b.json"):
        dest = tmp_path / name
        assert simulate(str(dest)) == 0
        doc = json.loads(dest.read_text())
        for row in doc["rows"]:
            del row["wall_time_s"], row["mean_decision_time"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_grid_rows_that_share_a_label_carry_the_map_they_played(capsys):
    base = parse_policy_map("planning=expert,commit=expert,defense=expert")
    choices = ["mcts:2:0.7:random", "mcts:4:0.7:random"]
    assert cli.main(["grid", "--games", "2", "--agents", str(base),
                     "--choices", "planning=" + ",".join(choices)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    first, second = csv.DictReader(lines)
    assert first["label"] == second["label"] == "4-2-2"
    assert first["agents"] != second["agents"]
    assert [parse_policy_map(row["agents"]) for row in (first, second)] == \
        [replace(base, planning=parse_agent(agent)) for agent in choices]


@pytest.mark.parametrize("argv", [
    ["simulate", "--agents", "planning=bogus,commit=random,defense=random"],
    ["simulate", "--agents", "planning=random,commit=random"],
    ["sweep", "--agents", "planning=flat:4:random,commit=random,defense=random",
     "--budgets", "5,many"],
    ["grid", "--choices", "planning=random,wizard"],
    ["grid", "--choices", "planning random"],
    ["simulate", "--z", "nan"],
    ["simulate", "--z", "inf"],
    ["simulate", "--out", "/nonexistent/dir/x.csv"],
])
def test_bad_flags_exit_1_with_one_error_line(argv, capsys):
    assert cli.main(argv + ["--games", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


BATCHES = {"simulate": [],
           "sweep": ["--budgets", "2", "--agents",
                     "planning=flat:4:random,commit=random,defense=random"],
           "grid": ["--choices", "planning=random,expert"]}


class Played(Exception):
    """A batch started playing games."""


@pytest.fixture
def unplayed(monkeypatch):
    """Make every batch entry point of the CLI raise Played if called."""
    def play(*args, **kwargs):
        raise Played
    for name in ("run_games", "budget_sweep", "combination_grid"):
        monkeypatch.setattr(cli, name, play)


@pytest.mark.usefixtures("unplayed")
@pytest.mark.parametrize("command", BATCHES)
def test_unwritable_out_fails_before_the_first_game(command, capsys):
    out = "/nonexistent/dir/x.csv"
    argv = [command, *BATCHES[command], "--games", "2", "--out", out]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: cannot write '{out}': No such file or directory\n"


@pytest.mark.usefixtures("unplayed")
def test_out_check_leaves_existing_and_missing_files_as_they_were(tmp_path):
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.json"
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    kept.write_text("earlier results\n")
    link.symlink_to(target)
    for dest in (kept, absent, link):
        with pytest.raises(Played):
            simulate(str(dest))
    assert kept.read_text() == "earlier results\n"
    assert not absent.exists()
    assert link.is_symlink() and not target.exists()


def test_play_trace_prints_stage_lines_then_the_outcome(capsys):
    assert cli.main(["play", "--seed", "3", "--trace"]) == 0
    *trace, summary = capsys.readouterr().out.splitlines()
    assert trace[0].startswith("R01 gain-resources ")
    assert all(re.match(r"R\d{2,} [a-z-]+ +.+ \| threat=\d+ ", ln) for ln in trace)
    outcome = re.search(r" outcome=(\S+)$", trace[-1])[1]
    assert re.fullmatch(rf"outcome={outcome} rounds=\d+ threat=\d+ "
                        r"quests_completed=\d", summary)


def test_play_trace_tells_copies_of_one_card_apart(capsys):
    """Seed 3 deals a black-forest-bats as the shadow of another, engaged
    black-forest-bats: the trace names each by its instance."""
    assert cli.main(["play", "--seed", "3", "--trace"]) == 0
    out = capsys.readouterr().out
    shadow = re.search(r"^R(\d+) deal-shadows .*?(black-forest-bats#\d+) "
                       r"encounter_deck->engagement_area", out, re.M)
    assert shadow, out
    round_no, dealt = shadow[1], shadow[2]
    enemy = re.search(rf"^R{round_no} engagement .*?(black-forest-bats#\d+) "
                      r"staging_area->engagement_area", out, re.M)
    assert enemy and enemy[1] != dealt
    assert re.search(rf"^R{round_no} declare-defenders +defend=\["
                     rf"{re.escape(enemy[1])}<-", out, re.M)


def test_sweep_prints_one_row_per_budget(capsys):
    agents = "planning=mcts:4:0.7:random,commit=random,defense=expert"
    assert cli.main(["sweep", "--games", "2", "--seed", "4", "--budgets", "1,3",
                     "--agents", agents]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "# command=sweep" in out and "# budgets=1,3" in out
    rows = list(csv.DictReader(line for line in out if not line.startswith("#")))
    assert [row["label"] for row in rows] == ["1", "3"]
    assert [row["agents"] for row in rows] == [
        agents.replace(":4:", f":{budget}:") for budget in (1, 3)]
    assert all(row["n"] == "2" for row in rows)


@pytest.mark.parametrize("bad_id", [["eowyn"], {"id": "eowyn"}])
def test_a_malformed_scenario_file_is_one_error_line(tmp_path, capsys, bad_id):
    doc = json.loads(builtin_scenario_path().read_text())
    doc["heroes"][0] = bad_id
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--games", "2", "--scenario", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: scenario 'Passage Through Mirkwood': "
                            f"unknown hero card id {bad_id!r}\n")
