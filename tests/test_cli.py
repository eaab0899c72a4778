"""Command-line interface: batch output bytes and loud failures on bad
flags."""

import json
import re

import pytest

from questsim import cli
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
