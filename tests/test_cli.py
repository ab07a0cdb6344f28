"""CLI coverage for the figure/experiment subcommands (tiny scales)."""

import pytest

from repro.cli import build_parser, main
from repro.eval.experiments import trace_experiment
from repro.eval.runner import setting_by_name

TINY = ["--scale", "0.05"]


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_fig8_command(capsys):
    out = run_cli(capsys, "fig8", *TINY)
    assert "geomean" in out and "SPAMeR(tuned)" in out


def test_fig9_command(capsys):
    out = run_cli(capsys, "fig9", *TINY)
    assert "empty" in out


def test_fig10_commands(capsys):
    out = run_cli(capsys, "fig10a", *TINY)
    assert "failure" in out
    out = run_cli(capsys, "fig10b", *TINY)
    assert "utilization" in out


def test_fig7_command_prints_rows(capsys):
    out = run_cli(capsys, "fig7", *TINY)
    assert "req-bound" in out or "on-demand" in out
    assert "potential-saving" in out


def test_fig7_csv_export(tmp_path, capsys):
    """``--csv`` exports the very run ``repro fig7`` prints."""
    target = tmp_path / "trace.csv"
    run_cli(capsys, "fig7", *TINY, "--csv", str(target))
    content = target.read_text()
    assert content.startswith("transaction_id,")
    assert len(content.splitlines()) > 2
    rows = [
        [None if field == "" else int(field) for field in line.split(",")]
        for line in content.splitlines()[1:]
    ]
    result = trace_experiment(setting_by_name("vl"), scale=0.05)
    assert rows == [
        [t.transaction_id, t.sqi, t.data_arrive, t.request_arrive,
         t.line_vacate, t.line_fill, t.first_use, int(t.speculative),
         int(t.request_bound), t.potential_saving]
        for t in result.transactions
    ]


def test_fig11_command(capsys):
    out = run_cli(capsys, "fig11", "ping-pong", "--scale", "0.04")
    assert "Figure 11 panel: ping-pong" in out
    assert "VL (baseline)" in out


def test_inline_command(capsys):
    out = run_cli(capsys, "inline", *TINY)
    assert "geomean" in out


def test_motivation_command(capsys):
    out = run_cli(capsys, "motivation")
    assert "Virtual-Link" in out and "SPAMeR" in out


def test_autotune_command(capsys):
    out = run_cli(capsys, "autotune", "ping-pong", "--scale", "0.04",
                  "--budget", "3")
    assert "best parameters" in out


def test_replicate_command(capsys):
    out = run_cli(capsys, "replicate", "--scale", "0.04", "--seeds", "2")
    assert "95% CI" in out and "n=2" in out


def test_run_with_learned_setting(capsys):
    out = run_cli(capsys, "run", "ping-pong", "--setting", "perceptron",
                  "--scale", "0.05")
    assert "SPAMeR(perceptron)" in out


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_help_lists_commands(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    for cmd in ("table1", "fig8", "autotune", "batch", "replicate"):
        assert cmd in out
