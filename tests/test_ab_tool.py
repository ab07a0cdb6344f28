"""Tests for tools/ab.py, the paired A/B driver over perfbench.

Each case builds a throwaway git repository holding a copy of the tool, a
``BENCHMARK.json`` and a stub ``perfbench/run.py``.  The stub reads its
numbers from ``src/value.json``, so base and head differ only under
``src/``, and appends one line per run to a log outside the repository, so
the run order is visible.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"

STUB = '''\
import json, sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
value = json.loads((root / "src" / "value.json").read_text())
with open({log!r}, "a") as log:
    log.write(f"{{value['side']}} {{args['--trace']}} {{args['--seed']}}\\n")
wall = value["wall_s"]
metrics = {{"wall_s": wall, "setup_s": 1.0 / wall, "events_per_s": 100.0,
           "sim.events": 10 * wall}}
correct = value.get("correct", True)
print("w seed=" + args["--seed"])
print("report: " + json.dumps({{"provenance": {{"side": value["side"]}}, "values": {{}}}}))
print(json.dumps({{"correct": correct, "attempted": 2, "failed": 0 if correct else 1,
                  "metrics": {{k: {{"value": v, "unit": "u"}} for k, v in metrics.items()}}}}))
'''

BENCHMARK = {
    "command": [sys.executable, "-S", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 1,
    "workloads": [{"name": "w", "why": "stub"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "events_per_s", "unit": "events/s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [{"name": "sim.events", "unit": "count", "better": "lower"}],
}


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.com",
         *args],
        capture_output=True, text=True, check=True,
    ).stdout


def write_value(repo, **value):
    (repo / "src" / "value.json").write_text(json.dumps(value))


@pytest.fixture
def repo(tmp_path):
    """A repository whose commit reads wall_s 2.0; the working tree is the
    head side (the test writes its value)."""
    repo = tmp_path / "repo"
    for directory in ("tools", "perfbench", "src"):
        (repo / directory).mkdir(parents=True)
    shutil.copy(TOOL, repo / "tools" / "ab.py")
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (repo / "perfbench" / "run.py").write_text(STUB.format(log=str(tmp_path / "runs.log")))
    write_value(repo, side="base", wall_s=2.0)
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    return repo


def load_tool(repo):
    spec = importlib.util.spec_from_file_location(f"ab_{id(repo)}", repo / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tool(repo, capsys, *argv):
    worktrees = git(repo, "worktree", "list", "--porcelain")
    code = load_tool(repo).main(list(argv))
    assert git(repo, "worktree", "list", "--porcelain") == worktrees
    lines = capsys.readouterr().out.splitlines()
    return code, lines


def logged_runs(repo):
    log = repo.parent / "runs.log"
    return log.read_text().splitlines() if log.exists() else []


def test_pairs_alternate_and_verdicts_follow_the_rule(repo, capsys):
    write_value(repo, side="head", wall_s=1.0)
    code, lines = run_tool(repo, capsys, "HEAD", "w", "--seed", "7")
    assert code == 0

    expected = []
    for i in range(10):
        pair = ("base", "head") if i % 2 == 0 else ("head", "base")
        expected += [f"{side} 0 7" for side in pair]
    assert logged_runs(repo) == expected + ["base 1 7", "head 1 7"]

    record = json.loads(lines[-1])
    assert (record["workload"], record["seed"], record["pairs"]) == ("w", 7, 10)
    assert record["base"]["provenance"] == {"side": "base"}
    assert record["head"]["provenance"] == {"side": "head"}
    assert record["base"]["attempted"] == record["head"]["attempted"] == 22
    assert record["base"]["failed"] == record["head"]["failed"] == 0

    wall = record["end_to_end"]["wall_s"]
    assert wall["base"]["runs"] == [2.0] * 10 and wall["head"]["runs"] == [1.0] * 10
    assert (wall["base"]["median"], wall["head"]["median"]) == (2.0, 1.0)
    assert (wall["wins"], wall["losses"], wall["ties"]) == (10, 0, 0)
    assert wall["verdict"] == "gain"
    assert record["end_to_end"]["setup_s"]["verdict"] == "regressed"
    rate = record["end_to_end"]["events_per_s"]
    assert (rate["wins"], rate["losses"], rate["ties"]) == (0, 0, 10)
    assert rate["verdict"] == "no_change"
    assert record["per_layer"]["sim.events"] == {
        "unit": "count", "better": "lower", "base": 20.0, "head": 10.0}
    assert lines[0].startswith("w wall_s: base 2 [2, 2] -> head 1 [1, 1] s, wins 10/10")


def test_incorrect_run_exits_1_and_still_prints_the_record(repo, capsys, monkeypatch):
    write_value(repo, side="head", wall_s=2.0, correct=False)
    tool = load_tool(repo)
    monkeypatch.setattr(tool, "PAIRS", 2)
    worktrees = git(repo, "worktree", "list", "--porcelain")
    assert tool.main(["HEAD", "w"]) == 1
    assert git(repo, "worktree", "list", "--porcelain") == worktrees
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["base"]["correct"] is True
    assert record["head"]["correct"] is False and record["head"]["failed"] == 3


def test_refuses_when_the_benchmark_differs(repo, capsys):
    run_py = repo / "perfbench" / "run.py"
    run_py.write_text(run_py.read_text() + "# edited\n")
    code, lines = run_tool(repo, capsys, "HEAD", "w")
    assert (code, lines, logged_runs(repo)) == (2, [], [])


def test_refuses_an_unknown_revision(repo, capsys):
    code, _ = run_tool(repo, capsys, "no-such-rev", "w")
    assert code == 2 and logged_runs(repo) == []


def verdict(base, head, better="lower", bound=0.25):
    return load_tool(TOOL.parents[1]).compare(base, head, better, bound)


def test_ties_count_for_neither_side():
    row = verdict([1.0] * 10, [1.0] * 9 + [0.5])
    assert (row["wins"], row["losses"], row["ties"]) == (1, 0, 9)
    assert row["verdict"] == "no_change"


def test_gain_needs_nine_wins_in_ten():
    assert verdict([2.0] * 10, [1.0] * 9 + [2.0])["verdict"] == "gain"
    assert verdict([2.0] * 10, [1.0] * 8 + [2.0] * 2)["verdict"] == "no_change"


def test_gain_needs_the_median_shift_to_exceed_the_base_iqr():
    base = [1.0, 1.4] * 5  # q1 1.0, q3 1.4
    assert verdict(base, [x - 0.3 for x in base])["verdict"] == "unresolved"
    assert verdict(base, [x - 0.5 for x in base])["verdict"] == "gain"


def test_wide_base_spread_is_unresolved_unless_head_beats_every_run():
    base = [1.0, 1.5] * 5  # IQR 0.5 > 0.25 x median 1.25
    assert verdict(base, list(base))["verdict"] == "unresolved"
    assert verdict(base, [0.9] * 10)["verdict"] == "no_change"


def test_higher_is_better_metrics_regress_downwards():
    assert verdict([100.0] * 10, [70.0] * 10, better="higher")["verdict"] == "regressed"
    assert verdict([100.0] * 10, [80.0] * 10, better="higher")["verdict"] == "no_change"
