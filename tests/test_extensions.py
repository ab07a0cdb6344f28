"""Tests for the extensions beyond the paper's minimum: learned delay
algorithms, multi-router systems, autotuning and the CLI."""

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.autotune import SEARCH_SPACE, autotune
from repro.eval.runner import Setting, run_workload, standard_settings
from repro.mem.address import Segment
from repro.registry import ALGORITHMS
from repro.spamer.delay import TunedParams
from repro.spamer.learned import HistoryDelay, PerceptronDelay
from repro.spamer.specbuf import SpecEntry
from repro.system import System
from repro.vlink.endpoint import ConsumerEndpoint

SCALE = 0.06


@pytest.fixture
def entry(env):
    ep = ConsumerEndpoint(env, 0, 1, Segment(0x1000, 4096), 0, 4, spec_enabled=True)
    return SpecEntry(0, ep)


# -------------------------------------------------------------- HistoryDelay
def test_history_pushes_immediately_without_history(entry):
    algo = HistoryDelay()
    assert algo.send_tick(entry, 500) == 500


def test_history_learns_interval(entry):
    algo = HistoryDelay(smoothing=1.0, margin=0.0)
    algo.on_response(entry, hit=True, now=1000)
    algo.on_response(entry, hit=True, now=1200)  # interval 200
    tick = algo.send_tick(entry, 1210)
    assert tick == 1200 + 200  # planned at last_success + ewma


def test_history_failures_back_off_without_corrupting_ewma(entry):
    algo = HistoryDelay(smoothing=1.0, margin=0.0, backoff_step=50)
    algo.on_response(entry, hit=True, now=1000)
    algo.on_response(entry, hit=True, now=1200)
    algo.on_response(entry, hit=False, now=1250)
    algo.on_response(entry, hit=False, now=1300)
    tick = algo.send_tick(entry, 1310)
    assert tick == 1200 + 200 + 2 * 50  # ewma intact, backoff added
    algo.on_response(entry, hit=True, now=1500)
    assert algo._entry_state(entry).consecutive_failures == 0


def test_history_validation():
    with pytest.raises(ConfigError):
        HistoryDelay(smoothing=0.0)
    with pytest.raises(ConfigError):
        HistoryDelay(margin=1.0)
    with pytest.raises(ConfigError):
        HistoryDelay(backoff_step=0)


def test_history_state_is_per_entry(env):
    algo = HistoryDelay()
    eps = [
        ConsumerEndpoint(env, i, 1, Segment(0x1000 * (i + 1), 4096), 0, 2, True)
        for i in range(2)
    ]
    entries = [SpecEntry(i, eps[i]) for i in range(2)]
    algo.on_response(entries[0], hit=True, now=100)
    assert algo._entry_state(entries[1]).samples == 0


# ------------------------------------------------------------ PerceptronDelay
def test_perceptron_starts_aggressive(entry):
    algo = PerceptronDelay()
    assert algo.send_tick(entry, 100) == 100


def test_perceptron_trains_on_mistakes(entry):
    algo = PerceptronDelay(learning_rate=1.0)
    algo.send_tick(entry, 0)
    state = algo._entry_state(entry)
    bias_before = state.bias
    algo.on_response(entry, hit=False, now=10)  # aggressive push missed
    assert state.bias < bias_before  # learns to be less aggressive


def test_perceptron_no_update_on_correct_prediction(entry):
    algo = PerceptronDelay(learning_rate=1.0)
    algo.send_tick(entry, 0)
    algo.on_response(entry, hit=True, now=10)  # aggressive and it hit
    assert algo._entry_state(entry).bias == 0.0


def test_perceptron_validation():
    with pytest.raises(ConfigError):
        PerceptronDelay(learning_rate=0)


@pytest.mark.parametrize("name", ["history", "perceptron"])
def test_learned_algorithms_run_end_to_end(name):
    setting = Setting(f"SPAMeR({name})", "spamer", name)
    m = run_workload("incast", setting, scale=SCALE, limit=100_000_000)
    assert m.messages_delivered == m.messages_produced > 0
    assert m.spec_pushes > 0


def test_factory_knows_learned_algorithms():
    assert isinstance(ALGORITHMS.resolve("history").factory(), HistoryDelay)
    assert isinstance(ALGORITHMS.resolve("perceptron").factory(), PerceptronDelay)


# ---------------------------------------------------------------- multi-router
def test_multirouter_shards_sqis():
    cfg = SystemConfig(num_srds=2)
    system = System(config=cfg, device="vl")
    sqis = [system.library.create_queue() for _ in range(4)]
    owners = {s: system.device_for(s) for s in sqis}
    assert len({id(d) for d in owners.values()}) == 2
    for s, d in owners.items():
        assert s in d.linktab


def test_multirouter_runs_workload_correctly():
    cfg = SystemConfig(num_srds=4)
    setting = standard_settings()[1]  # 0delay
    m = run_workload("halo", setting, scale=SCALE, config=cfg, limit=100_000_000)
    assert m.messages_delivered == m.messages_produced


def test_multirouter_aggregates_stats():
    cfg = SystemConfig(num_srds=2)
    setting = standard_settings()[0]
    m = run_workload("firewall", setting, scale=SCALE, config=cfg,
                     limit=100_000_000)
    assert m.push_attempts >= m.messages_delivered


def test_multirouter_relieves_buffer_pressure():
    """With tiny prodBufs, more routers mean more aggregate entries."""
    setting = standard_settings()[1]
    cycles = {}
    for routers in (1, 4):
        cfg = SystemConfig(num_srds=routers, prodbuf_entries=8)
        m = run_workload("FIR", setting, scale=SCALE, config=cfg,
                         limit=100_000_000)
        cycles[routers] = m.exec_cycles
    assert cycles[4] <= cycles[1]


def test_invalid_router_count_rejected():
    with pytest.raises(ConfigError):
        SystemConfig(num_srds=0)


# -------------------------------------------------------------------- autotune
def test_autotune_respects_budget():
    result = autotune("ping-pong", scale=SCALE, max_evaluations=4)
    assert result.evaluations <= 4
    assert result.best_params is not None


def test_autotune_never_worse_than_paper_start():
    result = autotune("incast", scale=SCALE, max_evaluations=8)
    assert result.best_score <= result.paper_score + 1e-9
    assert result.improvement_over_paper >= 1.0


def test_autotune_search_space_includes_paper_values():
    paper = TunedParams()
    assert paper.zeta in SEARCH_SPACE["zeta"]
    assert paper.tau in SEARCH_SPACE["tau"]
    assert paper.delta in SEARCH_SPACE["delta"]


def test_autotune_validation():
    with pytest.raises(ConfigError):
        autotune("incast", max_evaluations=0)


# ------------------------------------------------------------------------- CLI
def test_cli_table_commands(capsys):
    from repro.cli import main

    assert main(["table1"]) == 0
    assert "16xAArch64" in capsys.readouterr().out
    assert main(["table2"]) == 0
    assert "bitonic" in capsys.readouterr().out
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ping-pong" in out and "perceptron" in out


def test_cli_run_command(capsys):
    from repro.cli import main

    assert main(["run", "ping-pong", "--setting", "0delay", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "execution" in out and "speculative pushes" in out


def test_cli_area_power(capsys):
    from repro.cli import main

    assert main(["area"]) == 0
    assert "0.1700" in capsys.readouterr().out
    assert main(["power"]) == 0
    assert "47.75" in capsys.readouterr().out


def test_cli_rejects_unknown_workload():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["run", "not-a-workload"])
