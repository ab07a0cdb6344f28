"""Extensions beyond the paper: learned delay algorithms, multi-router
scaling, and the per-benchmark parameter search (the paper's future work).
"""

from _shared import BENCH_SCALE, BENCH_SEED

from repro.config import SystemConfig
from repro.eval import Setting, run_workload, standard_settings
from repro.eval.autotune import autotune
from repro.eval.report import format_speedup, format_table
from repro.spamer.learned import HistoryDelay, PerceptronDelay


def test_learned_algorithms(benchmark):
    """History-based and perceptron-style predictors (Section 3.5's design
    space beyond the three evaluated points)."""

    def sweep():
        out = {}
        vl = standard_settings()[0]
        for name in ("incast", "FIR", "firewall"):
            base = run_workload(name, vl, scale=BENCH_SCALE, seed=BENCH_SEED)
            row = {}
            for label, factory in (
                ("history", HistoryDelay),
                ("perceptron", PerceptronDelay),
            ):
                setting = Setting(f"SPAMeR({label})", "spamer", factory)
                m = run_workload(name, setting, scale=BENCH_SCALE, seed=BENCH_SEED)
                row[label] = (m.speedup_over(base), m.failure_rate)
            out[name] = row
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for name, per_algo in result.items():
        for label, (speedup, fail) in per_algo.items():
            rows.append([name, label, format_speedup(speedup), f"{fail:.1%}"])
    print("\n" + format_table(["benchmark", "algorithm", "speedup", "failures"],
                              rows, title="Extension: learned delay algorithms"))
    # Perceptron competes with the evaluated algorithms on every benchmark;
    # the EWMA history predictor smears FIR's bimodal intervals and loses
    # there — the "learns the slow period" failure mode made concrete.
    assert result["incast"]["perceptron"][0] > 1.15
    assert result["FIR"]["perceptron"][0] > 1.5
    assert result["FIR"]["history"][0] < result["FIR"]["perceptron"][0]


def test_multirouter_scaling(benchmark):
    """More routing devices relieve buffer pressure when entries are scarce
    (the paper leaves multi-router topologies to future work)."""

    def sweep():
        setting = standard_settings()[1]  # 0delay
        out = {}
        for routers in (1, 2, 4):
            cfg = SystemConfig(num_srds=routers, prodbuf_entries=8)
            m = run_workload("FIR", setting, scale=BENCH_SCALE, config=cfg,
                             seed=BENCH_SEED)
            out[routers] = m.exec_cycles
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[k, v] for k, v in result.items()]
    print("\n" + format_table(["routers", "FIR exec cycles (prodBuf=8 each)"],
                              rows, title="Extension: multi-router scaling"))
    assert result[4] <= result[1]


def test_autotune_future_work(benchmark):
    """Section 3.5 future work: per-benchmark parameter search."""

    def search():
        return {
            name: autotune(name, scale=BENCH_SCALE * 0.6, seed=BENCH_SEED,
                           max_evaluations=15)
            for name in ("FIR", "incast")
        }

    results = benchmark.pedantic(search, rounds=1, iterations=1)
    rows = [
        [name, r.best_params.label(), f"{r.best_score:.3f}",
         f"{r.paper_score:.3f}", format_speedup(r.improvement_over_paper),
         r.evaluations]
        for name, r in results.items()
    ]
    print("\n" + format_table(
        ["benchmark", "best params", "best score", "paper score",
         "improvement", "sims"],
        rows, title="Extension: per-benchmark parameter search"))
    for r in results.values():
        # The search never regresses below the paper's fixed set, and the
        # paper's FIR-tuned choice is already near-optimal on FIR.
        assert r.best_score <= r.paper_score + 1e-9
    assert results["FIR"].improvement_over_paper < 1.2
