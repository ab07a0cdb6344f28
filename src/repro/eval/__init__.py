"""Evaluation harness: runners, metrics, and per-table/figure experiments."""

from repro.eval.autotune import TuneResult, autotune, autotune_all
from repro.eval.batch import parse_spec, run_batch, run_batch_file, summarize_report
from repro.eval.areapower import (
    AreaEstimate,
    PowerEstimate,
    estimate_power,
    estimate_srd_area,
    estimate_vlrd_area,
    paper_power_bounds,
)
from repro.eval.experiments import (
    ComparisonResult,
    TraceResult,
    comparison_experiment,
    inlining_experiment,
    render_fig8,
    render_fig9,
    render_fig10a,
    render_fig10b,
    render_table1,
    render_table2,
    table1,
    table2,
    trace_experiment,
)
from repro.eval.metrics import RunMetrics
from repro.eval.parallel import (
    ResultCache,
    RunOutcome,
    RunRequest,
    execute_request,
    execute_requests,
    resolve_jobs,
    run_requests,
)
from repro.eval.replication import (
    ReplicatedComparison,
    ReplicatedStat,
    replicated_comparison,
)
from repro.eval.runner import (
    Setting,
    collect_metrics,
    run_workload,
    standard_settings,
    tuned_setting,
)
from repro.eval.sweep import (
    PAPER_TUNED_PARAMS,
    SensitivityPoint,
    default_parameter_grid,
    sensitivity_sweep,
)

__all__ = [
    "AreaEstimate",
    "ReplicatedComparison",
    "ReplicatedStat",
    "TuneResult",
    "autotune",
    "autotune_all",
    "parse_spec",
    "run_batch",
    "run_batch_file",
    "summarize_report",
    "replicated_comparison",
    "ComparisonResult",
    "PAPER_TUNED_PARAMS",
    "PowerEstimate",
    "ResultCache",
    "RunMetrics",
    "RunOutcome",
    "RunRequest",
    "execute_request",
    "execute_requests",
    "resolve_jobs",
    "run_requests",
    "SensitivityPoint",
    "Setting",
    "TraceResult",
    "collect_metrics",
    "comparison_experiment",
    "default_parameter_grid",
    "estimate_power",
    "estimate_srd_area",
    "estimate_vlrd_area",
    "inlining_experiment",
    "paper_power_bounds",
    "render_fig8",
    "render_fig9",
    "render_fig10a",
    "render_fig10b",
    "render_table1",
    "render_table2",
    "run_workload",
    "sensitivity_sweep",
    "standard_settings",
    "table1",
    "table2",
    "trace_experiment",
    "tuned_setting",
]
