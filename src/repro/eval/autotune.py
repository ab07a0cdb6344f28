"""Per-benchmark tuned-parameter search (the paper's stated future work).

Section 3.5: "As future work, we could search to find a more optimal set of
parameters for each benchmark and reconfigure those parameters
dynamically."  This module implements that search as a coordinate-descent
hill climber over (ζ, τ, δ, α, β), scoring candidates by execution time
with an energy tie-breaker (the Figure 11 objective: closest to the
origin).

The search is deliberately simulation-budget-aware: it memoizes evaluated
points and stops after a configurable number of simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.metrics import RunMetrics
from repro.eval.runner import (
    multipush_setting,
    run_workload,
    setting_by_name,
    standard_settings,
    tuned_setting,
)
from repro.spamer.delay import TunedParams

#: Candidate values per coordinate, centred on the paper's choice.
SEARCH_SPACE: Dict[str, Tuple[int, ...]] = {
    "zeta": (64, 128, 256, 512),
    "tau": (96, 144, 192, 288),
    "delta": (16, 32, 64, 128),
    "alpha": (1, 2),
    "beta": (1, 2, 4),
}


@dataclass(frozen=True)
class TuneResult:
    """Outcome of a per-benchmark parameter search."""

    workload: str
    best_params: TunedParams
    best_score: float
    baseline_cycles: int
    best_metrics: RunMetrics
    evaluations: int
    #: Score of the paper's fixed parameter set, for comparison.
    paper_score: float

    @property
    def improvement_over_paper(self) -> float:
        """How much faster the searched set is than the paper's fixed set
        (1.0 = no improvement)."""
        return self.paper_score / self.best_score if self.best_score else 1.0


def _score(metrics: RunMetrics, baseline: RunMetrics, energy_weight: float) -> float:
    """Figure 11 objective: normalized delay plus a small energy term."""
    return metrics.normalized_delay(baseline) + energy_weight * metrics.normalized_energy(
        baseline
    )


def autotune(
    workload_name: str,
    scale: float = 0.25,
    config: Optional[SystemConfig] = None,
    seed: int = 0xC0FFEE,
    start: Optional[TunedParams] = None,
    energy_weight: float = 0.05,
    max_evaluations: int = 40,
    max_rounds: int = 3,
) -> TuneResult:
    """Coordinate-descent search for the best tuned parameters.

    Starting from *start* (default: the paper's set), sweep one coordinate
    at a time over :data:`SEARCH_SPACE`, keeping the best value before
    moving to the next coordinate; repeat up to *max_rounds* passes or
    until no coordinate improves, within *max_evaluations* simulations.
    """
    if max_evaluations < 1 or max_rounds < 1:
        raise ConfigError("autotune needs positive budgets")
    vl = standard_settings()[0]
    baseline = run_workload(workload_name, vl, scale=scale, config=config, seed=seed)

    cache: Dict[TunedParams, RunMetrics] = {}
    evaluations = 0

    def evaluate(params: TunedParams) -> Optional[RunMetrics]:
        nonlocal evaluations
        if params in cache:
            return cache[params]
        if evaluations >= max_evaluations:
            return None
        evaluations += 1
        metrics = run_workload(
            workload_name,
            tuned_setting(params),
            scale=scale,
            config=config,
            seed=seed,
        )
        cache[params] = metrics
        return metrics

    current = start or TunedParams()
    current_metrics = evaluate(current)
    assert current_metrics is not None
    paper_metrics = evaluate(TunedParams())
    assert paper_metrics is not None
    best_score = _score(current_metrics, baseline, energy_weight)

    for _round in range(max_rounds):
        improved = False
        for coord, values in SEARCH_SPACE.items():
            for value in values:
                if getattr(current, coord) == value:
                    continue
                candidate = replace(current, **{coord: value})
                metrics = evaluate(candidate)
                if metrics is None:
                    break  # budget exhausted
                score = _score(metrics, baseline, energy_weight)
                if score < best_score - 1e-9:
                    current, best_score, improved = candidate, score, True
        if not improved:
            break

    return TuneResult(
        workload=workload_name,
        best_params=current,
        best_score=best_score,
        baseline_cycles=baseline.exec_cycles,
        best_metrics=cache[current],
        evaluations=evaluations,
        paper_score=_score(paper_metrics, baseline, energy_weight),
    )


# --------------------------------------------------------- (k, p_min) frontier
#: Burst-width candidates for the multi-push grid (k=1 is the single-push
#: control — its row must match SPAMeR(tuned) bit-for-bit).
DEFAULT_BURST_KS: Tuple[int, ...] = (1, 2, 4, 8)
#: Acceptance-gate candidates: 0.0 never gates, 0.95 almost always does.
DEFAULT_P_MINS: Tuple[float, ...] = (0.0, 0.5, 0.75, 0.9)


def saturated_bus_config(
    cores: int = 64,
    lines_per_endpoint: int = 8,
    base: Optional[SystemConfig] = None,
) -> SystemConfig:
    """The saturated shared-bus configuration the frontier is scored on.

    A 64-core single bus is the paper's worst congestion case: every push,
    request and invalidation serializes on one medium, so wasted burst
    traffic is maximally punished.  Buffer pools grow with the core count
    at Table 1's per-core ratio (mirroring the scaling study) and consumer
    endpoints get enough lines for the widest burst to claim ahead.
    """
    base = base or SystemConfig()
    entries = max(64, 4 * cores)
    return base.with_overrides(
        num_cores=cores,
        topology="single-bus",
        lines_per_endpoint=max(base.lines_per_endpoint, lines_per_endpoint),
        prodbuf_entries=entries,
        consbuf_entries=entries,
        linktab_entries=entries,
        specbuf_entries=entries,
    )


@dataclass(frozen=True)
class BurstPoint:
    """One evaluated (k, p_min) grid point."""

    burst_k: int
    p_min: float
    metrics: RunMetrics
    #: Scored quantity: closed-batch exec cycles, or p99 sojourn when the
    #: grid ran under an open arrival process.
    score: float

    def speedup_over(self, baseline: float) -> float:
        """Baseline score / this score (>1 = this point is better)."""
        return baseline / self.score if self.score else 0.0


@dataclass(frozen=True)
class BurstTuneResult:
    """Outcome of the (k, p_min) grid search for one workload."""

    workload: str
    #: Offered load of the open sweep, or None for the closed-batch grid.
    rho: Optional[float]
    #: SPAMeR(tuned) single-push control on the identical configuration.
    baseline_score: float
    baseline_metrics: RunMetrics
    points: List[BurstPoint]
    evaluations: int

    @property
    def best(self) -> BurstPoint:
        """The winning point; grid order breaks ties deterministically."""
        return min(self.points, key=lambda p: p.score)

    @property
    def best_speedup(self) -> float:
        return self.best.speedup_over(self.baseline_score)

    def frontier(self) -> List[BurstPoint]:
        """Per-k best points, ascending k — the (k, p_min) frontier."""
        by_k: Dict[int, BurstPoint] = {}
        for point in self.points:
            held = by_k.get(point.burst_k)
            if held is None or point.score < held.score:
                by_k[point.burst_k] = point
        return [by_k[k] for k in sorted(by_k)]


def _burst_score(metrics: RunMetrics, open_mode: bool) -> float:
    if open_mode:
        return float(metrics.extra.get("request_p99", 0.0)) or float(
            metrics.exec_cycles
        )
    return float(metrics.exec_cycles)


def autotune_burst(
    workload_name: str = "incast",
    ks: Sequence[int] = DEFAULT_BURST_KS,
    p_mins: Sequence[float] = DEFAULT_P_MINS,
    scale: float = 0.05,
    seed: int = 0xC0FFEE,
    config: Optional[SystemConfig] = None,
    rho: Optional[float] = None,
    arrival: str = "poisson",
    jobs: Optional[int] = None,
    executor=None,
) -> BurstTuneResult:
    """Grid-search the (k, p_min) burst frontier for one workload.

    Every grid cell runs on the same configuration (default:
    :func:`saturated_bus_config`, the 64-core shared bus) through the
    deterministic multiprocess executor, so the report is bit-identical
    across ``jobs`` values.  With ``rho=None`` the grid is a closed batch
    scored by execution cycles; with a rho the tuned control's closed run
    calibrates the service rate and every cell re-runs under an open
    arrival process at that offered load, scored by p99 sojourn — the
    saturated-tail question the frontier exists to answer.

    *executor* is any ``run_requests``-shaped callable (e.g.
    ``functools.partial(run_requests, cache=ResultCache(dir))``, which
    is ``repro autotune --burst --cache DIR``); the grid routes through
    it so repeated frontier sweeps hit the result cache.
    """
    from repro.eval.load import arrival_spec_for
    from repro.eval.parallel import RunRequest, run_requests
    from repro.workloads.registry import make_workload

    if not ks or not p_mins:
        raise ConfigError("autotune_burst needs at least one k and one p_min")
    config = config or saturated_bus_config()
    tuned = setting_by_name("tuned")

    baseline_closed = run_workload(
        workload_name, tuned, scale=scale, config=config, seed=seed
    )
    arrival_spec = None
    if rho is not None:
        probe = make_workload(workload_name, scale=scale)
        if not probe.open_capable:
            raise ConfigError(
                f"workload {workload_name!r} is closed-only; the rho-scored "
                "grid needs an open-capable workload"
            )
        quotas = probe.session_quotas()
        service_rate = (
            sum(quotas.values()) / baseline_closed.exec_cycles
            if baseline_closed.exec_cycles
            else 0.0
        )
        session_rate = rho * service_rate / len(quotas)
        arrival_spec = arrival_spec_for(arrival, session_rate)

    grid = [(k, p) for k in ks for p in p_mins]
    requests = [
        RunRequest.from_setting(
            workload_name,
            multipush_setting(k, p),
            scale=scale,
            seed=seed,
            config=config,
            arrival=arrival_spec,
        )
        for k, p in grid
    ]
    if arrival_spec is not None:
        # The open-mode control: tuned single-push at the same offered load.
        requests.append(
            RunRequest.from_setting(
                workload_name,
                tuned,
                scale=scale,
                seed=seed,
                config=config,
                arrival=arrival_spec,
            )
        )
    runner = executor if executor is not None else run_requests
    metrics_list = runner(requests, jobs=jobs)

    open_mode = arrival_spec is not None
    if open_mode:
        baseline_metrics = metrics_list[-1]
        metrics_list = metrics_list[:-1]
    else:
        baseline_metrics = baseline_closed
    points = [
        BurstPoint(k, p, metrics, _burst_score(metrics, open_mode))
        for (k, p), metrics in zip(grid, metrics_list)
    ]
    return BurstTuneResult(
        workload=workload_name,
        rho=rho,
        baseline_score=_burst_score(baseline_metrics, open_mode),
        baseline_metrics=baseline_metrics,
        points=points,
        evaluations=len(requests) + 1,
    )


def autotune_all(
    workloads: Optional[List[str]] = None,
    scale: float = 0.15,
    max_evaluations: int = 25,
    seed: int = 0xC0FFEE,
) -> Dict[str, TuneResult]:
    """Search every benchmark; returns per-benchmark results."""
    from repro.workloads.registry import workload_names

    out = {}
    for name in workloads or workload_names():
        out[name] = autotune(
            name, scale=scale, max_evaluations=max_evaluations, seed=seed
        )
    return out
