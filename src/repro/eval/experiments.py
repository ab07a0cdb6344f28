"""Experiment drivers: one function per table and figure of the paper.

Each driver runs the necessary simulations and returns structured results;
``render_*`` helpers print the same rows/series the paper reports.  The
``benchmarks/`` harness wraps these drivers in pytest-benchmark targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.eval.metrics import RunMetrics
from repro.eval.report import format_pct, format_speedup, format_table
from repro.eval.runner import Setting, run_workload, standard_settings
from repro.sim.hooks import EventKind, TraceHook
from repro.sim.stats import geometric_mean
from repro.workloads.registry import WORKLOAD_CLASSES, workload_names


# --------------------------------------------------------------------- Table 1
def table1(config: Optional[SystemConfig] = None) -> Dict[str, str]:
    """Table 1: the simulated hardware configuration."""
    return (config or DEFAULT_CONFIG).table1_rows()


def render_table1(config: Optional[SystemConfig] = None) -> str:
    rows = table1(config)
    return format_table(
        ["component", "configuration"],
        list(rows.items()),
        title="Table 1: gem5 Simulator Hardware Configuration (reproduced)",
    )


# --------------------------------------------------------------------- Table 2
def table2() -> List[Tuple[str, str, str]]:
    """Table 2: benchmark name, description, (M:N)×k topology."""
    rows = []
    for cls in WORKLOAD_CLASSES:
        w = cls()
        topo = "+".join(spec.label() for spec in w.topology())
        rows.append((w.name, w.description, topo))
    return rows


def render_table2() -> str:
    return format_table(
        ["benchmark", "description", "(#prod:#cons) x #queues"],
        table2(),
        title="Table 2: Benchmarks (reproduced)",
    )


# ---------------------------------------------------------------- Figures 8-10
@dataclass
class ComparisonResult:
    """Everything Figures 8, 9, 10a and 10b are drawn from."""

    settings: List[str]
    #: metrics[workload][setting_label]
    metrics: Dict[str, Dict[str, RunMetrics]] = field(default_factory=dict)

    # -- Figure 8 -----------------------------------------------------------------
    def speedups(self) -> Dict[str, Dict[str, float]]:
        baseline = self.settings[0]
        return {
            w: {s: ms[baseline].exec_cycles / ms[s].exec_cycles for s in self.settings}
            for w, ms in self.metrics.items()
        }

    def geomean_speedups(self) -> Dict[str, float]:
        sp = self.speedups()
        return {
            s: geometric_mean([sp[w][s] for w in sp]) for s in self.settings
        }

    # -- Figure 9 -----------------------------------------------------------------
    def breakdown(self) -> Dict[str, Dict[str, Tuple[float, float]]]:
        """(avg empty cycles, avg non-empty cycles) per workload × setting."""
        out: Dict[str, Dict[str, Tuple[float, float]]] = {}
        for w, ms in self.metrics.items():
            out[w] = {}
            for s in self.settings:
                m = ms[s]
                out[w][s] = (m.avg_line_empty, m.exec_cycles - m.avg_line_empty)
        return out

    # -- Figure 10 ----------------------------------------------------------------
    def failure_rates(self) -> Dict[str, Dict[str, float]]:
        return {
            w: {s: ms[s].failure_rate for s in self.settings}
            for w, ms in self.metrics.items()
        }

    def bus_utilizations(self) -> Dict[str, Dict[str, float]]:
        return {
            w: {s: ms[s].bus_utilization for s in self.settings}
            for w, ms in self.metrics.items()
        }


def comparison_experiment(
    workloads: Optional[List[str]] = None,
    settings: Optional[List[Setting]] = None,
    scale: float = 1.0,
    config: Optional[SystemConfig] = None,
    seed: int = 0xC0FFEE,
    jobs: Optional[int] = None,
) -> ComparisonResult:
    """Run the Figure 8/9/10 grid: every workload under every setting.

    ``jobs`` fans the grid's independent cells across worker processes
    (0 = all cores; default serial) with bit-identical metrics — see
    :mod:`repro.eval.parallel`.
    """
    from repro.eval.parallel import RunRequest, run_requests

    settings = settings or standard_settings()
    names = workloads or workload_names()
    cells = [(name, setting) for name in names for setting in settings]
    metrics = run_requests(
        [
            RunRequest.from_setting(
                name, setting, scale=scale, config=config, seed=seed
            )
            for name, setting in cells
        ],
        jobs=jobs,
    )
    result = ComparisonResult(settings=[s.label for s in settings])
    for (name, setting), m in zip(cells, metrics):
        result.metrics.setdefault(name, {})[setting.label] = m
    return result


def render_fig8(result: ComparisonResult) -> str:
    sp = result.speedups()
    rows = [
        [w] + [format_speedup(sp[w][s]) for s in result.settings]
        for w in sp
    ]
    rows.append(
        ["geomean"]
        + [format_speedup(v) for v in result.geomean_speedups().values()]
    )
    return format_table(
        ["benchmark"] + result.settings,
        rows,
        title="Figure 8: speedup over Virtual-Link (higher is better)",
    )


def render_fig9(result: ComparisonResult) -> str:
    br = result.breakdown()
    rows = []
    for w, per_setting in br.items():
        for s, (empty, nonempty) in per_setting.items():
            rows.append([w, s, f"{empty:.0f}", f"{nonempty:.0f}"])
    return format_table(
        ["benchmark", "setting", "avg empty cycles", "non-empty cycles"],
        rows,
        title="Figure 9: execution-time breakdown (consumer cacheline empty vs not)",
    )


def render_fig10a(result: ComparisonResult) -> str:
    fr = result.failure_rates()
    rows = [
        [w] + [format_pct(fr[w][s]) for s in result.settings] for w in fr
    ]
    return format_table(
        ["benchmark"] + result.settings,
        rows,
        title="Figure 10a: push failure rate (lower is better)",
    )


def render_fig10b(result: ComparisonResult) -> str:
    bu = result.bus_utilizations()
    rows = [
        [w] + [format_pct(bu[w][s]) for s in result.settings] for w in bu
    ]
    return format_table(
        ["benchmark"] + result.settings,
        rows,
        title="Figure 10b: bus utilization (lower is more efficient)",
    )


# --------------------------------------------------------------------- Figure 7
@dataclass(slots=True)
class Transaction:
    """A reconstructed message delivery (one line of markers in Figure 7).

    Each field is the tick of one of the five trace moments
    (:class:`~repro.sim.hooks.EventKind`) of the message, or None when the
    moment did not happen.  For an on-demand push gated by the request
    arrival, the paper's *potential speculative saving* is
    ``line_fill - max(data_arrive, line_vacate)``.
    """

    transaction_id: int
    sqi: int
    data_arrive: Optional[int] = None
    request_arrive: Optional[int] = None
    line_vacate: Optional[int] = None
    line_fill: Optional[int] = None
    first_use: Optional[int] = None

    @property
    def speculative(self) -> bool:
        """True when delivery happened without a consumer request (red dashed)."""
        return self.request_arrive is None and self.line_fill is not None

    @property
    def complete(self) -> bool:
        return self.line_fill is not None and self.first_use is not None

    @property
    def request_bound(self) -> bool:
        """True when the request was the latest of the three fill prerequisites.

        These are the transactions the paper draws in dark black: speculation
        could have delivered the data earlier.
        """
        if self.speculative or self.line_fill is None or self.request_arrive is None:
            return False
        others = [t for t in (self.data_arrive, self.line_vacate) if t is not None]
        if not others:
            return False
        return self.request_arrive > max(others)

    @property
    def potential_saving(self) -> int:
        """Cycles a perfectly-timed speculative push could have saved."""
        if not self.request_bound or self.line_fill is None:
            return 0
        ready = max(t for t in (self.data_arrive, self.line_vacate) if t is not None)
        return max(0, self.line_fill - ready)

    @property
    def load_to_use(self) -> Optional[int]:
        """Cycles between cacheline fill and the consumer's first use."""
        if self.line_fill is None or self.first_use is None:
            return None
        return self.first_use - self.line_fill


#: The :class:`Transaction` field each trace moment sets.
_MOMENT_FIELD = {
    EventKind.DATA_ARRIVE: "data_arrive",
    EventKind.REQUEST_ARRIVE: "request_arrive",
    EventKind.LINE_VACATE: "line_vacate",
    EventKind.LINE_FILL: "line_fill",
    EventKind.FIRST_USE: "first_use",
}


def reconstruct_transactions(events: Iterable[TraceHook]) -> List[Transaction]:
    """Group trace moments by transaction id, in id order.

    A later moment of the same kind overwrites an earlier one, except the
    request arrival: the *earliest* matched request is kept, as the
    paper's plot does.
    """
    by_id: Dict[int, Transaction] = {}
    for ev in events:
        txn = by_id.get(ev.transaction_id)
        if txn is None:
            txn = by_id[ev.transaction_id] = Transaction(ev.transaction_id, ev.sqi)
        if ev.kind is EventKind.REQUEST_ARRIVE and txn.request_arrive is not None:
            continue
        setattr(txn, _MOMENT_FIELD[ev.kind], ev.tick)
    return [by_id[k] for k in sorted(by_id)]


def transactions_csv(transactions: Iterable[Transaction]) -> str:
    """One CSV row per transaction: the five Figure 7 moments plus the
    derived analysis fields, ready for external plotting."""
    lines = [
        "transaction_id,sqi,data_arrive,request_arrive,line_vacate,"
        "line_fill,first_use,speculative,request_bound,potential_saving"
    ]
    for t in transactions:
        fields = [
            t.transaction_id, t.sqi, t.data_arrive, t.request_arrive,
            t.line_vacate, t.line_fill, t.first_use, int(t.speculative),
            int(t.request_bound), t.potential_saving,
        ]
        lines.append(",".join("" if f is None else str(f) for f in fields))
    return "\n".join(lines)


@dataclass
class TraceResult:
    """The Figure 7 transaction trace and its derived analysis."""

    transactions: List[Transaction]
    exec_cycles: int

    @property
    def speculative_count(self) -> int:
        return sum(1 for t in self.transactions if t.speculative)

    @property
    def request_bound_count(self) -> int:
        """Transactions the paper highlights dark: gated by the request."""
        return sum(1 for t in self.transactions if t.request_bound)

    @property
    def total_potential_saving(self) -> int:
        return sum(t.potential_saving for t in self.transactions)


def trace_experiment(
    setting: Optional[Setting] = None,
    scale: float = 0.25,
    seed: int = 0xC0FFEE,
) -> TraceResult:
    """Figure 7: trace incast configured with a single producer thread and a
    single consumer cacheline on one SQI.

    The default setting is the VL baseline — the paper's trace shows the
    on-demand transactions whose fills are *hindered by the request arrival*
    and quantifies the saving a speculative push could have realised.  The
    run is a plain :func:`~repro.eval.runner.run_workload` with one more
    bus subscriber, which collects every :class:`~repro.sim.hooks.TraceHook`.
    """
    from repro.workloads.ember import Incast

    setting = setting or standard_settings()[0]

    class SingleIncast(Incast):
        """incast with 1 producer, 1 consumer cacheline, single SQI."""

        PRODUCERS = 1
        MASTER_LINES = 1

    # Temporarily register the variant so the runner can build it.
    import repro.workloads.registry as registry

    events: List[TraceHook] = []
    original = registry._REGISTRY.get("incast")
    registry._REGISTRY["incast"] = SingleIncast
    try:
        metrics = run_workload(
            "incast", setting, scale=scale, seed=seed,
            on_system=lambda system: system.hooks.subscribe(TraceHook, events.append),
        )
    finally:
        registry._REGISTRY["incast"] = original
    txns = [t for t in reconstruct_transactions(events) if t.line_fill is not None]
    return TraceResult(transactions=txns, exec_cycles=metrics.exec_cycles)


# ------------------------------------------------------------------- inlining
def inlining_experiment(
    scale: float = 0.5, seed: int = 0xC0FFEE
) -> Dict[str, float]:
    """Section 3.4/4.3: speedup of library inlining on the VL baseline.

    The paper measured the macro-inlining of hot queue functions to be worth
    about 1.02× on average; this runs every benchmark with and without the
    per-call overhead and reports per-benchmark and geomean speedups.
    """
    vl = standard_settings()[0]
    inlined = DEFAULT_CONFIG.with_overrides(inline_library=True)
    outlined = DEFAULT_CONFIG.with_overrides(inline_library=False)
    out: Dict[str, float] = {}
    for name in workload_names():
        fast = run_workload(name, vl, scale=scale, config=inlined, seed=seed)
        slow = run_workload(name, vl, scale=scale, config=outlined, seed=seed)
        out[name] = slow.exec_cycles / fast.exec_cycles
    out["geomean"] = geometric_mean([v for k, v in out.items() if k != "geomean"])
    return out
