"""Plain-text rendering of tables and figure data.

The benches print the same rows/series the paper reports; these helpers
format aligned text tables so `pytest benchmarks/ --benchmark-only -s`
output reads like the paper's tables and figure captions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned text table."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_pct(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def format_speedup(x: float) -> str:
    return f"{x:.2f}x"


def format_trace_rows(transactions, start: int, end: int) -> str:
    """Render a Figure 7 style listing of transactions in a time window."""
    lines = [
        f"{'txn':>5s} {'kind':>11s} {'data_arr':>9s} {'req_arr':>9s} "
        f"{'vacate':>9s} {'fill':>9s} {'1st_use':>9s} {'saving':>7s}"
    ]
    for t in transactions:
        if t.line_fill is None or not (start <= t.line_fill < end):
            continue
        kind = "speculative" if t.speculative else (
            "req-bound" if t.request_bound else "on-demand"
        )
        fmt = lambda v: f"{v:9d}" if v is not None else "        -"  # noqa: E731
        lines.append(
            f"{t.transaction_id:5d} {kind:>11s} {fmt(t.data_arrive)} "
            f"{fmt(t.request_arrive)} {fmt(t.line_vacate)} {fmt(t.line_fill)} "
            f"{fmt(t.first_use)} {t.potential_saving:7d}"
        )
    return "\n".join(lines)


def format_accuracy_table(accuracies: Iterable[object]) -> str:
    """Push precision/recall table, one row per workload × setting.

    Accepts :class:`~repro.obs.accuracy.SpeculationAccuracy` objects or the
    plain dicts :meth:`~repro.obs.accuracy.SpeculationAccuracy.as_dict`
    exports (the obs runner hands cells across process boundaries as
    dicts).
    """
    rows = []
    for acc in accuracies:
        data = acc.as_dict() if hasattr(acc, "as_dict") else acc
        rows.append(
            [
                data["workload"],
                data["setting"],
                data["spec_pushes"],
                data["spec_hits"],
                format_pct(data["precision"]),
                format_pct(data["recall"]),
                data["wasted_push_bytes"],
            ]
        )
    return format_table(
        [
            "workload", "setting", "spec pushes", "hits",
            "precision", "recall", "wasted bytes",
        ],
        rows,
        title="speculation accuracy",
    )


def format_stage_table(title: str, stage_latency: Dict[str, Dict[str, float]]) -> str:
    """Stage-latency percentile table keyed by lifecycle edge."""
    rows = [
        [
            edge,
            int(row["count"]),
            f"{row['mean']:.1f}",
            f"{row.get('p50', 0.0):.0f}",
            f"{row.get('p90', 0.0):.0f}",
            f"{row.get('p99', 0.0):.0f}",
        ]
        for edge, row in sorted(stage_latency.items())
    ]
    return format_table(
        ["stage", "n", "mean", "p50", "p90", "p99"], rows, title=title
    )
