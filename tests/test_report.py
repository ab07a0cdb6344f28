"""Unit tests for the text-rendering helpers."""

from repro.eval.experiments import Transaction
from repro.eval.report import (
    format_pct,
    format_speedup,
    format_table,
    format_trace_rows,
)


def test_format_table_alignment():
    out = format_table(["a", "long-header"], [["x", 1], ["yyyy", 22]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "long-header" in lines[1]
    # All data rows share the separator width.
    assert len(lines[2]) == len(lines[3]) or len(lines[3]) <= len(lines[2])
    assert "yyyy" in out and "22" in out


def test_format_helpers():
    assert format_pct(0.1234) == "12.3%"
    assert format_speedup(1.456) == "1.46x"


def test_format_trace_rows_classification():
    ondemand = Transaction(0, 1, data_arrive=5, request_arrive=50,
                           line_vacate=10, line_fill=80, first_use=90)
    spec = Transaction(1, 1, data_arrive=100, line_vacate=95,
                       line_fill=130, first_use=140)
    out = format_trace_rows([ondemand, spec], 0, 1000)
    assert "req-bound" in out
    assert "speculative" in out
    assert out.count("\n") == 2  # header + 2 rows


def test_format_trace_rows_window_filter():
    txn = Transaction(0, 1, data_arrive=5, line_vacate=0, line_fill=80,
                      first_use=90)
    out = format_trace_rows([txn], 100, 200)
    assert out.count("\n") == 0  # header only


def test_format_accuracy_table_accepts_objects_and_dicts():
    from repro.eval.report import format_accuracy_table
    from repro.obs.accuracy import SpeculationAccuracy

    obj = SpeculationAccuracy("ping-pong", "tuned", 10, 8, 10, 128)
    out = format_accuracy_table([obj, obj.as_dict()])
    lines = out.splitlines()
    assert lines[0] == "speculation accuracy"
    assert out.count("ping-pong") == 2
    assert "80.0%" in out and "128" in out


def test_format_stage_table_orders_edges():
    from repro.eval.report import format_stage_table

    out = format_stage_table(
        "stages",
        {
            "pushed->mapped": {"count": 2.0, "mean": 5.5, "p50": 5.0,
                               "p90": 6.0, "p99": 6.0},
            "created->pushed": {"count": 2.0, "mean": 1.0, "p50": 1.0,
                                "p90": 1.0, "p99": 1.0},
        },
    )
    lines = out.splitlines()
    assert lines[0] == "stages"
    assert lines.index(
        next(l for l in lines if "created->pushed" in l)
    ) < lines.index(next(l for l in lines if "pushed->mapped" in l))
    assert "5.5" in out
