"""Output checks: every run is validated and compared field by field.

A run fails when it raises (``run_workload`` validates every workload), when
its :class:`~repro.eval.metrics.RunMetrics` differ from the reference
recorded for its seed (``reference.json``), when a repeat of the matrix
differs from the first iteration, or when it breaks an invariant that holds
for any seed.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from perfbench.matrix import Record

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def run_key(record: Record) -> str:
    """A readable name for one matrix cell."""
    request, metrics = record.request, record.metrics
    topology = request.config.topology if request.config is not None else "single-bus"
    arrival = "closed"
    if request.arrival is not None:
        arrival = f"{request.arrival.name}@{dict(request.arrival.params)['rate']:.6g}"
    return f"{metrics.workload}/{metrics.setting}/{topology}/{arrival}"


def flatten(metrics) -> Dict[str, object]:
    """RunMetrics as one flat JSON-able dict (``extra`` keys prefixed)."""
    fields = dataclasses.asdict(metrics)
    extra = fields.pop("extra")
    fields.update({f"extra.{key}": value for key, value in sorted(extra.items())})
    # Round-trip through JSON so live values compare like recorded ones.
    return json.loads(json.dumps(fields))


def snapshot(records: Sequence[Record]) -> List[Dict[str, object]]:
    """The recordable form of one iteration: key + flat metrics per run."""
    return [{"run": run_key(r), "metrics": flatten(r.metrics)} for r in records]


def diff(records: Sequence[Record], expected: Sequence[Dict[str, object]]) -> Dict[int, List[str]]:
    """Mismatches against *expected* (a :func:`snapshot`), by run index."""
    failures: Dict[int, List[str]] = {}
    for index, record in enumerate(records):
        if index >= len(expected):
            failures[index] = [f"{run_key(record)}: no reference run"]
            continue
        want = expected[index]
        got = flatten(record.metrics)
        problems = []
        if run_key(record) != want["run"]:
            problems.append(f"run is {run_key(record)}, reference has {want['run']}")
        for name in sorted(set(got) | set(want["metrics"])):
            if got.get(name) != want["metrics"].get(name):
                problems.append(
                    f"{run_key(record)}: {name} = {got.get(name)!r}, "
                    f"reference {want['metrics'].get(name)!r}"
                )
        if problems:
            failures[index] = problems
    return failures


def invariants(records: Sequence[Record]) -> Dict[int, List[str]]:
    """Checks that hold for any seed, by run index.

    Every message produced is delivered; every open-loop request that
    arrived completes; and a closed workload on one machine delivers the
    same number of messages under every setting.
    """
    failures: Dict[int, List[str]] = {}
    delivered_by_cell: Dict[tuple, int] = {}
    for index, record in enumerate(records):
        metrics, problems = record.metrics, []
        if metrics.messages_delivered != metrics.messages_produced:
            problems.append(
                f"delivered {metrics.messages_delivered} of "
                f"{metrics.messages_produced} messages"
            )
        extra = metrics.extra or {}
        if extra.get("request_count") != extra.get("request_opened"):
            problems.append(
                f"completed {extra.get('request_count')} of "
                f"{extra.get('request_opened')} requests"
            )
        if record.events <= 0:
            problems.append("dispatched no events")
        if record.request.arrival is None:
            cell = (metrics.workload, json.dumps(flatten_config(record), sort_keys=True))
            first = delivered_by_cell.setdefault(cell, metrics.messages_delivered)
            if first != metrics.messages_delivered:
                problems.append(
                    f"delivered {metrics.messages_delivered} messages, another "
                    f"setting on the same machine delivered {first}"
                )
        if problems:
            failures[index] = [f"{run_key(record)}: {p}" for p in problems]
    return failures


def flatten_config(record: Record) -> Optional[dict]:
    config = record.request.config
    if config is None:
        return None
    # burst_k/p_min select the speculation policy, not the machine.
    return {k: v for k, v in config.to_dict().items() if k not in ("burst_k", "p_min")}


def load_reference(seed: int, workload: str, path: Path = REFERENCE) -> Optional[list]:
    """The recorded snapshot for (*seed*, *workload*), or None."""
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return doc.get(str(seed), {}).get(workload)


def save_reference(seed: int, workload: str, runs: list, path: Path = REFERENCE) -> None:
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc.setdefault(str(seed), {})[workload] = runs
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
