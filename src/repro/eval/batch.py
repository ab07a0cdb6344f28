"""Batch experiment runner: JSON spec in, JSON report out.

For artifact-evaluation style studies: describe a grid of (workloads ×
settings × seeds × config overrides) in a JSON document, run it, and get a
machine-readable report with every metric plus derived speedups.  Specs and
reports are plain JSON so they diff, archive and plot outside Python.

Spec format::

    {
      "name": "my-study",
      "workloads": ["incast", "FIR"],          // default: all 8
      "settings": ["vl", "0delay", "tuned"],   // default: the 4 evaluated
      "seeds": [12648430, 1],                  // default: [0xC0FFEE]
      "scale": 0.25,                           // default 1.0
      "config": {"bus_latency": 72}            // SystemConfig overrides
    }

The report nests ``results[workload][setting][seed] -> metrics dict`` and
adds per-seed speedups over the first listed setting.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.parallel import RunRequest, run_requests
from repro.eval.runner import (
    available_setting_names,
    setting_by_name,
)
from repro.workloads.registry import workload_names


def _metrics_to_dict(metrics) -> Dict:
    data = dataclasses.asdict(metrics)
    data["failure_rate"] = metrics.failure_rate
    data["bus_utilization"] = metrics.bus_utilization
    data["push_energy"] = metrics.push_energy
    return data


def parse_spec(spec: Dict) -> Dict:
    """Validate and normalize a batch spec (filling defaults)."""
    if not isinstance(spec, dict):
        raise ConfigError("batch spec must be a JSON object")
    out = {
        "name": spec.get("name", "unnamed-study"),
        "workloads": spec.get("workloads", workload_names()),
        "settings": spec.get("settings", ["vl", "0delay", "adapt", "tuned"]),
        "seeds": spec.get("seeds", [0xC0FFEE]),
        "scale": float(spec.get("scale", 1.0)),
        "config": spec.get("config", {}),
    }
    unknown_workloads = set(out["workloads"]) - set(workload_names())
    if unknown_workloads:
        raise ConfigError(f"unknown workloads in spec: {sorted(unknown_workloads)}")
    # Settings resolve through the registry: any registered device or
    # zero-arg algorithm short-name is accepted.
    unknown_settings = set(out["settings"]) - set(available_setting_names())
    if unknown_settings:
        raise ConfigError(f"unknown settings in spec: {sorted(unknown_settings)}")
    if not out["seeds"]:
        raise ConfigError("spec needs at least one seed")
    if out["scale"] <= 0:
        raise ConfigError(f"invalid scale {out['scale']}")
    # Validate overrides eagerly (raises ConfigError on bad fields/values).
    SystemConfig().with_overrides(**out["config"])
    return out


def run_batch(
    spec: Dict, jobs: Optional[int] = None, executor=None
) -> Dict:
    """Run the grid a spec describes; returns the JSON-serializable report.

    ``jobs`` fans the independent (workload × setting × seed) cells across
    worker processes (0 = all cores; default serial); the report is
    bit-identical either way because results merge in submission order.

    *executor* is any ``run_requests``-shaped callable — e.g.
    ``functools.partial(run_requests, cache=ResultCache(dir))`` to serve
    repeated cells from a result cache (``repro batch --cache DIR``); the
    report stays bit-identical by the same determinism argument.
    """
    norm = parse_spec(spec)
    config = SystemConfig().with_overrides(**norm["config"])
    settings = {name: setting_by_name(name) for name in norm["settings"]}
    baseline_name = norm["settings"][0]

    cells = [
        (workload, setting_name, seed)
        for workload in norm["workloads"]
        for setting_name in settings
        for seed in norm["seeds"]
    ]
    requests = [
        RunRequest.from_setting(
            workload, settings[setting_name], scale=norm["scale"],
            config=config, seed=seed,
        )
        for workload, setting_name, seed in cells
    ]
    runner = executor if executor is not None else run_requests
    all_metrics = runner(requests, jobs=jobs)

    results: Dict[str, Dict[str, Dict[str, Dict]]] = {}
    for (workload, setting_name, seed), metrics in zip(cells, all_metrics):
        per_workload = results.setdefault(workload, {})
        per_setting = per_workload.setdefault(setting_name, {})
        per_setting[str(seed)] = _metrics_to_dict(metrics)

    # Derived: per-seed speedups over the first listed setting.
    speedups: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload, per_setting in results.items():
        speedups[workload] = {}
        for setting_name, per_seed in per_setting.items():
            speedups[workload][setting_name] = {
                seed: per_setting[baseline_name][seed]["exec_cycles"]
                / data["exec_cycles"]
                for seed, data in per_seed.items()
            }

    return {
        "name": norm["name"],
        "spec": norm,
        "baseline": baseline_name,
        "results": results,
        "speedups": speedups,
    }


def run_batch_file(
    spec_path: str,
    report_path: Optional[str] = None,
    jobs: Optional[int] = None,
    executor=None,
) -> Dict:
    """Load a spec file, run it, and optionally write the report."""
    with open(spec_path) as fh:
        spec = json.load(fh)
    report = run_batch(spec, jobs=jobs, executor=executor)
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report


def summarize_report(report: Dict) -> List[List[str]]:
    """Rows of (workload, setting, mean speedup) for quick console output."""
    rows = []
    for workload, per_setting in report["speedups"].items():
        for setting_name, per_seed in per_setting.items():
            values = list(per_seed.values())
            mean = sum(values) / len(values)
            rows.append([workload, setting_name, f"{mean:.2f}x"])
    return rows
