"""Multi-seed replication: mean speedups with confidence intervals.

The paper reports single gem5 runs; a simulation-based reproduction can do
better by replicating every (workload, setting) cell across seeds and
reporting dispersion.  :func:`replicated_comparison` runs the Figure 8 grid
per seed and aggregates speedups; the integration bench asserts that the
headline geomeans are stable across seeds (tight confidence intervals), so
the reproduced shapes are not one-seed accidents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.experiments import ComparisonResult
from repro.eval.parallel import RunRequest, run_requests
from repro.eval.runner import Setting, standard_settings
from repro.sim.stats import geometric_mean
from repro.workloads.registry import workload_names

#: Student-t critical values (two-sided, 95%) for small sample sizes.
_T95 = {1: 12.71, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
        8: 2.306, 9: 2.262, 10: 2.228}


@dataclass(frozen=True)
class ReplicatedStat:
    """Mean ± half-width of a 95% confidence interval over seeds."""

    mean: float
    stddev: float
    ci95_half_width: float
    samples: int

    @property
    def low(self) -> float:
        return self.mean - self.ci95_half_width

    @property
    def high(self) -> float:
        return self.mean + self.ci95_half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.3f} ± {self.ci95_half_width:.3f} (n={self.samples})"


def _stat(values: Sequence[float]) -> ReplicatedStat:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return ReplicatedStat(mean, 0.0, 0.0, n)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    sd = math.sqrt(var)
    t = _T95.get(n - 1, 1.96)
    return ReplicatedStat(mean, sd, t * sd / math.sqrt(n), n)


@dataclass
class ReplicatedComparison:
    """Speedup statistics per workload × setting, plus geomean statistics."""

    settings: List[str]
    #: speedups[workload][setting] -> ReplicatedStat
    speedups: Dict[str, Dict[str, ReplicatedStat]]
    #: geomeans[setting] -> ReplicatedStat (geomean computed per seed first)
    geomeans: Dict[str, ReplicatedStat]


def replicated_comparison(
    seeds: Sequence[int],
    workloads: Optional[List[str]] = None,
    settings: Optional[List[Setting]] = None,
    scale: float = 0.25,
    config: Optional[SystemConfig] = None,
    jobs: Optional[int] = None,
) -> ReplicatedComparison:
    """Run the comparison grid once per seed and aggregate speedups.

    The whole seed × workload × setting cube is one request list for
    :func:`~repro.eval.parallel.run_requests` (``jobs`` workers, serial when
    None), so parallelism is not bounded by the size of a single seed's
    grid; per-seed grids are reassembled from the submission-order results
    and match serial runs bit for bit.
    """
    if not seeds:
        raise ConfigError("replication needs at least one seed")
    settings = settings or standard_settings()
    labels = [s.label for s in settings]

    names = workloads or workload_names()
    cube = [
        (seed, name, setting)
        for seed in seeds
        for name in names
        for setting in settings
    ]
    metrics = run_requests(
        [
            RunRequest.from_setting(
                name, setting, scale=scale, config=config, seed=seed
            )
            for seed, name, setting in cube
        ],
        jobs=jobs,
    )
    grids: Dict[int, ComparisonResult] = {}
    for (seed, name, setting), m in zip(cube, metrics):
        grid = grids.setdefault(seed, ComparisonResult(settings=labels))
        grid.metrics.setdefault(name, {})[setting.label] = m
    per_seed_speedups = [grids[seed].speedups() for seed in seeds]

    workload_names_ = list(per_seed_speedups[0].keys())
    speedups: Dict[str, Dict[str, ReplicatedStat]] = {}
    for w in workload_names_:
        speedups[w] = {}
        for label in labels:
            samples = [sp[w][label] for sp in per_seed_speedups]
            speedups[w][label] = _stat(samples)

    geomeans: Dict[str, ReplicatedStat] = {}
    for label in labels:
        per_seed_geo = [
            geometric_mean([sp[w][label] for w in workload_names_])
            for sp in per_seed_speedups
        ]
        geomeans[label] = _stat(per_seed_geo)

    return ReplicatedComparison(settings=labels, speedups=speedups,
                                geomeans=geomeans)
