"""Parameter sweeps for the Figure 11 sensitivity study.

Figure 11 plots, per benchmark, end-to-end execution time ("delay") against
the dynamic energy of SRD pushes ("energy"), both normalized to the VL
baseline, for the 0-delay and adaptive algorithms plus the tuned algorithm
under many (ζ, τ, δ, α, β) combinations.  The paper's chosen set
(ζ=256, τ=96, δ=64, α=1, β=2) is highlighted as the cross marker.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Sequence

from repro.config import SystemConfig
from repro.eval.metrics import RunMetrics
from repro.eval.parallel import RunRequest, run_requests
from repro.eval.runner import standard_settings, tuned_setting
from repro.spamer.delay import TunedParams

#: The paper's chosen parameter set (tuned on FIR, Section 3.5).
PAPER_TUNED_PARAMS = TunedParams(zeta=256, tau=96, delta=64, alpha=1, beta=2)


def default_parameter_grid() -> List[TunedParams]:
    """A compact grid around the paper's chosen set.

    The paper sweeps "other combinations of the tuned algorithm parameters"
    (small blue dots in Fig 11); this grid covers the same axes — range
    width (ζ, τ), step density (δ), escalation rate (α) and initialization
    length (β).
    """
    grid = []
    for zeta, tau, delta, alpha, beta in product(
        (128, 256, 512),
        (48, 96, 192),
        (32, 64, 128),
        (1, 2),
        (1, 2),
    ):
        grid.append(TunedParams(zeta=zeta, tau=tau, delta=delta, alpha=alpha, beta=beta))
    return grid


@dataclass(frozen=True)
class SensitivityPoint:
    """One marker of a Figure 11 panel."""

    label: str
    params: Optional[TunedParams]       # None for VL / 0delay / adapt markers
    normalized_delay: float             # x-axis (execution time / baseline)
    normalized_energy: float            # y-axis (push energy / baseline)
    metrics: RunMetrics

    @property
    def is_paper_choice(self) -> bool:
        return self.params == PAPER_TUNED_PARAMS


def sensitivity_sweep(
    workload_name: str,
    params_grid: Optional[Sequence[TunedParams]] = None,
    scale: float = 1.0,
    config: Optional[SystemConfig] = None,
    seed: int = 0xC0FFEE,
    jobs: Optional[int] = None,
) -> List[SensitivityPoint]:
    """Run one benchmark's Figure 11 panel; returns all markers.

    The first returned point is always the VL baseline (1.0, 1.0); the
    paper's chosen tuned set is included even if absent from *params_grid*.
    Every marker is an independent simulation, so ``jobs`` fans the whole
    panel — baseline, fixed algorithms and the entire parameter grid —
    across worker processes with bit-identical results.
    """
    grid = list(params_grid) if params_grid is not None else default_parameter_grid()
    if PAPER_TUNED_PARAMS not in grid:
        grid.insert(0, PAPER_TUNED_PARAMS)

    vl, zerod, adapt, _tuned = standard_settings()
    plan: List[tuple] = [
        (vl, "VL (baseline)", None),
        (zerod, "SPAMeR (0delay)", None),
        (adapt, "SPAMeR (adapt)", None),
    ]
    for params in grid:
        label = (
            "SPAMeR (tuned)" if params == PAPER_TUNED_PARAMS else "SPAMeR (other)"
        )
        plan.append((tuned_setting(params), label, params))

    requests = [
        RunRequest.from_setting(
            workload_name, setting, scale=scale, config=config, seed=seed
        )
        for setting, _label, _params in plan
    ]
    metrics = run_requests(requests, jobs=jobs)

    baseline = metrics[0]
    points = [SensitivityPoint("VL (baseline)", None, 1.0, 1.0, baseline)]
    for (_setting, label, params), m in zip(plan[1:], metrics[1:]):
        points.append(
            SensitivityPoint(
                label,
                params,
                m.normalized_delay(baseline),
                m.normalized_energy(baseline),
                m,
            )
        )
    return points
