"""Figure 10: impact of releasing on interactive response time.

(a) MATVEC across the sleep-time sweep, all four versions plus the
    dedicated-machine baseline — releasing restores the alone-curve;
(b) all benchmarks at the intermediate sleep time, response normalized to
    the task running alone — releasing eliminates the degradation except
    FFTPDE with buffering, "as this benchmark fails to release enough
    memory";
(c) the interactive task's hard page faults per sweep — rising toward the
    full data set (65 pages) under prefetching-alone, near zero with
    releasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SimScale
from repro.experiments.harness import multiprogram_spec, run_suite_grid, to_multiprogram
from repro.experiments.report import format_table
from repro.experiments.runner import run_specs
from repro.machine import ExperimentSpec
from repro.workloads.base import OutOfCoreWorkload
from repro.workloads.suite import BENCHMARKS

__all__ = [
    "Figure10aResult",
    "Figure10bcRow",
    "Figure10bcResult",
    "format_figure10a",
    "format_figure10bc",
    "run_figure10a",
    "run_figure10bc",
]


@dataclass
class Figure10aResult:
    scale: str
    sleep_times_s: List[float] = field(default_factory=list)
    # series name ('alone', 'O', 'P', 'R', 'B') -> response per sleep time
    series: Dict[str, List[float]] = field(default_factory=dict)


def run_figure10a(
    scale: SimScale,
    sleep_times: Optional[Sequence[float]] = None,
    versions: str = "OPRB",
    jobs: int = 1,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Figure10aResult:
    if sleep_times is None:
        sleep_times = scale.figure_sleep_times_s
    stride = 1 + len(versions)  # alone + one run per version, per sleep
    specs = []
    for sleep in sleep_times:
        specs.append(ExperimentSpec.interactive_alone(scale, sleep, sweeps=6))
        for version in versions:
            specs.append(
                multiprogram_spec(scale, "MATVEC", version, sleep_time_s=sleep)
            )
    runs = run_specs(
        specs, jobs=jobs, cache_dir=cache_dir, timeout_s=timeout_s, retries=retries
    )
    result = Figure10aResult(scale=scale.name, sleep_times_s=list(sleep_times))
    result.series["alone"] = []
    for version in versions:
        result.series[version] = []
    for index in range(len(sleep_times)):
        block = runs[stride * index : stride * (index + 1)]
        alone = list(block[0].interactives[0].sweeps)
        result.series["alone"].append(
            sum(s.response_time for s in alone[1:]) / max(1, len(alone) - 1)
        )
        for version, run in zip(versions, block[1:]):
            result.series[version].append(to_multiprogram(run).mean_response())
    return result


def format_figure10a(result: Figure10aResult) -> str:
    names = list(result.series)
    rows = []
    for index, sleep in enumerate(result.sleep_times_s):
        rows.append([sleep] + [result.series[name][index] for name in names])
    return format_table(
        ["sleep_s"] + [f"resp_{n}_s" for n in names],
        rows,
        title=f"Figure 10(a) — MATVEC interactive response vs. sleep ({result.scale})",
    )


@dataclass
class Figure10bcRow:
    workload: str
    version: str
    normalized_response: float  # (b): response / alone-response
    hard_faults_per_sweep: float  # (c)
    response_s: float


@dataclass
class Figure10bcResult:
    scale: str
    sleep_time_s: float = 0.0
    alone_response_s: float = 0.0
    interactive_pages: int = 0
    rows: List[Figure10bcRow] = field(default_factory=list)

    def row(self, workload: str, version: str) -> Figure10bcRow:
        for row in self.rows:
            if row.workload == workload and row.version == version:
                return row
        raise KeyError((workload, version))


def run_figure10bc(
    scale: SimScale,
    workloads: Optional[Sequence[OutOfCoreWorkload]] = None,
    versions: str = "OPRB",
    sleep_time_s: Optional[float] = None,
    jobs: int = 1,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Figure10bcResult:
    """Figures 10(b) and 10(c) share their runs; compute both at once."""
    if workloads is None:
        workloads = list(BENCHMARKS.values())
    if sleep_time_s is None:
        sleep_time_s = scale.intermediate_sleep_s
    alone_run = run_specs(
        [ExperimentSpec.interactive_alone(scale, sleep_time_s, sweeps=6)],
        jobs=1,
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        retries=retries,
    )[0]
    alone = list(alone_run.interactives[0].sweeps)
    alone_mean = sum(s.response_time for s in alone[1:]) / max(1, len(alone) - 1)
    result = Figure10bcResult(
        scale=scale.name,
        sleep_time_s=sleep_time_s,
        alone_response_s=alone_mean,
        interactive_pages=scale.interactive_pages,
    )
    grid = run_suite_grid(
        scale,
        [workload.name for workload in workloads],
        versions,
        sleep_time_s=sleep_time_s,
        jobs=jobs,
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        retries=retries,
    )
    for workload in workloads:
        suite = grid[workload.name]
        for version, run in suite.items():
            response = run.mean_response()
            result.rows.append(
                Figure10bcRow(
                    workload=workload.name,
                    version=version,
                    normalized_response=response / alone_mean if alone_mean else 0.0,
                    hard_faults_per_sweep=run.mean_interactive_hard_faults(),
                    response_s=response,
                )
            )
    return result


def format_figure10bc(result: Figure10bcResult) -> str:
    rows = [
        (
            r.workload,
            r.version,
            r.normalized_response,
            r.hard_faults_per_sweep,
            r.response_s,
        )
        for r in result.rows
    ]
    return format_table(
        ["benchmark", "ver", "resp_normalized", "hard_faults_sweep", "resp_s"],
        rows,
        title=(
            f"Figure 10(b)/(c) — interactive impact at sleep="
            f"{result.sleep_time_s}s, alone={result.alone_response_s:.4f}s, "
            f"data set={result.interactive_pages} pages ({result.scale})"
        ),
    )
