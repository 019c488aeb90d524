"""Figure 1: the motivating experiment.

"A simple program emulates the memory system behavior of an interactive
task... This program is run concurrently with one that repeatedly performs
a matrix-vector multiplication on an out-of-core data set.  With no sleep
time, the 'interactive' task defends its memory extremely well... As the
sleep time increases, however, the task incurs an increasing number of page
faults and the response time rises.  When the out-of-core program uses
prefetching, the response time begins to increase at much shorter sleep
times, grows much faster, and rises to a higher level."

Series: the interactive task alone, with the original MATVEC (O), and with
the prefetching MATVEC (P), across the sleep-time sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.config import SimScale
from repro.experiments.harness import multiprogram_spec, to_multiprogram
from repro.experiments.report import format_table
from repro.experiments.runner import run_specs
from repro.machine import ExperimentSpec
from repro.workloads.matvec import MatvecWorkload

__all__ = ["Figure1Point", "Figure1Result", "format_figure1", "run_figure1"]


@dataclass
class Figure1Point:
    sleep_time_s: float
    response_alone_s: float
    response_original_s: float
    response_prefetch_s: float


@dataclass
class Figure1Result:
    scale: str
    points: List[Figure1Point] = field(default_factory=list)

    def series(self, name: str) -> List[float]:
        attr = {
            "alone": "response_alone_s",
            "O": "response_original_s",
            "P": "response_prefetch_s",
        }[name]
        return [getattr(p, attr) for p in self.points]


def run_figure1(
    scale: SimScale,
    sleep_times: Optional[Sequence[float]] = None,
    workload: Optional[MatvecWorkload] = None,
    jobs: int = 1,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Figure1Result:
    if sleep_times is None:
        sleep_times = scale.figure_sleep_times_s
    if workload is None:
        workload = MatvecWorkload()
    # One flat grid of specs — three experiments per sleep time — so the
    # runner can parallelise and cache across the whole figure.
    specs = []
    for sleep in sleep_times:
        specs.append(ExperimentSpec.interactive_alone(scale, sleep, sweeps=6))
        specs.append(multiprogram_spec(scale, workload.name, "O", sleep_time_s=sleep))
        specs.append(multiprogram_spec(scale, workload.name, "P", sleep_time_s=sleep))
    runs = run_specs(
        specs, jobs=jobs, cache_dir=cache_dir, timeout_s=timeout_s, retries=retries
    )
    result = Figure1Result(scale=scale.name)
    for index, sleep in enumerate(sleep_times):
        alone_run, original_run, prefetch_run = runs[3 * index : 3 * index + 3]
        alone = list(alone_run.interactives[0].sweeps)
        alone_mean = sum(s.response_time for s in alone[1:]) / max(1, len(alone) - 1)
        result.points.append(
            Figure1Point(
                sleep_time_s=sleep,
                response_alone_s=alone_mean,
                response_original_s=to_multiprogram(original_run).mean_response(),
                response_prefetch_s=to_multiprogram(prefetch_run).mean_response(),
            )
        )
    return result


def format_figure1(result: Figure1Result) -> str:
    rows = [
        (
            p.sleep_time_s,
            p.response_alone_s,
            p.response_original_s,
            p.response_prefetch_s,
        )
        for p in result.points
    ]
    return format_table(
        ["sleep_s", "alone_s", "with_original_s", "with_prefetch_s"],
        rows,
        title=f"Figure 1 — interactive response vs. sleep time ({result.scale})",
    )
