"""Figure 7: normalized execution time of the out-of-core applications.

Four bars per benchmark — O (original), P (prefetch), R (prefetch +
aggressive release), B (prefetch + release buffering) — each split into
the four components the paper stacks: I/O stall, stall for unavailable
resources (memory/locks), system time, and user time.  All normalized to
the original version's total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SimScale
from repro.experiments.harness import MultiprogramResult, run_suite_grid
from repro.experiments.report import format_table
from repro.workloads.base import OutOfCoreWorkload
from repro.workloads.suite import BENCHMARKS

__all__ = ["Figure7Bar", "Figure7Result", "format_figure7", "run_figure7"]


@dataclass
class Figure7Bar:
    """One stacked bar, as fractions of the O version's total time."""

    workload: str
    version: str
    user: float
    system: float
    stall_memory: float
    stall_io: float
    elapsed_s: float

    @property
    def total(self) -> float:
        return self.user + self.system + self.stall_memory + self.stall_io


@dataclass
class Figure7Result:
    scale: str
    bars: List[Figure7Bar] = field(default_factory=list)
    raw: Dict[str, Dict[str, MultiprogramResult]] = field(default_factory=dict)

    def bar(self, workload: str, version: str) -> Figure7Bar:
        for bar in self.bars:
            if bar.workload == workload and bar.version == version:
                return bar
        raise KeyError((workload, version))

    def speedup_of_release_over_prefetch(self, workload: str) -> float:
        """The paper's headline metric: (P - R) / P."""
        p = self.bar(workload, "P").elapsed_s
        r = self.bar(workload, "R").elapsed_s
        return (p - r) / p


def run_figure7(
    scale: SimScale,
    workloads: Optional[Sequence[OutOfCoreWorkload]] = None,
    versions: str = "OPRB",
    jobs: int = 1,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Figure7Result:
    if workloads is None:
        workloads = list(BENCHMARKS.values())
    grid = run_suite_grid(
        scale,
        [workload.name for workload in workloads],
        versions,
        jobs=jobs,
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        retries=retries,
    )
    result = Figure7Result(scale=scale.name)
    for workload in workloads:
        suite = grid[workload.name]
        result.raw[workload.name] = suite
        base_total = suite["O"].app_buckets.total if "O" in suite else None
        for version, run in suite.items():
            buckets = run.app_buckets
            denominator = base_total or buckets.total
            result.bars.append(
                Figure7Bar(
                    workload=workload.name,
                    version=version,
                    user=buckets.user / denominator,
                    system=buckets.system / denominator,
                    stall_memory=buckets.stall_memory / denominator,
                    stall_io=buckets.stall_io / denominator,
                    elapsed_s=run.elapsed_s,
                )
            )
    return result


def format_figure7(result: Figure7Result) -> str:
    rows = []
    for bar in result.bars:
        rows.append(
            (
                bar.workload,
                bar.version,
                bar.total,
                bar.user,
                bar.system,
                bar.stall_memory,
                bar.stall_io,
                bar.elapsed_s,
            )
        )
    return format_table(
        [
            "benchmark",
            "ver",
            "normalized",
            "user",
            "system",
            "stall_mem",
            "stall_io",
            "elapsed_s",
        ],
        rows,
        title=f"Figure 7 — normalized execution time ({result.scale})",
    )
