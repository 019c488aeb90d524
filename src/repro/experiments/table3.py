"""Table 3: page reclamation and allocation activity.

For the original programs and the prefetch-and-release (no buffering)
versions: how many times the paging daemon had to operate, how many pages
it stole, and the total page allocations.  The paper: "In the worst case,
the number of times that the paging daemon needs to operate is reduced by
more than half, and the total number of pages stolen is reduced by more
than a factor of three.  In the other cases, the activity of the paging
daemon is reduced by one to two orders of magnitude."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.config import SimScale
from repro.experiments.harness import run_suite_grid
from repro.experiments.report import format_table
from repro.workloads.base import OutOfCoreWorkload
from repro.workloads.suite import BENCHMARKS

__all__ = ["Table3Row", "Table3Result", "format_table3", "run_table3"]


@dataclass
class Table3Row:
    workload: str
    daemon_runs_original: int
    daemon_runs_release: int
    pages_stolen_original: int
    pages_stolen_release: int
    allocations_original: int
    allocations_release: int
    pages_released: int

    @property
    def steal_reduction(self) -> float:
        return self.pages_stolen_original / max(1, self.pages_stolen_release)

    @property
    def run_reduction(self) -> float:
        return self.daemon_runs_original / max(1, self.daemon_runs_release)


@dataclass
class Table3Result:
    scale: str
    rows: List[Table3Row] = field(default_factory=list)

    def row(self, workload: str) -> Table3Row:
        for row in self.rows:
            if row.workload == workload:
                return row
        raise KeyError(workload)


def run_table3(
    scale: SimScale,
    workloads: Optional[Sequence[OutOfCoreWorkload]] = None,
    jobs: int = 1,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Table3Result:
    if workloads is None:
        workloads = list(BENCHMARKS.values())
    grid = run_suite_grid(
        scale,
        [workload.name for workload in workloads],
        "OR",
        jobs=jobs,
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        retries=retries,
    )
    result = Table3Result(scale=scale.name)
    for workload in workloads:
        suite = grid[workload.name]
        original = suite["O"]
        release = suite["R"]
        result.rows.append(
            Table3Row(
                workload=workload.name,
                daemon_runs_original=original.vm.daemon_runs,
                daemon_runs_release=release.vm.daemon_runs,
                pages_stolen_original=original.vm.daemon_pages_stolen,
                pages_stolen_release=release.vm.daemon_pages_stolen,
                allocations_original=original.vm.total_allocations,
                allocations_release=release.vm.total_allocations,
                pages_released=release.vm.releaser_pages_freed,
            )
        )
    return result


def format_table3(result: Table3Result) -> str:
    rows = [
        (
            r.workload,
            r.daemon_runs_original,
            r.daemon_runs_release,
            r.pages_stolen_original,
            r.pages_stolen_release,
            r.pages_released,
            r.allocations_original,
            r.allocations_release,
        )
        for r in result.rows
    ]
    return format_table(
        [
            "benchmark",
            "daemon_runs_O",
            "daemon_runs_R",
            "stolen_O",
            "stolen_R",
            "released_R",
            "allocs_O",
            "allocs_R",
        ],
        rows,
        title=f"Table 3 — reclamation and allocation activity ({result.scale})",
    )
