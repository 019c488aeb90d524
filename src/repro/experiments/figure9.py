"""Figure 9: breakdown of outcomes for freed pages.

What fraction of all freed pages were freed by the paging daemon vs. by
explicit release requests — and what fraction of each was later *rescued*
from the free list (freed too early, reclaimed by its owner before
reallocation).  The interesting cases the paper calls out:

- BUK without releasing: many daemon-freed pages rescued (the random array
  keeps getting dragged back); with releasing nearly everything is freed by
  release and almost nothing rescued;
- MGRID: even with releasing, the paging daemon stays busy and many
  released pages come back — the single-compiled-version limitation;
- FFTPDE with buffering: "performs very few useful releases";
- MATVEC: aggressive releasing rescues half of what it releases (the
  vector); buffering drops the rescue count dramatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.config import SimScale
from repro.experiments.harness import run_suite_grid
from repro.experiments.report import format_table, percent
from repro.workloads.base import OutOfCoreWorkload
from repro.workloads.suite import BENCHMARKS

__all__ = ["Figure9Row", "Figure9Result", "format_figure9", "run_figure9"]


@dataclass
class Figure9Row:
    workload: str
    version: str
    freed_by_daemon: int
    freed_by_release: int
    rescued_from_daemon: int
    rescued_from_release: int
    release_revalidated: int  # caught while release was still pending

    @property
    def freed_total(self) -> int:
        return self.freed_by_daemon + self.freed_by_release

    @property
    def daemon_fraction(self) -> float:
        total = self.freed_total
        return self.freed_by_daemon / total if total else 0.0

    @property
    def daemon_rescue_fraction(self) -> float:
        return self.rescued_from_daemon / max(1, self.freed_by_daemon)

    @property
    def release_rescue_fraction(self) -> float:
        return self.rescued_from_release / max(1, self.freed_by_release)


@dataclass
class Figure9Result:
    scale: str
    rows: List[Figure9Row] = field(default_factory=list)

    def row(self, workload: str, version: str) -> Figure9Row:
        for row in self.rows:
            if row.workload == workload and row.version == version:
                return row
        raise KeyError((workload, version))


def run_figure9(
    scale: SimScale,
    workloads: Optional[Sequence[OutOfCoreWorkload]] = None,
    versions: str = "OPRB",
    jobs: int = 1,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Figure9Result:
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
    result = Figure9Result(scale=scale.name)
    for workload in workloads:
        suite = grid[workload.name]
        for version, run in suite.items():
            vm = run.vm
            result.rows.append(
                Figure9Row(
                    workload=workload.name,
                    version=version,
                    freed_by_daemon=vm.freed_by_daemon,
                    freed_by_release=vm.freed_by_release,
                    rescued_from_daemon=vm.rescued_from_daemon,
                    rescued_from_release=vm.rescued_from_release,
                    release_revalidated=run.app_stats.release_revalidates,
                )
            )
    return result


def format_figure9(result: Figure9Result) -> str:
    rows = []
    for r in result.rows:
        rows.append(
            (
                r.workload,
                r.version,
                r.freed_by_daemon,
                r.freed_by_release,
                percent(r.daemon_fraction),
                percent(r.daemon_rescue_fraction),
                percent(r.release_rescue_fraction),
            )
        )
    return format_table(
        [
            "benchmark",
            "ver",
            "daemon_freed",
            "release_freed",
            "daemon_share",
            "daemon_rescued",
            "release_rescued",
        ],
        rows,
        title=f"Figure 9 — outcomes for freed pages ({result.scale})",
    )
