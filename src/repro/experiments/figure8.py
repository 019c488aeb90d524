"""Figure 8: soft page faults caused by the daemon's periodic invalidations.

The MIPS TLB has no reference bits, so IRIX invalidates mappings to detect
use; every invalidation of a live page costs its owner a soft fault.  The
figure shows these per benchmark version: high without releasing (the
daemon must hunt for victims), near zero with releasing (the daemon rarely
needs to run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.config import SimScale
from repro.experiments.harness import run_suite_grid
from repro.experiments.report import format_table
from repro.workloads.base import OutOfCoreWorkload
from repro.workloads.suite import BENCHMARKS

__all__ = ["Figure8Result", "format_figure8", "run_figure8"]


@dataclass
class Figure8Result:
    scale: str
    # workload -> version -> soft faults taken by the out-of-core app
    soft_faults: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # and the daemon invalidation counts behind them, for context
    invalidations: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def reduction_with_release(self, workload: str) -> float:
        """P soft faults divided by R soft faults (∞-safe)."""
        p = self.soft_faults[workload]["P"]
        r = self.soft_faults[workload]["R"]
        return p / max(1, r)


def run_figure8(
    scale: SimScale,
    workloads: Optional[Sequence[OutOfCoreWorkload]] = None,
    versions: str = "OPRB",
    jobs: int = 1,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Figure8Result:
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
    result = Figure8Result(scale=scale.name)
    for workload in workloads:
        suite = grid[workload.name]
        result.soft_faults[workload.name] = {
            version: run.app_stats.soft_faults for version, run in suite.items()
        }
        result.invalidations[workload.name] = {
            version: run.vm.daemon_invalidations for version, run in suite.items()
        }
    return result


def format_figure8(result: Figure8Result) -> str:
    versions = next(iter(result.soft_faults.values())).keys()
    rows = []
    for workload, counts in result.soft_faults.items():
        rows.append([workload] + [counts[v] for v in versions])
    return format_table(
        ["benchmark"] + [f"soft_faults_{v}" for v in versions],
        rows,
        title=f"Figure 8 — soft faults from daemon invalidations ({result.scale})",
    )
