"""The multiprogramming harness (Section 4's experimental setup).

One experiment = one out-of-core benchmark (in one of the four versions
O/P/R/B) sharing the machine with the simulated interactive task at a given
sleep time.  Since the composition-root refactor all wiring lives in
:mod:`repro.machine`; this module keeps the figure-facing vocabulary — a
:class:`MultiprogramResult` per benchmark × version run — as a thin adapter
over :class:`~repro.machine.ExperimentResult`, and routes grids of runs
through the parallel, cached runner (:mod:`repro.experiments.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SimScale
from repro.core.runtime.layer import RuntimeStats
from repro.experiments.runner import run_specs
from repro.machine import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.sim.stats import TimeBuckets
from repro.vm.stats import AddressSpaceStats, VmStats
from repro.workloads.interactive import SweepSample

__all__ = [
    "MultiprogramResult",
    "interactive_alone",
    "multiprogram_spec",
    "run_multiprogram",
    "run_suite_grid",
    "run_version_suite",
    "to_multiprogram",
]


@dataclass
class MultiprogramResult:
    """Everything measured from one benchmark × version run."""

    workload: str
    version: str
    scale: str
    sleep_time_s: float
    elapsed_s: float
    app_buckets: TimeBuckets
    worker_buckets: TimeBuckets
    app_stats: AddressSpaceStats
    interactive_stats: Optional[AddressSpaceStats]
    vm: VmStats
    runtime: RuntimeStats
    sweeps: List[SweepSample] = field(default_factory=list)
    swap: Dict[str, float] = field(default_factory=dict)

    def mean_response(self, skip_warmup: int = 1) -> float:
        samples = self.sweeps[skip_warmup:] or self.sweeps
        if not samples:
            return float("nan")
        return sum(s.response_time for s in samples) / len(samples)

    def mean_interactive_hard_faults(self, skip_warmup: int = 1) -> float:
        samples = self.sweeps[skip_warmup:] or self.sweeps
        if not samples:
            return float("nan")
        return sum(s.hard_faults for s in samples) / len(samples)


def multiprogram_spec(
    scale: SimScale,
    workload: str,
    version: str,
    sleep_time_s: Optional[float] = None,
    with_interactive: bool = True,
) -> ExperimentSpec:
    """The spec for one standard hog (+ interactive) experiment.

    ``workload`` and ``version`` are names (``"MATVEC"``, ``"R"``): a spec
    carries a registered benchmark by name, never a workload object.
    """
    return ExperimentSpec.multiprogram(
        scale,
        workload,
        version,
        sleep_time_s=sleep_time_s,
        with_interactive=with_interactive,
    )


def to_multiprogram(result: ExperimentResult) -> MultiprogramResult:
    """Adapt an :class:`ExperimentResult` to the figure-facing shape."""
    hog = result.primary
    interactive = result.interactives[0] if result.interactives else None
    return MultiprogramResult(
        workload=hog.workload,
        version=hog.version,
        scale=result.scale,
        sleep_time_s=(
            interactive.sleep_time_s
            if interactive is not None
            else result.spec.scale.intermediate_sleep_s
        ),
        elapsed_s=result.elapsed_s,
        app_buckets=hog.buckets,
        worker_buckets=hog.worker_buckets,
        app_stats=hog.stats,
        interactive_stats=(
            interactive.stats if interactive is not None else None
        ),
        vm=result.vm,
        runtime=hog.runtime,
        sweeps=list(interactive.sweeps) if interactive is not None else [],
        swap=dict(result.swap),
    )


def run_multiprogram(
    scale: SimScale,
    workload: str,
    version: str,
    sleep_time_s: Optional[float] = None,
    with_interactive: bool = True,
) -> MultiprogramResult:
    """Run one benchmark version, optionally alongside the interactive task."""
    spec = multiprogram_spec(
        scale, workload, version, sleep_time_s, with_interactive
    )
    return to_multiprogram(run_experiment(spec))


def interactive_alone(
    scale: SimScale, sleep_time_s: float, sweeps: int = 8
) -> List[SweepSample]:
    """The interactive task on a dedicated machine (the baselines in
    Figures 1 and 10)."""
    spec = ExperimentSpec.interactive_alone(scale, sleep_time_s, sweeps=sweeps)
    return list(run_experiment(spec).interactives[0].sweeps)


def run_version_suite(
    scale: SimScale,
    workload: str,
    versions: str = "OPRB",
    sleep_time_s: Optional[float] = None,
    with_interactive: bool = True,
    jobs: int = 1,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Dict[str, MultiprogramResult]:
    """Run several versions of one benchmark under identical conditions."""
    specs = [
        multiprogram_spec(
            scale, workload, name, sleep_time_s, with_interactive
        )
        for name in versions
    ]
    results = run_specs(
        specs, jobs=jobs, cache_dir=cache_dir, timeout_s=timeout_s, retries=retries
    )
    return {
        name: to_multiprogram(result)
        for name, result in zip(versions, results)
    }


def run_suite_grid(
    scale: SimScale,
    workloads: Sequence[str],
    versions: str = "OPRB",
    sleep_time_s: Optional[float] = None,
    jobs: int = 1,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Dict[str, Dict[str, MultiprogramResult]]:
    """The full benchmark × version grid behind Figures 7-10 and Table 3.

    Flattening the grid into one :func:`run_specs` call lets the runner
    parallelise across the whole figure, not just within one benchmark.
    """
    pairs = [(workload, version) for workload in workloads for version in versions]
    specs = [
        multiprogram_spec(scale, workload, version, sleep_time_s)
        for workload, version in pairs
    ]
    results = run_specs(
        specs, jobs=jobs, cache_dir=cache_dir, timeout_s=timeout_s, retries=retries
    )
    grid: Dict[str, Dict[str, MultiprogramResult]] = {}
    for (workload, version), result in zip(pairs, results):
        grid.setdefault(workload, {})[version] = to_multiprogram(result)
    return grid
