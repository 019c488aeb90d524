"""Monte Carlo fault ensembles: one spec, many fault seeds, interval answers.

A single fault experiment answers "what happened under *this* injected
schedule"; the paper-grade question is distributional — how much do
elapsed time, hard faults, and memory fragmentation move when the *same*
fault rates are realised under many independent schedules?  This module
expands one :class:`~repro.machine.ExperimentSpec` across N derived
:class:`~repro.faults.FaultPlan` seeds (:func:`repro.faults.seed_stream`),
runs the members through the checkpointed sweep
(:mod:`repro.experiments.sweep` — ensembles inherit kill/resume, the warm
pool, and its watchdog for free), and merges the figure metrics with
bootstrap confidence intervals.

Everything is deterministic for a fixed base seed: the member seed stream,
each member's simulation, *and* the bootstrap resampling RNG — so the
reported CI bounds are reproducible numbers, not run-to-run noise.
``repro ensemble`` prints the summary table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.faults import FaultPlanError, _derive_seed, seed_stream
from repro.machine import ExperimentResult, ExperimentSpec, SpecError
from repro.experiments.sweep import (
    SweepOptions,
    SweepOutcome,
    SweepReport,
    run_sweep,
)

__all__ = [
    "EnsembleReport",
    "EnsembleSpec",
    "MetricSummary",
    "bootstrap_ci",
    "ensemble_metrics",
    "format_ensemble_table",
    "run_ensemble",
]

#: Metric name -> extractor over one member's :class:`ExperimentResult`.
#: These are the figure metrics the paper's grids plot.
METRICS = {
    "elapsed_s": lambda r: float(r.elapsed_s),
    "hard_faults": lambda r: float(sum(p.stats.hard_faults for p in r.processes)),
    "soft_faults": lambda r: float(sum(p.stats.soft_faults for p in r.processes)),
    "unusable_free_index": lambda r: float(r.vm.frag.mean_unusable_free_index),
}


@dataclass(frozen=True)
class EnsembleSpec:
    """One experiment expanded across ``seeds`` independent fault schedules.

    ``base_seed`` roots the member seed stream; the base spec must carry
    an *enabled* fault plan — an ensemble over the empty plan would run
    the identical simulation N times and report zero-width intervals.
    """

    base: ExperimentSpec
    seeds: int
    base_seed: int = 0

    def validate(self) -> None:
        self.base.validate()
        if self.seeds < 2:
            raise SpecError(f"an ensemble needs >= 2 seeds, got {self.seeds}")
        if not self.base.faults.enabled:
            raise SpecError(
                "ensemble base spec has no enabled fault plan: every member "
                "would be identical (give --faults with non-zero rates)"
            )

    def expand(self) -> List[ExperimentSpec]:
        """The member specs, in seed-stream order."""
        self.validate()
        return [
            self.base.with_faults(plan)
            for plan in (
                self.base.faults.with_seed(seed)
                for seed in seed_stream(self.base_seed, self.seeds)
            )
        ]


def bootstrap_ci(
    values: Sequence[float],
    resamples: int = 2000,
    alpha: float = 0.05,
    seed: int = 0,
    label: str = "",
) -> Dict[str, float]:
    """Percentile-bootstrap mean CI, deterministic for a fixed ``seed``.

    Returns ``{"mean", "lo", "hi"}`` (the ``1 - alpha`` interval).  The
    resampling RNG is derived from ``(seed, "bootstrap", label)`` with the
    fault layer's SHA-256 derivation, so two runs of the same ensemble
    report byte-identical bounds.
    """
    import random

    if not values:
        raise FaultPlanError("bootstrap_ci needs at least one value")
    if not 0.0 < alpha < 1.0:
        raise FaultPlanError(f"alpha must be in (0, 1), got {alpha}")
    if resamples < 1:
        raise FaultPlanError(f"resamples must be >= 1, got {resamples}")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return {"mean": mean, "lo": mean, "hi": mean}
    rng = random.Random(_derive_seed(seed, "bootstrap", label, resamples))
    means = sorted(
        sum(rng.choice(values) for _ in range(n)) / n for _ in range(resamples)
    )
    lo_index = int((alpha / 2) * resamples)
    hi_index = min(resamples - 1, int((1 - alpha / 2) * resamples))
    return {"mean": mean, "lo": means[lo_index], "hi": means[hi_index]}


@dataclass
class MetricSummary:
    """One figure metric across the ensemble members."""

    name: str
    n: int
    mean: float
    lo: float
    hi: float
    min: float
    max: float


@dataclass
class EnsembleReport:
    """What :func:`run_ensemble` returns: per-metric summaries + the sweep."""

    spec: EnsembleSpec
    metrics: List[MetricSummary]
    sweep: SweepReport
    failed_members: List[SweepOutcome] = field(default_factory=list)

    @property
    def members_ok(self) -> int:
        return len(self.sweep.ok)


def ensemble_metrics(
    results: Sequence[ExperimentResult],
    base_seed: int = 0,
    resamples: int = 2000,
    alpha: float = 0.05,
) -> List[MetricSummary]:
    """Bootstrap every registered metric over the member results."""
    summaries: List[MetricSummary] = []
    for name, extract in METRICS.items():
        values = [extract(result) for result in results]
        ci = bootstrap_ci(
            values, resamples=resamples, alpha=alpha, seed=base_seed, label=name
        )
        summaries.append(
            MetricSummary(
                name=name,
                n=len(values),
                mean=ci["mean"],
                lo=ci["lo"],
                hi=ci["hi"],
                min=min(values),
                max=max(values),
            )
        )
    return summaries


def run_ensemble(
    spec: EnsembleSpec,
    state_dir: Optional[os.PathLike] = None,
    options: SweepOptions = SweepOptions(),
    resume: bool = False,
    resamples: int = 2000,
    alpha: float = 0.05,
    scenario: Optional[Dict[str, object]] = None,
) -> EnsembleReport:
    """Run (or resume) a Monte Carlo fault ensemble.

    Members execute through :func:`~repro.experiments.sweep.run_sweep`,
    so an ensemble is checkpointed and resumable exactly like any sweep
    when ``state_dir`` is given; with ``state_dir=None`` it runs in a
    throwaway state directory (no resume).  Failed members become failure
    slots and are excluded from the intervals; at least two members must
    survive to report one.

    ``scenario`` is a sweep scenario document whose ``fault_seed`` axis
    lists the member seeds (``repro ensemble`` builds one).  It is only
    recorded in the checkpoint's meta, so ``repro sweep status|resume``
    rebuild the members from the state directory alone; the members that
    run are always ``spec.expand()``, and the checkpoint's keys digest
    refuses a rebuilt list that differs from them.
    """
    members = spec.expand()
    describe: Dict[str, object] = {
        "ensemble_seeds": spec.seeds,
        "base_seed": spec.base_seed,
    }
    if scenario is not None:
        describe["scenario"] = scenario
    if state_dir is None:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-ensemble-") as tmp:
            sweep = run_sweep(members, tmp, options=options, describe=describe)
            return _summarize(spec, members, sweep, resamples, alpha)
    sweep = run_sweep(
        members, state_dir, options=options, resume=resume, describe=describe
    )
    return _summarize(spec, members, sweep, resamples, alpha)


def _summarize(
    spec: EnsembleSpec,
    members: Sequence[ExperimentSpec],
    sweep: SweepReport,
    resamples: int,
    alpha: float,
) -> EnsembleReport:
    results: List[ExperimentResult] = []
    for outcome in sweep.ok:
        result = sweep.load_result(outcome)
        if isinstance(result, ExperimentResult):
            results.append(result)
    if len(results) < 2:
        raise SpecError(
            f"only {len(results)} of {spec.seeds} ensemble members succeeded; "
            "cannot report confidence intervals (see the sweep journal)"
        )
    metrics = ensemble_metrics(
        results, base_seed=spec.base_seed, resamples=resamples, alpha=alpha
    )
    return EnsembleReport(
        spec=spec,
        metrics=metrics,
        sweep=sweep,
        failed_members=sweep.failures,
    )


def format_ensemble_table(report: EnsembleReport, alpha: float = 0.05) -> str:
    """Render the per-metric summary as the aligned table the CLI prints."""
    level = int(round((1 - alpha) * 100))
    headers = ["metric", "n", "mean", f"ci{level}_lo", f"ci{level}_hi", "min", "max"]
    table = [headers]
    for metric in report.metrics:
        table.append(
            [
                metric.name,
                str(metric.n),
                f"{metric.mean:.4f}",
                f"{metric.lo:.4f}",
                f"{metric.hi:.4f}",
                f"{metric.min:.4f}",
                f"{metric.max:.4f}",
            ]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
