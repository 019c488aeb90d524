"""The composition root: one simulated machine, built from a declarative spec.

:class:`Machine` is the only place in the repository that wires an
:class:`~repro.sim.engine.Engine`, a :class:`~repro.kernel.kernel.Kernel`
(which owns the striped swap, the VM system, and the daemons), workload
processes, and the optional instrumentation bus together.  Everything above
it — the experiment harness, the figure modules, the CLI, the paper-scale
script — describes *what* to run as an :class:`ExperimentSpec` and hands it
here.

An :class:`ExperimentSpec` is a frozen value object: a
:class:`~repro.config.SimScale` plus any number of
:class:`WorkloadProcessSpec` entries (out-of-core benchmarks in one of the
four versions, or instances of the paper's interactive task), each with an
optional start offset.  Because it is declarative and deterministic, a spec
can be content-hashed — the parallel runner
(:mod:`repro.experiments.runner`) uses this to fan specs out across CPU
cores and cache results on disk.

The run ends when every *bounded* process has completed: out-of-core
benchmarks always are, and an interactive task is bounded when its spec
gives a ``sweeps`` count.  Unbounded interactive tasks are stopped at that
point, exactly like the seed harness did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import SimScale
from repro.core.runtime.layer import RuntimeLayer, RuntimeStats
from repro.core.runtime.policies import VERSIONS
from repro.faults import EMPTY_PLAN, FaultInjector, FaultPlan, FaultPlanError
from repro.kernel.kernel import Kernel
from repro.obs import Bus, Sink
from repro.policies import (
    DEFAULT_POLICY,
    PolicyError,
    PolicySpec,
    build_policy,
    validate_policy,
)
from repro.sim.engine import Engine
from repro.sim.stats import TimeBuckets
from repro.vm.stats import AddressSpaceStats, VmStats
from repro.workloads.base import app_driver, build_layout
from repro.workloads.interactive import InteractiveTask, SweepLog
from repro.workloads.suite import BENCHMARKS

__all__ = [
    "INTERACTIVE",
    "TRACE",
    "ExperimentResult",
    "ExperimentSpec",
    "Machine",
    "ProcessResult",
    "SpecError",
    "StepBudgetExceeded",
    "WorkloadProcessSpec",
    "run_experiment",
]

#: Workload name selecting the paper's interactive task (Section 1.1)
#: instead of an out-of-core benchmark.
INTERACTIVE = "INTERACTIVE"

#: Workload name selecting trace replay: the process plays a recorded op
#: stream (``trace_path``) instead of compiling a benchmark.
TRACE = "TRACE"


class SpecError(ValueError):
    """An :class:`ExperimentSpec` that cannot be built into a machine."""


class StepBudgetExceeded(RuntimeError):
    """The experiment exceeded ``SimScale.max_engine_steps`` engine events.

    Carries the simulated time reached and each process's time buckets at
    the moment the budget ran out, so a runaway configuration can be
    diagnosed from the exception alone.
    """

    def __init__(
        self,
        budget: int,
        elapsed_s: float,
        buckets: Dict[str, TimeBuckets],
    ) -> None:
        self.budget = budget
        self.elapsed_s = elapsed_s
        self.buckets = buckets
        detail = ", ".join(
            f"{name}: {bucket.total:.3f}s" for name, bucket in buckets.items()
        )
        super().__init__(
            f"experiment exceeded the engine step budget of {budget} "
            f"at simulated time {elapsed_s:.3f}s ({detail})"
        )


def _check_duration(what: str, seconds: object) -> None:
    """Raise :class:`SpecError` unless ``seconds`` is a finite number >= 0.

    A NaN sleep would never sleep (the toucher would sweep back to back
    forever), and an infinite one fails only once the engine schedules it.
    """
    if not (isinstance(seconds, (int, float)) and 0 <= seconds < math.inf):
        raise SpecError(
            f"{what} must be a finite, non-negative number of seconds, got {seconds!r}"
        )


@dataclass(frozen=True)
class WorkloadProcessSpec:
    """One simulated process within an experiment.

    ``workload`` is a benchmark name from :data:`repro.workloads.BENCHMARKS`,
    :data:`INTERACTIVE`, or :data:`TRACE`.  ``version`` (O/P/R/B) applies to
    out-of-core benchmarks only; ``sleep_time_s`` and ``sweeps`` apply to
    the interactive task only (``sleep_time_s=None`` means the scale's
    intermediate sleep; ``sweeps=None`` means "run until the bounded
    processes finish").  ``start_offset_s`` delays the process's first
    activity.

    A :data:`TRACE` process replays the file at ``trace_path`` (its hint
    version, layout, and default name come from the trace header).
    ``trace_digest`` is the file's SHA-256: the spec's identity — and
    therefore the runner's cache key — is tied to the trace *content*,
    while ``trace_path`` itself stays out of the repr so re-recording an
    identical trace elsewhere still hits the cache.
    """

    workload: str
    version: str = "O"
    start_offset_s: float = 0.0
    sleep_time_s: Optional[float] = None
    sweeps: Optional[int] = None
    name: Optional[str] = None
    trace_path: Optional[str] = field(default=None, repr=False)
    trace_digest: Optional[str] = None

    @property
    def is_interactive(self) -> bool:
        return self.workload.upper() == INTERACTIVE

    @property
    def is_trace(self) -> bool:
        return self.workload.upper() == TRACE

    @property
    def bounded(self) -> bool:
        """Does this process's completion end the experiment?"""
        return not self.is_interactive or self.sweeps is not None

    def resolved(self, scale: SimScale) -> "WorkloadProcessSpec":
        """This process with its scale-derived defaults filled in: an
        interactive task's ``sleep_time_s=None`` is the scale's
        intermediate sleep."""
        if self.is_interactive and self.sleep_time_s is None:
            return replace(self, sleep_time_s=scale.intermediate_sleep_s)
        return self

    def validate(self) -> None:
        if self.is_interactive:
            if self.sweeps is not None and self.sweeps <= 0:
                raise SpecError(f"sweeps must be positive, got {self.sweeps}")
            if self.sleep_time_s is not None:
                _check_duration("sleep time", self.sleep_time_s)
        elif self.is_trace:
            if not self.trace_path:
                raise SpecError("a TRACE process needs a trace_path")
            if not self.trace_digest:
                raise SpecError(
                    "a TRACE process needs its trace_digest (build the spec "
                    "via repro.trace.trace_process_spec)"
                )
        else:
            if self.workload.upper() not in BENCHMARKS:
                raise SpecError(
                    f"unknown workload {self.workload!r}; choose from "
                    f"{sorted(BENCHMARKS)}, {INTERACTIVE!r}, or {TRACE!r}"
                )
            if self.version not in VERSIONS:
                raise SpecError(
                    f"unknown version {self.version!r}; choose from "
                    f"{sorted(VERSIONS)}"
                )
        _check_duration("start offset", self.start_offset_s)


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, declarative description of one experiment.

    ``faults`` is the experiment's :class:`~repro.faults.FaultPlan`; the
    default :data:`~repro.faults.EMPTY_PLAN` injects nothing and builds no
    fault machinery, so ordinary experiments are unaffected.  Because the
    plan is part of the frozen spec, fault experiments content-hash and
    cache exactly like fault-free ones.

    ``policy`` selects the memory-management triple
    (:mod:`repro.policies`); like the fault plan it is frozen and part of
    the spec's repr, so the runner's content-addressed cache can never
    serve one policy's results for another.
    """

    scale: SimScale
    processes: Tuple[WorkloadProcessSpec, ...]
    faults: FaultPlan = EMPTY_PLAN
    policy: PolicySpec = DEFAULT_POLICY

    def validate(self) -> None:
        if not self.processes:
            raise SpecError("an experiment needs at least one process")
        for process in self.processes:
            # Resolved, so a scale's default interactive sleep is checked too.
            process.resolved(self.scale).validate()
        if not any(process.bounded for process in self.processes):
            raise SpecError(
                "no bounded process: give an out-of-core workload or an "
                "interactive task with a sweeps count"
            )
        try:
            self.faults.validate()
        except FaultPlanError as exc:
            raise SpecError(f"invalid fault plan: {exc}") from exc
        try:
            validate_policy(self.policy)
        except PolicyError as exc:
            raise SpecError(f"invalid policy: {exc}") from exc

    def canonical(self) -> "ExperimentSpec":
        """This spec with every scale-derived default resolved.

        Specs that simulate the same physics have equal canonical forms,
        so the runner keys this form (:func:`~repro.experiments.runner.spec_key`).
        """
        processes = tuple(p.resolved(self.scale) for p in self.processes)
        return replace(self, processes=processes)

    def with_scale_overrides(self, **kwargs) -> "ExperimentSpec":
        """Copy with top-level :class:`SimScale` fields replaced."""
        return replace(self, scale=self.scale.with_overrides(**kwargs))

    def with_faults(self, faults: FaultPlan) -> "ExperimentSpec":
        """Copy with the fault plan replaced."""
        return replace(self, faults=faults)

    def with_policy(self, policy) -> "ExperimentSpec":
        """Copy with the memory policy replaced (PolicySpec or CLI string)."""
        if isinstance(policy, str):
            policy = PolicySpec.from_string(policy)
        return replace(self, policy=policy)

    # -- common shapes -----------------------------------------------------
    @staticmethod
    def multiprogram(
        scale: SimScale,
        workload: str,
        version: str = "R",
        sleep_time_s: Optional[float] = None,
        with_interactive: bool = True,
    ) -> "ExperimentSpec":
        """The paper's standard mix: one hog, optionally one interactive."""
        processes = [WorkloadProcessSpec(workload=workload, version=version)]
        if with_interactive:
            processes.append(
                WorkloadProcessSpec(
                    workload=INTERACTIVE, sleep_time_s=sleep_time_s
                )
            )
        return ExperimentSpec(scale=scale, processes=tuple(processes))

    @staticmethod
    def interactive_alone(
        scale: SimScale, sleep_time_s: float, sweeps: int = 8
    ) -> "ExperimentSpec":
        """The dedicated-machine baseline of Figures 1 and 10."""
        return ExperimentSpec(
            scale=scale,
            processes=(
                WorkloadProcessSpec(
                    workload=INTERACTIVE,
                    sleep_time_s=sleep_time_s,
                    sweeps=sweeps,
                ),
            ),
        )


@dataclass
class ProcessResult:
    """Everything measured from one process of an experiment."""

    name: str
    workload: str
    version: str
    interactive: bool
    completed: bool
    buckets: TimeBuckets
    stats: AddressSpaceStats
    worker_buckets: Optional[TimeBuckets] = None
    runtime: Optional[RuntimeStats] = None
    sleep_time_s: Optional[float] = None
    sweeps: SweepLog = field(default_factory=SweepLog)


@dataclass
class ExperimentResult:
    """Spec in, measurements out — the unit the runner caches."""

    spec: ExperimentSpec
    scale: str
    elapsed_s: float
    engine_steps: int
    processes: List[ProcessResult]
    vm: VmStats
    swap: Dict[str, float]
    #: Set by the runner: True when this result was loaded from the on-disk
    #: cache rather than simulated in this invocation.
    from_cache: bool = False

    def process(self, name: str) -> ProcessResult:
        for process in self.processes:
            if process.name == name:
                return process
        raise KeyError(name)

    @property
    def out_of_core(self) -> List[ProcessResult]:
        return [p for p in self.processes if not p.interactive]

    @property
    def interactives(self) -> List[ProcessResult]:
        return [p for p in self.processes if p.interactive]

    @property
    def primary(self) -> ProcessResult:
        """The first out-of-core process (most results revolve around it)."""
        hogs = self.out_of_core
        if not hogs:
            raise KeyError("experiment has no out-of-core process")
        return hogs[0]


class _Attached:
    """Bookkeeping for one process attached to a machine."""

    __slots__ = (
        "wspec",
        "name",
        "kprocess",
        "runtime",
        "interactive",
        "process",
        "sleep_time_s",
        "trace",
    )

    def __init__(self, wspec: WorkloadProcessSpec, name: str) -> None:
        self.wspec = wspec
        self.name = name
        self.kprocess = None
        self.runtime: Optional[RuntimeLayer] = None
        self.interactive: Optional[InteractiveTask] = None
        self.process = None  # the sim Process driving this workload
        self.sleep_time_s: Optional[float] = None
        self.trace = None  # TraceHeader when this process replays a trace


def _delayed(engine: Engine, generator, delay: float):
    """Wrap a process generator with an initial idle delay."""
    yield engine.timeout(delay)
    result = yield from generator
    return result


# -- workload template cache (warm-worker snapshot/reset) -------------------
#
# ``workload.build(scale)`` and ``compile_program`` are pure functions of
# (workload, scale): they produce the array environment and the compiled
# nest program, and nothing downstream mutates either — ``app_driver``
# reads ``instance.env`` (copying when it applies per-process overrides)
# and the layout/driver state is rebuilt per process.  A persistent pool
# worker therefore keeps one template per (workload, scale) family and
# reuses it across specs instead of rebuilding from scratch; "reset" is
# free because the mutable per-run state (kernel process, PM, runtime
# layer, nest runner) was never part of the template.  Honesty about the
# win: construction is ~1ms against a 100–300ms run at tiny scale, so
# this trims the constant term, not the loop — the pool's warmth and
# batching do the heavy lifting.  Counters feed the pool's telemetry.

_TEMPLATE_LIMIT = 64
_template_cache: "Dict[Tuple[str, str], Tuple[object, object]]" = {}
_template_counters = {"hits": 0, "misses": 0}


def template_counters() -> Dict[str, int]:
    """Snapshot of the template cache hit/miss counters."""
    return dict(_template_counters)


def clear_template_cache() -> None:
    _template_cache.clear()


def _workload_template(workload, scale: SimScale):
    """Return the cached ``(instance, compiled)`` pair for a spec family."""
    key = (workload.name, repr(scale))
    entry = _template_cache.get(key)
    if entry is not None:
        _template_counters["hits"] += 1
        return entry
    _template_counters["misses"] += 1
    instance = workload.build(scale)
    compiled = instance.compiled(scale)
    if len(_template_cache) >= _TEMPLATE_LIMIT:
        # Drop the oldest insertion; dicts preserve insertion order.
        _template_cache.pop(next(iter(_template_cache)))
    _template_cache[key] = (instance, compiled)
    return instance, compiled


class Machine:
    """The simulated machine, fully wired: engine + kernel + processes.

    Build it from a spec (:meth:`from_spec` or :func:`run_experiment`) or
    construct it empty and attach processes programmatically with
    :meth:`add_out_of_core` / :meth:`add_interactive`.
    """

    def __init__(
        self,
        scale: SimScale,
        sinks: Iterable[Sink] = (),
        faults: FaultPlan = EMPTY_PLAN,
        policy: PolicySpec = DEFAULT_POLICY,
    ) -> None:
        self.scale = scale
        self.engine = Engine()
        sinks = tuple(sinks)
        # A trace capture sink takes each recorded process's ops as a list
        # its driver appends to, not as events; the bus exists only for
        # sinks that subscribe to some event kind, so a plain recording
        # runs without one, like a live run.
        recorders = [sink for sink in sinks if hasattr(sink, "capture")]
        if len(recorders) > 1:
            raise ValueError("a machine records through at most one trace capture sink")
        self._recorder = recorders[0] if recorders else None
        listeners = [
            sink for sink in sinks if getattr(sink, "kinds", None) is None or sink.kinds
        ]
        self.bus: Optional[Bus] = Bus(self.engine, listeners) if listeners else None
        self.engine.obs = self.bus
        # The injector exists only for an enabled plan; otherwise every
        # layer receives None and keeps its fault-free fast path.
        self.faults: Optional[FaultInjector] = (
            FaultInjector(faults, obs=self.bus) if faults.enabled else None
        )
        self.policy_spec = policy
        self.kernel = Kernel.boot(
            self.engine,
            scale,
            obs=self.bus,
            faults=self.faults,
            policy=build_policy(policy),
        )
        self._attached: List[_Attached] = []
        self._names: Dict[str, int] = {}
        self._spec: Optional[ExperimentSpec] = None
        self._finished = False

    # -- construction ------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: ExperimentSpec, sinks: Iterable[Sink] = ()) -> "Machine":
        spec.validate()
        machine = cls(
            spec.scale, sinks=sinks, faults=spec.faults, policy=spec.policy
        )
        machine._spec = spec
        # Build in the same order the seed harness did, so event sequences
        # (and therefore every reproduced figure) are bit-identical: first
        # every out-of-core process and its runtime layer, then the
        # interactive tasks, then the application drivers.
        hogs = [w for w in spec.processes if not w.is_interactive]
        interactives = [w for w in spec.processes if w.is_interactive]
        prepared = [
            machine._prepare_trace(w) if w.is_trace else machine._prepare_out_of_core(w)
            for w in hogs
        ]
        for wspec in interactives:
            machine.add_interactive(wspec)
        for attached, driver in prepared:
            machine._spawn(attached, driver)
        return machine

    def _unique_name(self, base: str) -> str:
        count = self._names.get(base, 0) + 1
        self._names[base] = count
        return base if count == 1 else f"{base}-{count}"

    def _prepare_out_of_core(self, wspec: WorkloadProcessSpec):
        """Create the kernel process, PM, and runtime layer; return the
        handle plus the (not yet spawned) driver generator."""
        workload = BENCHMARKS[wspec.workload.upper()]
        version = VERSIONS[wspec.version]
        scale = self.scale
        attached = _Attached(wspec, self._unique_name(wspec.name or workload.name))
        instance, compiled = _workload_template(workload, scale)
        process = self.kernel.create_process(attached.name)
        layout = build_layout(process, instance, scale.machine.page_size)
        pm = self.kernel.attach_policy(process)
        hint_faults = (
            self.faults.hint_model(attached.name) if self.faults is not None else None
        )
        runtime = RuntimeLayer(process, pm, scale.runtime, version, faults=hint_faults)
        attached.kprocess = process
        attached.runtime = runtime
        record = None
        if self._recorder is not None:
            page_size = scale.machine.page_size
            record = self._recorder.capture(
                attached.name,
                workload=workload.name,
                version=wspec.version,
                scale=scale.name,
                page_size=page_size,
                layout=[
                    (array.name, array.pages(instance.env, page_size))
                    for array in instance.program.arrays
                ],
            )
        driver = app_driver(
            process, runtime, compiled, instance, layout, version, scale, record
        )
        self._attached.append(attached)
        return attached, driver

    def _prepare_trace(self, wspec: WorkloadProcessSpec):
        """Like :meth:`_prepare_out_of_core`, but replaying a recorded
        op stream: the trace header supplies the layout, hint version, and
        default process name; no compiler or interpreter work happens."""
        from repro.trace.workload import (
            TraceWorkload,
            replay_columns_driver,
            replay_driver,
        )

        scale = self.scale
        trace = TraceWorkload(wspec.trace_path)
        if wspec.trace_digest and trace.digest != wspec.trace_digest:
            raise SpecError(
                f"trace {wspec.trace_path} changed on disk: content digest "
                f"{trace.digest[:12]}… does not match the spec's "
                f"{wspec.trace_digest[:12]}…"
            )
        header = trace.header
        name = self._unique_name(wspec.name or header.process)
        record = None
        if self._recorder is not None:
            record = self._recorder.capture(
                name,
                workload=header.workload,
                version=header.version,
                scale=header.scale,
                page_size=header.page_size,
                layout=header.layout,
            )
        # Decode (and checksum-validate) before wiring: into flat columns
        # for the object-free replayer, or into the op tuples a recorded
        # replay appends to its capture list.
        payload = trace.columns() if record is None else trace.ops()
        if header.page_size and header.page_size != scale.machine.page_size:
            raise SpecError(
                f"trace {wspec.trace_path} was recorded with page_size="
                f"{header.page_size}, but scale '{scale.name}' uses "
                f"{scale.machine.page_size}"
            )
        if header.version not in VERSIONS:
            raise SpecError(
                f"trace {wspec.trace_path} names unknown version "
                f"{header.version!r}"
            )
        version = VERSIONS[header.version]
        attached = _Attached(wspec, name)
        process = self.kernel.create_process(attached.name)
        for segment, pages in header.layout:
            process.aspace.map_segment(segment, pages)
        pm = self.kernel.attach_policy(process)
        hint_faults = (
            self.faults.hint_model(attached.name) if self.faults is not None else None
        )
        runtime = RuntimeLayer(process, pm, scale.runtime, version, faults=hint_faults)
        attached.kprocess = process
        attached.runtime = runtime
        attached.trace = header
        if record is None:
            driver = replay_columns_driver(process, runtime, payload, version, scale)
        else:
            driver = replay_driver(process, runtime, payload, version, scale, record)
        self._attached.append(attached)
        return attached, driver

    def _spawn(self, attached: _Attached, driver) -> None:
        if attached.wspec.start_offset_s > 0:
            driver = _delayed(self.engine, driver, attached.wspec.start_offset_s)
        attached.process = self.engine.process(driver, name=attached.name)

    def add_out_of_core(self, wspec: WorkloadProcessSpec) -> _Attached:
        """Attach one out-of-core benchmark process, ready to run."""
        wspec.validate()
        if wspec.is_trace:
            attached, driver = self._prepare_trace(wspec)
        else:
            attached, driver = self._prepare_out_of_core(wspec)
        self._spawn(attached, driver)
        return attached

    def add_interactive(self, wspec: WorkloadProcessSpec) -> _Attached:
        """Attach one instance of the paper's interactive task."""
        wspec.validate()
        scale = self.scale
        sleep = wspec.resolved(scale).sleep_time_s
        attached = _Attached(wspec, self._unique_name(wspec.name or "interactive"))
        task = InteractiveTask(
            self.kernel, scale, sleep, name=attached.name, sweeps=wspec.sweeps
        )
        attached.interactive = task
        attached.kprocess = task.process
        attached.sleep_time_s = sleep
        self._spawn(attached, task.run())
        self._attached.append(attached)
        return attached

    # -- execution ---------------------------------------------------------
    def run(self) -> "Machine":
        """Drive the engine until every bounded process completes.

        Raises :class:`StepBudgetExceeded` past ``scale.max_engine_steps``
        and re-raises the first failure of any bounded process.
        """
        bounded = [a.process for a in self._attached if a.wspec.bounded]
        if not bounded:
            raise SpecError("machine has no bounded process to wait for")
        done = self.engine.all_of(bounded)
        engine = self.engine
        budget = self.scale.max_engine_steps
        # The engine owns the dispatch loop (run_until_triggered inlines the
        # per-event hot path); the machine only turns a budget stop into the
        # experiment-level error with per-process diagnostics attached.
        if not engine.run_until_triggered(done, budget):
            raise StepBudgetExceeded(
                budget,
                engine.now,
                {
                    a.name: a.kprocess.task.buckets
                    for a in self._attached
                    if a.kprocess is not None
                },
            )
        if not done.ok:
            raise done.value
        for attached in self._attached:
            if attached.interactive is not None:
                attached.interactive.stop()
        self._finished = True
        return self

    # -- reporting ---------------------------------------------------------
    def result(self) -> ExperimentResult:
        """Snapshot everything the figures and tables need."""
        swap = self.kernel.swap.stats
        processes: List[ProcessResult] = []
        for attached in self._attached:
            wspec = attached.wspec
            completed = attached.process.triggered and attached.process.ok
            if attached.trace is not None:
                # Replay processes report the recorded workload/version, so
                # a replayed result serializes identically to the live one.
                workload = attached.trace.workload
                version = attached.trace.version
            else:
                workload = wspec.workload.upper()
                version = "" if wspec.is_interactive else wspec.version
            processes.append(
                ProcessResult(
                    name=attached.name,
                    workload=workload,
                    version=version,
                    interactive=wspec.is_interactive,
                    completed=completed,
                    buckets=attached.kprocess.task.buckets,
                    stats=attached.kprocess.aspace.stats,
                    worker_buckets=(
                        attached.runtime.worker_time()
                        if attached.runtime is not None
                        else None
                    ),
                    runtime=(
                        attached.runtime.stats
                        if attached.runtime is not None
                        else None
                    ),
                    sleep_time_s=attached.sleep_time_s,
                    sweeps=(
                        attached.interactive.samples
                        if attached.interactive is not None
                        else SweepLog()
                    ),
                )
            )
        return ExperimentResult(
            spec=self._spec
            if self._spec is not None
            else ExperimentSpec(
                scale=self.scale,
                processes=tuple(a.wspec for a in self._attached),
            ),
            scale=self.scale.name,
            elapsed_s=self.engine.now,
            engine_steps=self.engine.steps,
            processes=processes,
            vm=self.kernel.vm.finalize_stats(),
            swap={
                "demand_reads": swap.demand_reads,
                "prefetch_reads": swap.prefetch_reads,
                "writebacks": swap.writebacks,
                "mean_demand_latency_s": self.kernel.swap.mean_latency("demand"),
                "mean_prefetch_latency_s": self.kernel.swap.mean_latency("prefetch"),
                "io_errors": swap.io_errors,
                "io_timeouts": swap.io_timeouts,
                "io_retries": swap.io_retries,
                "spindles_failed": swap.spindles_failed,
                "online_disks": self.kernel.swap.online_disks,
            },
        )


def run_experiment(
    spec: ExperimentSpec, sinks: Sequence[Sink] = ()
) -> ExperimentResult:
    """Build a machine from the spec, run it, and return the result."""
    return Machine.from_spec(spec, sinks=sinks).run().result()
