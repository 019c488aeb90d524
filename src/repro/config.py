"""Platform configuration: the simulated SGI Origin 200 and IRIX tunables.

The paper's Table 1 summarises the hardware: a 4-processor SGI Origin 200
(MIPS R10000) configured with ~75 MB of memory available to user programs,
16 KB pages, and system swap striped across ten Seagate Cheetah 4LP disks
behind five SCSI adapters.  Every timing constant in the simulation lives
here, with the source of each value noted, so experiments never bury magic
numbers.

Three scale presets are provided.  ``paper()`` reproduces the paper's
proportions exactly (75 MB memory, 400 MB out-of-core data set, 1 MB
interactive data set).  ``small()`` and ``tiny()`` shrink everything while
preserving the ratios that drive the results (data set >> memory >>
interactive working set); tests use them to keep event counts low.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

__all__ = [
    "CompilerParams",
    "DiskParams",
    "MachineConfig",
    "OsTunables",
    "RuntimeParams",
    "SCALE_PRESETS",
    "ScaleError",
    "SimScale",
    "paper",
    "small",
    "tiny",
]

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class DiskParams:
    """One Seagate Cheetah 4LP and its share of the SCSI fabric.

    Values from the public Cheetah 4LP (ST34501) datasheet: 10 025 RPM
    (2.99 ms average rotational latency), ~7.7 ms average seek, and a
    sustained media rate that moves a 16 KB page in about 1 ms.  Raw swap
    partitions see mostly short seeks, so the *effective* seek used for a
    queued request is lower than the datasheet average.
    """

    average_seek_s: float = 0.0054
    rotational_latency_s: float = 0.0030
    transfer_s_per_page: float = 0.0011
    adapter_overhead_s: float = 0.0004
    disks: int = 10
    adapters: int = 5
    adapter_queue_depth: int = 8
    # Kernel-side error handling (only exercised under a fault plan —
    # :mod:`repro.faults`): a request that errors or exceeds
    # ``request_timeout_s`` is retried with capped exponential backoff;
    # after ``retry_attempts`` consecutive failures the spindle is declared
    # dead and its pages fail over to the surviving stripe members.
    retry_attempts: int = 4
    retry_backoff_s: float = 0.002
    retry_backoff_cap_s: float = 0.05
    request_timeout_s: float = 0.25

    @property
    def page_service_s(self) -> float:
        """Mean service time for one random 16 KB page on one disk."""
        return (
            self.average_seek_s
            + self.rotational_latency_s
            + self.transfer_s_per_page
        )

    @property
    def disks_per_adapter(self) -> int:
        return self.disks // self.adapters


@dataclass(frozen=True)
class MachineConfig:
    """CPU-side constants for the simulated Origin 200."""

    cpus: int = 4
    page_size: int = 16 * KB
    element_size: int = 8  # double-precision data throughout the benchmarks
    user_memory_bytes: int = 75 * MB
    # CPU work per data element (per unit of Stmt.flops) for out-of-core
    # inner loops: ~25 cycles per element-flop on a ~200 MHz R10000.
    cpu_s_per_element: float = 1.2e-7
    # Kernel path costs (order-of-magnitude IRIX fault-path numbers).
    hard_fault_cpu_s: float = 150e-6  # kernel work, excludes the disk wait
    soft_fault_cpu_s: float = 25e-6  # revalidation after daemon invalidation
    prefetch_validate_s: float = 8e-6  # first touch of a prefetched page
    rescue_cpu_s: float = 120e-6  # reattach a page from the free list
    resident_touch_s: float = 0.2e-6  # TLB-hit page crossing cost
    syscall_s: float = 6e-6  # user/kernel crossing for PM requests

    @property
    def page_elements(self) -> int:
        return self.page_size // self.element_size

    @property
    def total_frames(self) -> int:
        return self.user_memory_bytes // self.page_size


@dataclass(frozen=True)
class OsTunables:
    """IRIX VM tunables the PagingDirected PM reads (Section 3.1.3).

    ``min_freemem_pages`` — if total free memory falls below this, the paging
    daemon steals from all processes (approximate LRU).
    ``maxrss_pages`` — per-process resident-set cap; exceeding it makes the
    daemon trim that process.
    """

    min_freemem_pages: int = 96
    free_target_slack_pages: int = 64  # daemon steals until free >= min + slack
    maxrss_fraction: float = 0.95  # maxrss as a fraction of total frames
    daemon_wake_interval_s: float = 0.1
    # Two-handed clock: the hand spread determines how long an unreferenced
    # page survives; the scan rate scales with memory pressure (vhand runs
    # faster as free memory drops), which is what makes prefetching-without-
    # releasing so much more hostile to idle tasks than demand paging.
    clock_hand_spread_fraction: float = 0.5
    daemon_base_scan_rate_pages_s: float = 400.0
    daemon_max_scan_rate_pages_s: float = 8000.0
    daemon_lock_batch_pages: int = 64  # pages handled per lock hold (large)
    daemon_per_page_scan_s: float = 3e-6
    daemon_per_page_steal_s: float = 20e-6
    releaser_lock_batch_pages: int = 16  # specialised daemon: small batches
    releaser_per_page_free_s: float = 15e-6

    def maxrss_pages(self, total_frames: int) -> int:
        return int(total_frames * self.maxrss_fraction)


@dataclass(frozen=True)
class CompilerParams:
    """What the compiler is told about the target (Section 3.2).

    The compiler receives the size of main memory, the page size, and the
    page fault latency.  Following Sections 2.3.2 and 2.4, on a shared
    machine compile-time assumptions about available memory "may be wildly
    inaccurate", so the locality analysis only counts on a small fraction of
    stated memory (``memory_confidence``) — effectively the paper's
    "assume only the smallest working set will fit" rule.  Setting the
    confidence to 1.0 reproduces the dedicated-machine assumption of the
    authors' earlier prefetching paper, under which far fewer releases are
    inserted (an ablation benchmark sweeps this).
    """

    memory_bytes: int = 75 * MB
    page_size: int = 16 * KB
    page_fault_latency_s: float = 0.012
    memory_confidence: float = 0.02
    estimated_s_per_element: float = 1.2e-7
    min_prefetch_distance_pages: int = 4
    max_prefetch_distance_pages: int = 64


@dataclass(frozen=True)
class RuntimeParams:
    """Run-time layer knobs (Section 3.3)."""

    prefetch_threads: int = 10  # one per swap disk, like the aio library
    release_batch_pages: int = 100  # "attempts to release a total of 100 pages"
    limit_headroom_pages: int = 128  # "close to the limit" threshold
    hint_filter_s: float = 0.8e-6  # user-time cost to filter one hint
    buffer_insert_s: float = 1.2e-6  # extra user time for priority buffering
    # Pressure drains issue the most-recently-buffered pages first: the MRU
    # replacement of Section 2.3, which keeps the first portion of a
    # cyclically-reused array in memory.  (Ablation: set False for FIFO.)
    drain_newest_first: bool = True
    # Hysteresis on the pressure trigger, implementing Section 2.3.2's
    # "desire to perform release operations as infrequently as possible":
    # after a drain fires, the trigger re-arms only once headroom recovers
    # by a full release batch.  A workload whose buffered (positive-
    # priority) releases are its *only* release traffic — FFTPDE — can
    # therefore fall behind and hand the job back to the paging daemon,
    # which is precisely the paper's FFTPDE-with-buffering failure.
    # (Ablation: 0 disables the hysteresis and buffering self-heals.)
    drain_rearm_batches: int = 1


class ScaleError(ValueError):
    """A :meth:`SimScale.with_overrides` key that names no platform knob, or
    a value of the wrong type or range.

    ``knob`` is the override's key and ``problem`` what is wrong with its
    value; the scenario schema reports the pair at ``overrides.<knob>``.
    """

    def __init__(self, knob: str, problem: str) -> None:
        self.knob = knob
        self.problem = problem
        super().__init__(f"scale override {knob!r}: {problem}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value: object) -> bool:
    return _is_int(value) and value > 0


def _is_seconds(value: object) -> bool:
    """A finite number >= 0 (``json.loads`` accepts NaN and Infinity)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 <= value < math.inf
    )


@dataclass(frozen=True)
class SimScale:
    """A complete, mutually-consistent set of platform parameters."""

    name: str
    machine: MachineConfig
    disk: DiskParams
    tunables: OsTunables
    compiler: CompilerParams
    runtime: RuntimeParams
    out_of_core_bytes: int = 400 * MB
    interactive_bytes: int = 1 * MB + 16 * KB  # 65 pages, per Figure 10(c)
    time_quantum_s: float = 0.02  # app-side batching of resident compute time
    rng_seed: int = 20001023  # OSDI 2000 conference date
    # Sleep-time sweep for the Figure 1 / Figure 10(a) experiments, and the
    # fixed "intermediate" sleep used by Figure 10(b)/(c).  Smaller scales
    # turn memory over proportionally faster (the disks are not scaled), so
    # their sweeps cover proportionally shorter sleeps.
    figure_sleep_times_s: tuple = (0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0)
    intermediate_sleep_s: float = 5.0
    # Hard ceiling on engine events per experiment so a badly-tuned
    # configuration cannot spin forever; generous relative to any experiment
    # in the suite.  Exceeding it raises
    # :class:`repro.machine.StepBudgetExceeded`.
    max_engine_steps: int = 200_000_000

    @property
    def out_of_core_pages(self) -> int:
        return self.out_of_core_bytes // self.machine.page_size

    @property
    def interactive_pages(self) -> int:
        return self.interactive_bytes // self.machine.page_size

    def with_overrides(self, **kwargs) -> "SimScale":
        """Return a copy with top-level fields replaced.

        Every value is checked first, since a scenario's ``overrides`` pass
        JSON values straight through: an unknown key or a value of the wrong
        type or range raises
        :class:`ScaleError` naming the key, before any simulation runs.
        """
        for knob, value in kwargs.items():
            check = _OVERRIDES.get(knob)
            if check is None:
                raise ScaleError(knob, "unknown platform knob")
            accepts, expected = check
            if not accepts(value):
                raise ScaleError(knob, f"expected {expected}, got {value!r}")
        if "figure_sleep_times_s" in kwargs:
            kwargs["figure_sleep_times_s"] = tuple(kwargs["figure_sleep_times_s"])
        return replace(self, **kwargs)

    def describe(self) -> Dict[str, object]:
        """Human-readable summary (used by the Table 1 benchmark)."""
        return {
            "scale": self.name,
            "cpus": self.machine.cpus,
            "page_size_kb": self.machine.page_size // KB,
            "user_memory_mb": self.machine.user_memory_bytes // MB,
            "frames": self.machine.total_frames,
            "swap_disks": self.disk.disks,
            "scsi_adapters": self.disk.adapters,
            "page_service_ms": round(self.disk.page_service_s * 1e3, 2),
            "out_of_core_mb": self.out_of_core_bytes // MB,
            "interactive_pages": self.interactive_pages,
        }


#: What :meth:`SimScale.with_overrides` accepts for each field: a test, and
#: the words an error gives for it.
_OVERRIDES: Dict[str, Tuple[Callable[[object], bool], str]] = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "machine": (lambda v: isinstance(v, MachineConfig), "a MachineConfig"),
    "disk": (lambda v: isinstance(v, DiskParams), "a DiskParams"),
    "tunables": (lambda v: isinstance(v, OsTunables), "an OsTunables"),
    "compiler": (lambda v: isinstance(v, CompilerParams), "a CompilerParams"),
    "runtime": (lambda v: isinstance(v, RuntimeParams), "a RuntimeParams"),
    "out_of_core_bytes": (_is_count, "an integer > 0"),
    "interactive_bytes": (_is_count, "an integer > 0"),
    "time_quantum_s": (lambda v: _is_seconds(v) and v > 0, "a finite number > 0"),
    "rng_seed": (_is_int, "an integer"),
    "figure_sleep_times_s": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_seconds, v)),
        "a list of finite numbers >= 0",
    ),
    "intermediate_sleep_s": (_is_seconds, "a finite number >= 0"),
    "max_engine_steps": (_is_count, "an integer > 0"),
}


def paper() -> SimScale:
    """Full paper-scale configuration: 75 MB memory, 400 MB data sets."""
    return SimScale(
        name="paper",
        machine=MachineConfig(),
        disk=DiskParams(),
        tunables=OsTunables(),
        compiler=CompilerParams(),
        runtime=RuntimeParams(),
    )


def _scaled(name: str, divisor: int, seed_offset: int) -> SimScale:
    """Shrink memory and data sets by ``divisor`` with ratios preserved.

    Memory-proportional thresholds (min_freemem, lock batches, release
    batches) shrink with memory; the daemon scan *rates* do not, because the
    disks are not scaled either — so memory turns over proportionally faster
    and the sleep-time sweeps cover proportionally shorter sleeps.
    """
    machine = MachineConfig(user_memory_bytes=(75 * MB) // divisor)
    tunables = OsTunables(
        min_freemem_pages=max(8, 96 // divisor),
        free_target_slack_pages=max(6, 64 // divisor),
        daemon_lock_batch_pages=max(8, 64 // divisor),
        releaser_lock_batch_pages=max(4, 16 // divisor),
    )
    compiler = CompilerParams(memory_bytes=(75 * MB) // divisor)
    sleep_times = tuple(round(t / divisor, 4) for t in (0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0))
    return SimScale(
        name=name,
        machine=machine,
        disk=DiskParams(),
        tunables=tunables,
        compiler=compiler,
        runtime=RuntimeParams(
            release_batch_pages=max(10, 100 // divisor),
            limit_headroom_pages=max(16, 128 // divisor),
        ),
        out_of_core_bytes=(400 * MB) // divisor,
        interactive_bytes=max(4, 65 // divisor) * 16 * KB,
        rng_seed=20001023 + seed_offset,
        figure_sleep_times_s=sleep_times,
        intermediate_sleep_s=round(5.0 / divisor, 4),
    )


def small() -> SimScale:
    """~1/8 scale: quick integration runs (≈600 frames, 3 200-page data)."""
    return _scaled("small", 8, seed_offset=1)


def tiny() -> SimScale:
    """~1/64 scale: unit and property tests (75 frames, 400-page data)."""
    return _scaled("tiny", 64, seed_offset=2)


#: The presets by name: a scenario's ``scale`` and every ``--scale`` flag.
SCALE_PRESETS: Dict[str, Callable[[], SimScale]] = {"tiny": tiny, "small": small, "paper": paper}
