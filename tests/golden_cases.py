"""The spec lists behind the golden contract.

``tests/golden/serialized_digests.json`` pins one physics digest and one
``engine_steps`` count per spec of each case below, and the wall-time
gates in ``benchmarks/perf`` time some of the same lists.  Each case is a
function returning a fresh list of specs, keyed by the name the pins use.
"""

from typing import Callable, Dict, List

from repro.config import small, tiny
from repro.experiments.harness import multiprogram_spec
from repro.faults import DiskFailure, DiskFaultSpec, FaultPlan, HintFaultSpec
from repro.machine import ExperimentSpec

#: Workload ordering shared by the grid cases (Figure 7's order).
WORKLOAD_ORDER = ["EMBAR", "MATVEC", "BUK", "CGM", "MGRID", "FFTPDE"]


def standard_mix() -> List[ExperimentSpec]:
    """The paper's standard mix: MATVEC O/P/R/B + interactive, small scale."""
    return [multiprogram_spec(small(), "MATVEC", v) for v in "OPRB"]


def standard_mix_global_clock() -> List[ExperimentSpec]:
    """The standard mix rerun under the global-clock policy.

    Same four specs, but the kernel discards release hints and reclaims
    with the plain clock daemon — the no-hint baseline the figures compare
    against, and a guard that the competitor policy path stays fast.
    """
    return [spec.with_policy("global-clock") for spec in standard_mix()]


def grid_tiny() -> List[ExperimentSpec]:
    """The full benchmark × version grid behind Figures 7-10, tiny scale."""
    return [
        multiprogram_spec(tiny(), w, v) for w in WORKLOAD_ORDER for v in "OPRB"
    ]


def indirect_tiny() -> List[ExperimentSpec]:
    """The two indirect-reference benchmarks (BUK, CGM), tiny scale."""
    return [
        multiprogram_spec(tiny(), w, v) for w in ("BUK", "CGM") for v in "OPRB"
    ]


def interactive_sweep_tiny() -> List[ExperimentSpec]:
    """Figure 10's sleep-time sweep for MATVEC R, tiny scale."""
    scale = tiny()
    return [
        multiprogram_spec(scale, "MATVEC", "R", sleep_time_s=t)
        for t in scale.figure_sleep_times_s
    ]


def grid_wide() -> List[ExperimentSpec]:
    """A 48-spec sweep: the full grid × two interactive sleep settings.

    Twice the surface of ``grid_tiny`` — every workload/version pair is run
    with the scale's default interactive sleep and again with the shortest
    Figure 10 sleep (the most fault-heavy interactive behaviour).  This is
    the widest committed case and the closest proxy for a full figure
    regeneration pass.
    """
    scale = tiny()
    sleeps = (None, scale.figure_sleep_times_s[0])
    return [
        multiprogram_spec(scale, w, v, sleep_time_s=t)
        for w in WORKLOAD_ORDER
        for v in "OPRB"
        for t in sleeps
    ]


#: The three fault plans behind ``faulted_tiny``: one per kind of fault.
FAULT_PLANS = (
    FaultPlan(
        seed=11,
        disk=DiskFaultSpec(
            latency_spike_prob=0.2, latency_spike_multiplier=6.0, io_error_prob=0.05
        ),
    ),
    FaultPlan(
        seed=3,
        disk=DiskFaultSpec(
            degraded_disks=(0,),
            degraded_multiplier=4.0,
            failures=(DiskFailure(disk=2, at_s=0.05),),
        ),
    ),
    FaultPlan(
        seed=5,
        hints=HintFaultSpec(drop_prob=0.2, spurious_prob=0.1, mistime_prob=0.1),
    ),
)


def faulted_tiny() -> List[ExperimentSpec]:
    """MATVEC and BUK, every version, under each plan of ``FAULT_PLANS``.

    Disk latency spikes with transient I/O errors (retries), a degraded
    spindle beside a failed one (failover), and dropped, spurious and
    mistimed hints: the fault paths the fault-free cases never take.
    """
    return [
        multiprogram_spec(tiny(), w, v).with_faults(plan)
        for w in ("MATVEC", "BUK")
        for v in "OPRB"
        for plan in FAULT_PLANS
    ]


GOLDEN_CASES: Dict[str, Callable[[], List[ExperimentSpec]]] = {
    "faulted_tiny": faulted_tiny,
    "standard_mix": standard_mix,
    "standard_mix_global_clock": standard_mix_global_clock,
    "grid_tiny": grid_tiny,
    "grid_wide": grid_wide,
    "indirect_tiny": indirect_tiny,
    "interactive_sweep_tiny": interactive_sweep_tiny,
}
