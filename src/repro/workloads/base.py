"""Workload plumbing: instances, layout, and the application driver.

A workload contributes three things:

1. an IR :class:`~repro.core.compiler.ir.Program` for the compiler pass;
2. the runtime environment (symbol values the compiler may not have known);
3. an *invocation sequence*: which nests run, in what order, under what
   per-invocation environment overrides (MGRID's changing grid levels,
   FFTPDE's changing strides).

``app_driver`` turns an op stream into a simulated process: it plays the
interpreter's ops (or a recorded trace's, when a replay is re-recorded)
against the kernel, batching resident compute time and routing every hint
through the run-time layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import MachineConfig, SimScale
from repro.core.compiler.codegen import CompiledProgram
from repro.core.compiler.interp import nest_ops
from repro.core.compiler.ir import Program
from repro.core.compiler.pipeline import compile_program
from repro.core.runtime.layer import RuntimeLayer
from repro.core.runtime.policies import VersionConfig
from repro.kernel.kernel import KernelProcess
from repro.vm.frames import F_DIRTY, F_IN_TRANSIT, F_REFERENCED, F_SW_VALID

__all__ = [
    "OutOfCoreWorkload",
    "WorkloadInstance",
    "app_driver",
    "build_layout",
    "invocation_ops",
]

Invocation = Tuple[str, Dict[str, int]]


@dataclass
class WorkloadInstance:
    """A workload sized for a concrete scale, ready to compile and run."""

    name: str
    program: Program
    env: Dict[str, int]
    repeats: int
    invocations: List[Invocation]
    rng_seed: int = 0

    def compiled(self, scale: SimScale) -> CompiledProgram:
        return compile_program(self.program, scale.compiler)

    def total_invocations(self) -> int:
        return self.repeats * len(self.invocations)


class OutOfCoreWorkload:
    """Base class for the six out-of-core benchmarks.

    Subclasses define :meth:`build`; everything else (Table 2 metadata) is
    class attributes.
    """

    name: str = "abstract"
    description: str = ""
    analysis_hazard: str = ""

    def build(self, scale: SimScale) -> WorkloadInstance:
        raise NotImplementedError

    def dataset_pages(self, scale: SimScale) -> int:
        instance = self.build(scale)
        page_size = scale.machine.page_size
        return sum(
            arr.pages(instance.env, page_size) for arr in instance.program.arrays
        )


def build_layout(
    process: KernelProcess, instance: WorkloadInstance, page_size: int
) -> Dict[str, int]:
    """Map every array of the program onto contiguous virtual pages."""
    layout: Dict[str, int] = {}
    for array in instance.program.arrays:
        pages = array.pages(instance.env, page_size)
        segment = process.aspace.map_segment(array.name, pages)
        layout[array.name] = segment.start
    return layout


def _recorded(ops, append):
    """Yield ``ops``, appending each to a trace capture list as it is
    played, so a fault annotation appended while the op runs lands right
    after it."""
    for op in ops:
        append(op)
        yield op


def invocation_ops(
    compiled: CompiledProgram,
    instance: WorkloadInstance,
    layout: Dict[str, int],
    machine: MachineConfig,
    emit_prefetch: bool,
    emit_release: bool,
) -> Iterator[Iterable[Tuple]]:
    """The executable's op stream, one iterable per invocation, in order.

    Walks every repeat × invocation through the interpreter: the stream
    :func:`app_driver` plays and :func:`repro.trace.analyze.regenerate_ops`
    rebuilds.  The interpreter is deterministic, so invocation i produces
    the same ops on every repeat; with more than one repeat each stream is
    materialised once and the list replayed, which skips the whole
    interpreter (runner construction, loop walking, chunking) for repeats
    2..N.  With one repeat the streams stay lazy.
    """
    if instance.repeats < 1:
        return
    replay = instance.repeats > 1
    streams: List[List[Tuple]] = []
    for nest_name, overrides in instance.invocations:
        # Workloads with static environments (most of them) share the
        # instance dict; only per-invocation overrides pay for a copy.
        if overrides:
            env = dict(instance.env)
            env.update(overrides)
        else:
            env = instance.env
        ops = nest_ops(
            compiled.nests[nest_name],
            env,
            layout,
            machine,
            rng_seed=instance.rng_seed,
            emit_prefetch=emit_prefetch,
            emit_release=emit_release,
        )
        if replay:
            ops = list(ops)
            streams.append(ops)
        yield ops
    for _rep in range(1, instance.repeats):
        yield from streams


def app_driver(
    process: KernelProcess,
    runtime: RuntimeLayer,
    streams: Iterable[Iterable[Tuple]],
    version: VersionConfig,
    scale: SimScale,
    record: Optional[List[Tuple]] = None,
):
    """Process generator: play op ``streams`` against the kernel.

    A live process plays :func:`invocation_ops`, the (possibly
    hint-annotated) executable: O runs with no hints at all, P emits only
    prefetches, R and B emit both (the runtime layer decides what to do
    with the releases).  A replay that is being recorded plays a trace's
    decoded ops as one stream.  ``record`` is a trace capture list
    (:meth:`repro.trace.record.TraceCaptureSink.capture`): when given,
    every op played is appended to it, ``('f', …)`` fault annotations
    included, which the loop itself skips (faults re-emerge from the
    simulation).
    """
    quantum = scale.time_quantum_s
    handle_prefetch = runtime.handle_prefetch
    handle_release = runtime.handle_release
    run_touches = process.run_touches
    aspace = process.aspace
    pt = aspace.pt
    task = process.task
    buckets = task.buckets
    timeout = process.engine.timeout
    advance = process.engine.advance
    vm_fault = process.kernel.vm.fault
    flags = process.kernel.vm._flags
    in_mask = F_SW_VALID | F_IN_TRANSIT
    bits_read = F_REFERENCED
    bits_write = F_REFERENCED | F_DIRTY
    resident_touch_s = scale.machine.resident_touch_s
    for ops in streams:
        if record is not None:
            ops = _recorded(ops, record.append)
        # The op loop keeps the user-time batch in a local mirror of
        # process.pending_user (synced around every yield and every call
        # that charges through the process), and inlines the touch_fast hit
        # test to one page-table probe plus one mask compare.  The
        # accounting is add-for-add identical to the process.touch/charge
        # path.
        pending = process.pending_user
        npt = len(pt)
        for op in ops:
            kind = op[0]
            if kind == "t":
                vpn = op[1]
                index = pt[vpn] if vpn < npt else -1
                if index >= 0 and flags[index] & in_mask == F_SW_VALID:
                    flags[index] |= bits_write if op[2] else bits_read
                    pending += resident_touch_s
                    if pending >= quantum:
                        # process.flush() inlined (the quantum is positive,
                        # so pending > 0 holds here).
                        if not advance(pending):
                            yield timeout(pending)
                        buckets.user += pending
                        pending = 0.0
                else:
                    # process._fault inlined (flush, then the kernel fault
                    # path): one less generator frame per miss.
                    process.pending_user = 0.0
                    if pending > 0:
                        if not advance(pending):
                            yield timeout(pending)
                        buckets.user += pending
                    yield from vm_fault(task, aspace, vpn, op[2])
                    pending = 0.0
                    npt = len(pt)
            elif kind == "w":
                pending += op[1]
                if pending >= quantum:
                    if not advance(pending):
                        yield timeout(pending)
                    buckets.user += pending
                    pending = 0.0
            elif kind == "T":
                # Run of sequential full-page touches: run_touches
                # replicates the unbatched stream's checkpoints bit-for-bit.
                process.pending_user = pending
                yield from run_touches(op[1], op[2], op[3], op[4])
                pending = process.pending_user
                npt = len(pt)
            elif kind == "p":
                process.pending_user = pending
                handle_prefetch(op[1], op[2])
                pending = process.pending_user
            elif kind == "r":
                process.pending_user = pending
                handle_release(op[1], op[2], op[3])
                pending = process.pending_user
        process.pending_user = pending
    if version.release:
        runtime.flush_tag_filters()
    yield from process.flush()
