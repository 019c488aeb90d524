"""Replay a trace file as a first-class simulated process.

:class:`TraceWorkload` wraps one trace file; ``trace_process_spec`` (or
``TraceWorkload.process_spec``) turns it into a
:class:`~repro.machine.WorkloadProcessSpec` that schedules in an
:class:`~repro.machine.ExperimentSpec` mix exactly like a compiled
benchmark — the machine maps the recorded segment layout, attaches the
recorded hint policy's runtime layer, and drives :func:`replay_driver`
over the decoded ops.

Because the op stream is independent of machine state, replaying a trace
alongside the same co-processes reproduces the live run's results
byte-for-byte while skipping the compiler pass and the interpreter.
Decoded op lists are memoized process-wide under the trace's content
digest, so a mix replaying one trace many times (or a bench repeat loop)
decodes it once.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from pathlib import Path
from typing import List, Optional, Tuple

from repro.trace.format import (
    K_COMPUTE,
    K_PREFETCH,
    K_RELEASE,
    K_RUN_WRITE,
    K_TOUCH_WRITE,
    ReplayColumns,
    TraceHeader,
    file_digest,
    read_columns,
    read_header,
    read_trace,
)

__all__ = [
    "TraceWorkload",
    "replay_columns_driver",
    "replay_driver",
    "trace_process_spec",
]

#: Decoded-op cache: trace content digest -> ops list.  Bounded so a long
#: session over many traces cannot hold every stream alive.
_OPS_CACHE: "OrderedDict[str, List[Tuple]]" = OrderedDict()
_OPS_CACHE_LIMIT = 8

#: Column cache for the object-free replay driver, same keying and bound.
_COLUMNS_CACHE: "OrderedDict[str, ReplayColumns]" = OrderedDict()


class TraceWorkload:
    """One trace file, ready to replay.

    Construction reads only the header (cheap); the op body is decoded,
    checksum-validated, and cached on first :meth:`ops` call.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.header: TraceHeader = read_header(self.path)
        self._digest: Optional[str] = None

    @property
    def name(self) -> str:
        return self.header.process

    @property
    def digest(self) -> str:
        """SHA-256 of the file — the content hash specs and caches key on."""
        if self._digest is None:
            self._digest = file_digest(self.path)
        return self._digest

    def ops(self) -> List[Tuple]:
        """The decoded op stream (memoized by content digest)."""
        digest = self.digest
        cached = _OPS_CACHE.get(digest)
        if cached is not None:
            _OPS_CACHE.move_to_end(digest)
            return cached
        header, ops = read_trace(self.path)
        self.header = header
        _OPS_CACHE[digest] = ops
        while len(_OPS_CACHE) > _OPS_CACHE_LIMIT:
            _OPS_CACHE.popitem(last=False)
        return ops

    def columns(self) -> ReplayColumns:
        """The op stream as flat columns (memoized by content digest).

        Input for :func:`replay_columns_driver` — same validation as
        :meth:`ops`, no per-op tuples.
        """
        digest = self.digest
        cached = _COLUMNS_CACHE.get(digest)
        if cached is not None:
            _COLUMNS_CACHE.move_to_end(digest)
            return cached
        header, cols = read_columns(self.path)
        self.header = header
        _COLUMNS_CACHE[digest] = cols
        while len(_COLUMNS_CACHE) > _OPS_CACHE_LIMIT:
            _COLUMNS_CACHE.popitem(last=False)
        return cols

    def process_spec(self, start_offset_s: float = 0.0, name: Optional[str] = None):
        """A :class:`~repro.machine.WorkloadProcessSpec` replaying this trace."""
        from repro.machine import TRACE, WorkloadProcessSpec

        return WorkloadProcessSpec(
            workload=TRACE,
            start_offset_s=start_offset_s,
            name=name,
            trace_path=str(self.path),
            trace_digest=self.digest,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceWorkload({self.path}, {self.header.workload}/{self.header.version})"


def trace_process_spec(
    path: os.PathLike, start_offset_s: float = 0.0, name: Optional[str] = None
):
    """Shorthand: a process spec replaying the trace at ``path``."""
    return TraceWorkload(path).process_spec(start_offset_s=start_offset_s, name=name)


def replay_driver(process, runtime, ops, version, scale, record):
    """Process generator: play a recorded op stream against the kernel,
    appending each op to the trace capture list ``record``.

    This mirrors ``app_driver``'s dispatch exactly — same touch calls, same
    quantum-flush boundaries, same ``run_touches`` for batched runs — which
    is what makes replayed metrics byte-identical to the live run's.  Fault
    annotations (``'f'`` ops) are documentation, not commands: faults
    re-emerge from the simulation itself, so they are skipped here (and
    still copied to ``record``).

    The machine runs this tuple driver only for a replay that is being
    recorded (the capture list holds op tuples); otherwise
    :func:`replay_columns_driver` replays the same stream.
    """
    quantum = scale.time_quantum_s
    touch = process.touch
    charge = process.charge
    run_touches = process.run_touches
    handle_prefetch = runtime.handle_prefetch
    handle_release = runtime.handle_release
    append = record.append
    for op in ops:
        append(op)
        kind = op[0]
        if kind == "t":
            fault = touch(op[1], op[2])
            if fault is not None:
                yield from fault
            elif process.pending_user >= quantum:
                yield from process.flush()
        elif kind == "w":
            charge(op[1])
            if process.pending_user >= quantum:
                yield from process.flush()
        elif kind == "T":
            yield from run_touches(op[1], op[2], op[3], op[4])
        elif kind == "p":
            handle_prefetch(op[1], op[2])
        elif kind == "r":
            handle_release(op[1], op[2], op[3])
        # 'f': fault annotation, replay ignores it.
    if version.release:
        runtime.flush_tag_filters()
    yield from process.flush()


def replay_columns_driver(process, runtime, cols: ReplayColumns, version, scale):
    """Object-free twin of :func:`replay_driver` over decoded columns.

    Dispatches on the ``kinds`` bytearray and reads arguments out of flat
    int columns — no per-op tuple is ever built.  The loop body mirrors
    ``app_driver``'s optimized stream (inlined touch hit test, local
    ``pending`` mirror, ``run_touches`` for batched runs), whose event
    stream is add-for-add identical to the per-op ``replay_driver``, so
    replayed results stay byte-identical whichever driver runs.

    The machine selects this driver unless the replay is being recorded —
    see ``Machine._prepare_trace``.
    """
    from repro.vm.frames import F_DIRTY, F_IN_TRANSIT, F_REFERENCED, F_SW_VALID

    machine = scale.machine
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
    resident_touch_s = machine.resident_touch_s
    kinds = cols.kinds
    arg0 = cols.arg0
    arg1 = cols.arg1
    arg2 = cols.arg2
    floats = cols.floats
    hint_vpns = cols.hint_vpns
    rel_priorities = cols.rel_priorities
    rel_cursor = 0
    pending = process.pending_user
    npt = len(pt)
    for i in range(len(kinds)):
        kind = kinds[i]
        if kind <= K_TOUCH_WRITE:
            vpn = arg0[i]
            index = pt[vpn] if vpn < npt else -1
            if index >= 0 and flags[index] & in_mask == F_SW_VALID:
                flags[index] |= bits_write if kind else bits_read
                pending += resident_touch_s
                if pending >= quantum:
                    # process.flush() inlined (quantum > 0, so pending > 0).
                    if not advance(pending):
                        yield timeout(pending)
                    buckets.user += pending
                    pending = 0.0
            else:
                # process._fault inlined: flush, then the kernel fault path.
                process.pending_user = 0.0
                if pending > 0:
                    if not advance(pending):
                        yield timeout(pending)
                    buckets.user += pending
                yield from vm_fault(task, aspace, vpn, kind == K_TOUCH_WRITE)
                pending = 0.0
                npt = len(pt)
        elif kind == K_COMPUTE:
            pending += floats[arg0[i]]
            if pending >= quantum:
                if not advance(pending):
                    yield timeout(pending)
                buckets.user += pending
                pending = 0.0
        elif kind <= K_RUN_WRITE:
            process.pending_user = pending
            yield from run_touches(
                arg0[i], arg1[i], kind == K_RUN_WRITE, floats[arg2[i]]
            )
            pending = process.pending_user
            npt = len(pt)
        elif kind == K_PREFETCH:
            process.pending_user = pending
            handle_prefetch(arg0[i], hint_vpns[arg1[i]:arg2[i]])
            pending = process.pending_user
        elif kind == K_RELEASE:
            process.pending_user = pending
            handle_release(
                arg0[i], hint_vpns[arg1[i]:arg2[i]], rel_priorities[rel_cursor]
            )
            rel_cursor += 1
            pending = process.pending_user
        # K_FAULT: annotation only; faults re-emerge from the simulation.
    process.pending_user = pending
    if version.release:
        runtime.flush_tag_filters()
    yield from process.flush()
