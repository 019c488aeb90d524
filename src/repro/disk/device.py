"""A single swap disk modelled as a FIFO queue with positional state.

Service time for a request is ``seek + rotation + transfer``.  The seek
component depends on where the head is: a request for the block immediately
following the previous one pays no seek and only a fraction of the average
rotational latency, which is what makes striped sequential prefetch streams
so much faster than random demand faults.

A device may carry a :class:`~repro.faults.DiskFaultModel` (chaos
experiments only): the model can stretch a request's service time or fail
the request outright, in which case the completion event fails with
:class:`~repro.faults.DiskIOError` after the (wasted) service time — the
platters spun either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import DiskParams
from repro.faults import DiskFaultModel, DiskIOError
from repro.sim.engine import Engine, Event

__all__ = ["DiskDevice", "DiskRequest"]


@dataclass(slots=True)
class DiskRequest:
    """One page-sized transfer.

    ``done`` is required at construction — only :meth:`DiskDevice.submit`
    creates requests, and it always schedules the completion event, so a
    half-constructed request can never be awaited.
    """

    block: int
    is_write: bool
    issued_at: float
    done: Event = field(repr=False)
    start_time: float = 0.0
    finish_time: float = 0.0
    failed: bool = False

    @property
    def queue_delay(self) -> float:
        return self.start_time - self.issued_at

    @property
    def service_time(self) -> float:
        return self.finish_time - self.start_time


class DiskDevice:
    """One disk: positional head state plus a busy-until horizon.

    Rather than simulating the platter with a process, the device keeps a
    ``busy_until`` horizon: a request arriving at time *t* starts at
    ``max(t, busy_until)`` and completes after its service time.  This is
    exact for a FIFO queue and costs one scheduled event per request.
    """

    def __init__(
        self,
        engine: Engine,
        params: DiskParams,
        disk_id: int,
        faults: Optional[DiskFaultModel] = None,
    ) -> None:
        self.engine = engine
        self.params = params
        self.disk_id = disk_id
        self.faults = faults
        self._busy_until = 0.0
        self._last_block: Optional[int] = None
        # Service-time constants (submit runs once per page of swap traffic).
        self._seq_position_s = (
            params.average_seek_s * 0.3 + params.rotational_latency_s * 0.5
        )
        self._rand_position_s = params.average_seek_s + params.rotational_latency_s
        self._transfer_s = params.transfer_s_per_page
        # Statistics.
        self.requests = 0
        self.reads = 0
        self.writes = 0
        self.sequential_hits = 0
        self.errors = 0
        self.busy_time = 0.0
        self.total_queue_delay = 0.0

    def submit(
        self, block: int, is_write: bool, at: float, done: Event
    ) -> DiskRequest:
        """Queue one page transfer arriving at time ``at``; trigger ``done``.

        ``at`` is the command's start time: an adapter computes it at slot
        grant (grant time plus channel overhead), so it may lie ahead of the
        clock.  Arrivals must reach a disk in nondecreasing ``at`` order —
        the FIFO ``busy_until`` horizon assumes it.  ``done`` fires at the
        finish with the :class:`DiskRequest`; with an injected transient
        error it *fails* with :class:`~repro.faults.DiskIOError` instead,
        after the same queueing and service delay a successful transfer
        would have taken.
        """
        last = self._last_block
        if last is not None and block == last + 1:
            # Head is near: short seek (track-to-track-ish) plus an average
            # half rotation — raw swap partitions are not laid out for
            # zero-latency sequential reads.
            self.sequential_hits += 1
            service = self._seq_position_s + self._transfer_s
        else:
            service = self._rand_position_s + self._transfer_s
        failed = False
        if self.faults is not None:
            service, failed = self.faults.perturb(service)
        busy_until = self._busy_until
        start = at if at >= busy_until else busy_until
        finish = start + service
        self._busy_until = finish
        self._last_block = block
        request = DiskRequest(block, is_write, at, done, start, finish)
        self.requests += 1
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.busy_time += service
        self.total_queue_delay += start - at
        # A delay of finish - at measured from at: the instant
        # succeed(delay=...) would compute with the clock standing at at.
        when = at + (finish - at)
        if failed:
            self.errors += 1
            request.failed = True
            done.trigger_at(
                when,
                DiskIOError(self.disk_id, block, is_write, detail="transient"),
                ok=False,
            )
        else:
            done.trigger_at(when, request)
        return request

    @property
    def queue_horizon(self) -> float:
        """How far in the future this disk is already committed."""
        return max(0.0, self._busy_until - self.engine.now)

    def utilization(self) -> float:
        """Fraction of elapsed simulated time spent transferring."""
        if self.engine.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.engine.now)
