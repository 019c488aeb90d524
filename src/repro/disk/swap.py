"""The striped raw swap: page-number striping over the disk array.

IRIX striped its raw swap partitions across the ten disks; a virtual page's
backing block is determined by its (process, page) identity, so consecutive
pages of an array land on consecutive disks — a sequential sweep keeps all
ten spindles busy.  The VM layer talks only to this class.

Under a fault plan (:mod:`repro.faults`) this layer is also where the
kernel's error handling lives: transient I/O errors and requests that
exceed ``DiskParams.request_timeout_s`` are retried with capped exponential
backoff; a spindle that keeps failing (or that the plan kills outright) is
taken offline and its pages deterministically remapped over the surviving
stripe members, so prefetch parallelism degrades instead of crashing.  With
the default empty plan none of that machinery is constructed and the
transfer path is byte-for-byte the fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.config import DiskParams
from repro.faults import DiskIOError, FaultInjector
from repro.sim.engine import Engine, Event

from repro.disk.adapter import ScsiAdapter
from repro.disk.device import DiskDevice

__all__ = ["StripedSwap", "SwapStats"]

_PURPOSES = ("demand", "prefetch", "writeback")
_PROC_NAMES = {purpose: f"swap-{purpose}" for purpose in _PURPOSES}


@dataclass
class SwapStats:
    """Aggregate swap traffic, split by purpose for the experiment reports."""

    demand_reads: int = 0
    prefetch_reads: int = 0
    writebacks: int = 0
    demand_read_time: float = 0.0
    prefetch_read_time: float = 0.0
    writeback_time: float = 0.0
    # Fault handling (all zero outside chaos experiments).
    io_errors: int = 0
    io_timeouts: int = 0
    io_retries: int = 0
    spindles_failed: int = 0


class StripedSwap:
    """Round-robin page striping over ``DiskParams.disks`` spindles."""

    def __init__(
        self,
        engine: Engine,
        params: DiskParams,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.engine = engine
        self.params = params
        # Disk faults only: a hint-only plan leaves the I/O path pristine.
        self.faults = faults if faults is not None and faults.disk_enabled else None
        if self.faults is not None:
            highest = self.faults.plan.disk.max_disk_id()
            if highest >= params.disks:
                raise ValueError(
                    f"fault plan names disk {highest}, but the stripe has "
                    f"only {params.disks} spindles"
                )
        self.disks: List[DiskDevice] = [
            DiskDevice(
                engine,
                params,
                disk_id=i,
                faults=self.faults.disk_model(i) if self.faults is not None else None,
            )
            for i in range(params.disks)
        ]
        # A property on the frozen params; computed once, not per command.
        self._per_adapter = per_adapter = params.disks_per_adapter
        self.adapters: List[ScsiAdapter] = [
            ScsiAdapter(
                engine,
                params,
                adapter_id=i,
                disks=self.disks[i * per_adapter : (i + 1) * per_adapter],
            )
            for i in range(params.adapters)
        ]
        self.stats = SwapStats()
        # Instrumentation bus (:mod:`repro.obs`), or None when disabled.
        self.obs = None
        # Spindles taken out of the stripe: scheduled failures from the
        # plan plus any disk the retry path gave up on.
        self._offline: Set[int] = set()
        self._failures_pending = (
            sorted(self.faults.plan.disk.failures, key=lambda f: f.at_s)
            if self.faults is not None
            else []
        )

    # -- placement --------------------------------------------------------
    def placement(self, pid: int, vpn: int) -> Tuple[int, int]:
        """Deterministic (disk, block) for a page.

        Consecutive vpns round-robin across disks; the block within the disk
        advances with the stripe row, so a straight-line sweep is sequential
        on every spindle.
        """
        n = self.params.disks
        disk_index = (vpn + pid) % n
        block = vpn // n
        return disk_index, block

    def _adapter_for(self, disk_index: int) -> ScsiAdapter:
        return self.adapters[disk_index // self._per_adapter]

    # -- degraded-stripe placement ----------------------------------------
    def _check_scheduled_failures(self) -> None:
        """Lazily apply plan-scheduled spindle failures that are now due."""
        now = self.engine.now
        while self._failures_pending and self._failures_pending[0].at_s <= now:
            failure = self._failures_pending.pop(0)
            self._mark_offline(failure.disk, reason="scheduled")

    def _mark_offline(self, disk_index: int, reason: str) -> None:
        if disk_index in self._offline:
            return
        self._offline.add(disk_index)
        self.stats.spindles_failed += 1
        if self.obs is not None:
            self.obs.emit(
                "fault.disk_offline", {"disk": disk_index, "reason": reason}
            )

    def _live_placement(self, pid: int, vpn: int) -> Tuple[int, int]:
        """Placement over the spindles that are still in the stripe.

        Pages whose home spindle is offline remap deterministically across
        the survivors; the block number only shapes seek timing, so the
        remap needs no relocation table.
        """
        self._check_scheduled_failures()
        disk_index, block = self.placement(pid, vpn)
        if disk_index not in self._offline:
            return disk_index, block
        online = [d for d in range(self.params.disks) if d not in self._offline]
        if not online:
            raise DiskIOError(disk_index, block, False, detail="all spindles offline")
        return online[(vpn + pid) % len(online)], block

    @property
    def online_disks(self) -> int:
        return self.params.disks - len(self._offline)

    # -- transfers --------------------------------------------------------
    def transfer(self, pid: int, vpn: int, is_write: bool, purpose: str) -> Event:
        """Start one page transfer; returns an Event to wait on.

        ``purpose`` is one of ``"demand"``, ``"prefetch"``, ``"writeback"``
        and only affects accounting.  It is validated here, before any event
        is scheduled, so a bad caller fails immediately instead of
        mid-simulation after the I/O completed.

        Without a fault plan the transfer is one adapter command and no
        process: the command's completion releases its slot, books
        :class:`SwapStats` and succeeds the returned event on the now-lane
        (DESIGN.md §7.7).
        """
        if purpose not in _PURPOSES:
            raise ValueError(f"unknown transfer purpose {purpose!r}")
        engine = self.engine
        if self.faults is not None:
            # Constant per-purpose names: no per-request f-string.
            return engine.process(
                self._run_faulted(pid, vpn, is_write, purpose),
                name=_PROC_NAMES[purpose],
            )
        n = self.params.disks
        disk_index = (vpn + pid) % n
        if self.obs is not None:
            self._emit_issue(disk_index, purpose, is_write)
        adapter = self.adapters[disk_index // self._per_adapter]
        command = adapter.command(self.disks[disk_index], vpn // n, is_write)
        done = engine.event()
        started = engine._now

        def complete(command: Event) -> None:
            self._complete(disk_index, purpose, is_write, engine._now - started)
            # The caller wakes on the now-lane, not inside the disk's
            # dispatch: the lane hop keeps same-instant wake order intact.
            done.succeed(command._value)

        command.callbacks.append(complete)
        return done

    def _emit_issue(self, disk_index: int, purpose: str, is_write: bool) -> None:
        if self.obs is not None:
            self.obs.emit(
                "disk.issue",
                {"disk": disk_index, "purpose": purpose, "write": is_write},
            )

    def _complete(
        self, disk_index: int, purpose: str, is_write: bool, elapsed: float
    ) -> None:
        if self.obs is not None:
            self.obs.emit(
                "disk.complete",
                {
                    "disk": disk_index,
                    "purpose": purpose,
                    "write": is_write,
                    "latency_s": elapsed,
                },
            )
        stats = self.stats
        if purpose == "demand":
            stats.demand_reads += 1
            stats.demand_read_time += elapsed
        elif purpose == "prefetch":
            stats.prefetch_reads += 1
            stats.prefetch_read_time += elapsed
        else:
            stats.writebacks += 1
            stats.writeback_time += elapsed

    def _run_faulted(self, pid: int, vpn: int, is_write: bool, purpose: str):
        """Transfer with kernel-side error handling (chaos experiments).

        Each attempt races the adapter command against the per-request
        timeout.  An error or timeout backs off exponentially (capped) and
        reissues; ``retry_attempts`` consecutive failures on one spindle
        take it offline and the page fails over to the surviving stripe.  A
        timed-out command is not cancelled — it keeps its channel slot until
        the disk finishes, exactly like a real orphaned SCSI command.
        """
        params = self.params
        engine = self.engine
        stats = self.stats
        started = engine.now
        attempts = 0
        while True:
            disk_index, block = self._live_placement(pid, vpn)
            disk = self.disks[disk_index]
            adapter = self._adapter_for(disk_index)
            self._emit_issue(disk_index, purpose, is_write)
            command = adapter.command(disk, block, is_write)
            deadline = engine.timeout(params.request_timeout_s)
            error: Optional[DiskIOError] = None
            try:
                yield engine.any_of([command, deadline])
            except DiskIOError as exc:
                error = exc
            # processed, not triggered: the disk schedules the command's
            # completion at its grant, long before it fires.
            if error is None and command.processed and command.ok:
                request = command.value
                break
            if error is not None:
                reason = "error"
                stats.io_errors += 1
            else:
                reason = "timeout"
                stats.io_timeouts += 1
            attempts += 1
            stats.io_retries += 1
            if self.obs is not None:
                self.obs.emit(
                    "fault.disk_retry",
                    {
                        "disk": disk_index,
                        "purpose": purpose,
                        "reason": reason,
                        "attempt": attempts,
                    },
                )
            if attempts >= params.retry_attempts:
                # The spindle is not coming back: fail it out of the stripe
                # and start fresh against the survivors.
                self._mark_offline(disk_index, reason=reason)
                attempts = 0
                continue
            backoff = min(
                params.retry_backoff_cap_s,
                params.retry_backoff_s * (2 ** (attempts - 1)),
            )
            yield engine.timeout(backoff)
        self._complete(disk_index, purpose, is_write, engine.now - started)
        return request

    def read_page(self, pid: int, vpn: int, purpose: str = "demand") -> Event:
        """Start a page read; returns the Event that fires when it is in."""
        return self.transfer(pid, vpn, is_write=False, purpose=purpose)

    def write_page(self, pid: int, vpn: int) -> Event:
        """Start a page writeback; returns the Event that fires when done."""
        return self.transfer(pid, vpn, is_write=True, purpose="writeback")

    # -- reporting --------------------------------------------------------
    @property
    def total_reads(self) -> int:
        return self.stats.demand_reads + self.stats.prefetch_reads

    def mean_latency(self, purpose: str) -> float:
        stats = self.stats
        if purpose == "demand":
            return stats.demand_read_time / stats.demand_reads if stats.demand_reads else 0.0
        if purpose == "prefetch":
            return (
                stats.prefetch_read_time / stats.prefetch_reads
                if stats.prefetch_reads
                else 0.0
            )
        if purpose == "writeback":
            return stats.writeback_time / stats.writebacks if stats.writebacks else 0.0
        raise ValueError(f"unknown transfer purpose {purpose!r}")

    def utilization(self) -> float:
        """Mean utilization across spindles."""
        if not self.disks:
            return 0.0
        return sum(d.utilization() for d in self.disks) / len(self.disks)
