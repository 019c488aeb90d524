"""SCSI adapter model: a bounded command channel in front of two disks.

Each of the five adapters adds a fixed per-command overhead and limits the
number of commands outstanding across its disks.  The limit only binds under
heavy prefetch fan-out, which is exactly when the paper's platform would have
seen adapter queueing.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.config import DiskParams
from repro.sim.engine import Engine, Event
from repro.sim.sync import Resource

from repro.disk.device import DiskDevice

__all__ = ["ScsiAdapter"]


class ScsiAdapter:
    """One SCSI channel: per-command overhead plus bounded concurrency."""

    def __init__(
        self,
        engine: Engine,
        params: DiskParams,
        adapter_id: int,
        disks: Sequence[DiskDevice],
    ) -> None:
        self.engine = engine
        self.params = params
        self.adapter_id = adapter_id
        self.disks: List[DiskDevice] = list(disks)
        self._slots = Resource(
            engine, params.adapter_queue_depth, name=f"scsi{adapter_id}"
        )
        self._overhead_s = params.adapter_overhead_s
        self.commands = 0
        self.errors = 0

    def owns(self, disk: DiskDevice) -> bool:
        return disk in self.disks

    def command(self, disk: DiskDevice, block: int, is_write: bool) -> Event:
        """Issue one transfer through the adapter; returns its completion.

        The command waits FIFO for a channel slot.  At the grant it pays the
        fixed command overhead and then reaches the disk, so the disk submit
        is computed at grant time for ``grant + overhead``.  The returned
        event is the disk's completion: it releases the slot before any
        caller callback runs, and carries the :class:`DiskRequest`.  An
        injected transient failure fails it with
        :class:`~repro.faults.DiskIOError` after the full service time — the
        command still held its slot for the wasted service, exactly like a
        real SCSI command that comes back CHECK CONDITION.
        """
        if disk not in self.disks:
            raise ValueError(
                f"disk {disk.disk_id} is not attached to adapter {self.adapter_id}"
            )
        done = self.engine.event()
        done.callbacks.append(self._retire)
        self._slots.acquire(self._start, disk, block, is_write, done)
        return done

    def _start(self, disk: DiskDevice, block: int, is_write: bool, done: Event) -> None:
        self.commands += 1
        disk.submit(block, is_write, self.engine._now + self._overhead_s, done)

    def _retire(self, done: Event) -> None:
        if not done._ok:
            self.errors += 1
        self._slots.release()

    @property
    def outstanding(self) -> int:
        return self._slots.in_use

    @property
    def total_queue_wait(self) -> float:
        return self._slots.total_wait_time
