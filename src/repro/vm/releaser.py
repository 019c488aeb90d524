"""The releaser daemon: specialised reclamation of pre-identified pages.

Section 3.1.2 of the paper: release requests are queued to a new system
daemon that "functions similarly to the paging daemon, but is specialized to
reclaim only the pages indicated by the application".  Before freeing each
page it re-checks that the page has not been referenced again (by a prefetch
or a real reference) since the request was made.  Because the pages are
pre-identified it works in much smaller lock batches and does far less work
per page than the paging daemon — which is why explicit releasing causes so
much less lock contention (Section 4.3).

Freed pages go to the *end* of the free list so that pages released too
early can still be rescued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import OsTunables
from repro.sim.engine import Engine
from repro.sim.sync import Store
from repro.sim.task import SimTask
from repro.vm.frames import (
    F_PRESENT,
    F_REFERENCED,
    F_RELEASE_PENDING,
    F_SW_VALID,
    FREED_BY_RELEASE,
)
from repro.vm.pagetable import AddressSpace

__all__ = ["ReleaseWorkItem", "Releaser"]


@dataclass
class ReleaseWorkItem:
    """One release request handed from the PM to the releaser."""

    aspace: AddressSpace
    vpns: List[int]


class Releaser:
    """The releasing daemon and its work queue."""

    def __init__(self, engine: Engine, vm, tunables: OsTunables) -> None:
        self.engine = engine
        self.vm = vm
        self.tunables = tunables
        self.task = SimTask(engine, "releaser")
        self.queue = Store(engine, name="releaser-queue")
        self._process = None

    def start(self) -> None:
        if self._process is None:
            self._process = self.engine.process(self._run(), name="releaser")

    def enqueue(self, aspace: AddressSpace, vpns: List[int]) -> None:
        self.vm.stats.releaser_requests += 1
        self.queue.put(ReleaseWorkItem(aspace, list(vpns)))

    @property
    def backlog(self) -> int:
        return len(self.queue)

    def _run(self):
        batch_size = self.tunables.releaser_lock_batch_pages
        per_page = self.tunables.releaser_per_page_free_s
        vm = self.vm
        table = vm.frame_table
        flags = table.flags
        in_transit = table.in_transit
        # Freeable iff release still pending and neither referenced nor
        # revalidated since the request was queued.
        check_mask = F_RELEASE_PENDING | F_REFERENCED | F_SW_VALID
        engine = self.engine
        task = self.task
        buckets = task.buckets
        queue_get = self.queue.get
        free_frame = vm.free_frame
        stats = vm.stats
        while True:
            item: ReleaseWorkItem = yield queue_get()
            started = engine._now
            freed_before = stats.releaser_pages_freed
            aspace = item.aspace
            vpns = item.vpns
            pt = aspace.pt
            npt = len(pt)
            lock = aspace.lock
            for start in range(0, len(vpns), batch_size):
                batch = vpns[start : start + batch_size]
                # task.lock_acquire / task.system inlined: two fewer
                # generator frames per lock batch, identical accounting.
                lock_started = engine._now
                yield lock.acquire(task)
                buckets.stall_memory += engine._now - lock_started
                freed = 0
                try:
                    for vpn in batch:
                        index = pt[vpn] if vpn < npt else -1
                        if index < 0 or not flags[index] & F_PRESENT:
                            stats.releaser_skipped_absent += 1
                            continue
                        if (
                            flags[index] & check_mask != F_RELEASE_PENDING
                            or in_transit[index] is not None
                        ):
                            # Referenced again (the in-memory bit is set
                            # once more) since the request: leave it alone.
                            stats.releaser_skipped_referenced += 1
                            continue
                        free_frame(aspace, index, FREED_BY_RELEASE)
                        freed += 1
                    if freed:
                        cost = freed * per_page
                        if cost > 0:
                            if not engine.advance(cost):
                                yield engine.timeout(cost)
                            buckets.system += cost
                finally:
                    lock.release()
                stats.releaser_pages_freed += freed
            if aspace.shared_page is not None:
                aspace.shared_page.refresh()
            stats.releaser_active_time += engine._now - started
            if vm.obs is not None:
                vm.obs.emit(
                    "vm.release",
                    {
                        "aspace": aspace.name,
                        "requested": len(vpns),
                        "freed": vm.stats.releaser_pages_freed - freed_before,
                    },
                )
