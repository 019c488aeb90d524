"""The paging daemon: IRIX's ``vhand`` as a two-handed clock.

The MIPS TLB has no hardware reference bits, so IRIX simulates them in
software: the leading clock hand *invalidates* mappings (clearing the valid
bit), and a page that gets re-referenced takes a soft fault which both
revalidates it and proves it is in use.  The trailing hand, a fixed spread
behind, steals pages that are still invalid and unreferenced.

Two properties of this design drive the paper's results:

1. Every invalidation of a live page turns into a **soft fault** for its
   owner (Figure 8), and the faults are served while the daemon may be
   holding the very address-space locks the fault handler needs.
2. The scan rate **scales with memory pressure**, so an aggressive
   prefetcher that keeps free memory pinned near zero makes the hands sweep
   at maximum speed — which is why prefetching-without-releasing evicts an
   idle interactive task's pages within a second or two, while plain demand
   paging takes many times longer (Figure 1).

Both hands sweep integer frame indices over the :class:`FrameTable`
columns: each candidate test is one flags-word mask compare, not a chain of
attribute loads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import OsTunables
from repro.sim.engine import Engine, Event
from repro.sim.task import SimTask
from repro.vm.frames import (
    F_INVALIDATED,
    F_PRESENT,
    F_REFERENCED,
    F_SW_VALID,
    F_WIRED,
    FREED_BY_DAEMON,
)
from repro.vm.pagetable import AddressSpace

__all__ = ["PagingDaemon"]

# Clock-hand candidate masks over the packed frame flags.
_ACTIVE_MASK = F_PRESENT | F_WIRED  # active: present and not wired
_STEAL_MASK = F_PRESENT | F_WIRED | F_INVALIDATED | F_REFERENCED | F_SW_VALID
_STEAL_WANT = F_PRESENT | F_INVALIDATED


class PagingDaemon:
    """``vhand``: wakes under memory pressure and runs the clock."""

    def __init__(self, engine: Engine, vm, tunables: OsTunables) -> None:
        self.engine = engine
        self.vm = vm
        self.tunables = tunables
        self.task = SimTask(engine, "vhand")
        nframes = len(vm.frame_table)
        self._nframes = nframes
        self._hand = 0  # trailing (stealing) hand position
        self._spread = max(1, int(nframes * tunables.clock_hand_spread_fraction))
        self._wake: Optional[Event] = None
        self._process = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._process is None:
            self._process = self.engine.process(self._run(), name="vhand")

    def notify(self) -> None:
        """Wake the daemon immediately (called on allocation pressure)."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    # -- pressure -----------------------------------------------------------
    def _shortage(self) -> bool:
        return self.vm.freelist._free_count < self.tunables.min_freemem_pages

    def _target(self) -> int:
        return self.tunables.min_freemem_pages + self.tunables.free_target_slack_pages

    def scan_rate(self) -> float:
        """Pages scanned per second, scaled by the shortfall against the
        replenish target (min_freemem + slack).

        Sustained allocation pressure therefore keeps the hands sweeping
        near the maximum rate, which is what evicts an idle task's pages
        within seconds under an aggressive prefetcher.
        """
        tunables = self.tunables
        free = self.vm.freelist._free_count
        target = self._target()
        if target <= 0:
            return tunables.daemon_base_scan_rate_pages_s
        pressure = max(0.0, min(1.0, (target - free) / target))
        return tunables.daemon_base_scan_rate_pages_s + pressure * (
            tunables.daemon_max_scan_rate_pages_s
            - tunables.daemon_base_scan_rate_pages_s
        )

    # -- main loop -----------------------------------------------------------
    def _run(self):
        while True:
            if not self._shortage():
                self._wake = self.engine.event()
                yield self.engine.any_of(
                    [self._wake, self.engine.timeout(self.tunables.daemon_wake_interval_s)]
                )
                self._wake = None
                continue
            self.vm.stats.daemon_runs += 1
            started = self.engine.now
            stolen = yield from self._clock_pass()
            self.vm.stats.daemon_active_time += self.engine.now - started
            # Fragmentation is sampled right after every sweep: that is when
            # the free list's shape just changed, and the measurement is pure
            # (no events), so the sweep's own timing is untouched.
            self.vm.sample_fragmentation()
            if self.vm.obs is not None:
                self.vm.obs.emit("vm.clock_pass", {"stolen": stolen})

    def _clock_pass(self):
        """Advance the hands until free memory reaches the target or a full
        revolution completes."""
        vm = self.vm
        tunables = self.tunables
        target = self._target()
        batch = tunables.daemon_lock_batch_pages
        steps = 0
        stolen_total = 0
        while vm.freelist._free_count < target and steps < self._nframes:
            lead_frames, steal_candidates = self._collect_batch(batch)
            stolen = yield from self._process_batch(lead_frames, steal_candidates)
            stolen_total += stolen
            steps += batch
            # Pacing: the hands move at the pressure-scaled scan rate.  The
            # pacing delay happens with no locks held; only the PTE work
            # above is done under the address-space locks.
            rate = self.scan_rate()
            work_time = batch * tunables.daemon_per_page_scan_s + (
                stolen * tunables.daemon_per_page_steal_s
            )
            pace = max(0.0, batch / rate - work_time)
            if pace > 0 and not self.engine.advance(pace):
                yield self.engine.timeout(pace)
        return stolen_total

    def _collect_batch(self, batch: int):
        """Gather the frame indices the two hands will pass over this batch."""
        table = self.vm.frame_table
        flags = table.flags
        in_transit = table.in_transit
        nframes = self._nframes
        hand = self._hand
        spread = self._spread
        lead_frames: List[int] = []
        steal_candidates: List[int] = []
        for offset in range(batch):
            trail_index = (hand + offset) % nframes
            lead_index = (trail_index + spread) % nframes
            if (
                flags[lead_index] & _ACTIVE_MASK == F_PRESENT
                and in_transit[lead_index] is None
            ):
                lead_frames.append(lead_index)
            if (
                flags[trail_index] & _STEAL_MASK == _STEAL_WANT
                and in_transit[trail_index] is None
            ):
                steal_candidates.append(trail_index)
        self._hand = (hand + batch) % nframes
        return lead_frames, steal_candidates

    def _process_batch(self, lead_frames: List[int], steal_candidates: List[int]):
        """Invalidate and steal, holding each owner's lock once per batch."""
        vm = self.vm
        tunables = self.tunables
        table = vm.frame_table
        flags = table.flags
        in_transit = table.in_transit
        owner_col = table.owner
        by_owner: Dict[AddressSpace, List[int]] = {}
        for index in lead_frames:
            owner = owner_col[index]
            if owner is not None:
                by_owner.setdefault(owner, []).append(index)
        steals_by_owner: Dict[AddressSpace, List[int]] = {}
        for index in steal_candidates:
            owner = owner_col[index]
            if owner is not None:
                steals_by_owner.setdefault(owner, []).append(index)
        owners = sorted(
            set(by_owner) | set(steals_by_owner), key=lambda a: a.asid
        )
        stolen_total = 0
        for owner in owners:
            yield from self.task.lock_acquire(owner.lock)
            try:
                invalidate = by_owner.get(owner, ())
                steals = steals_by_owner.get(owner, ())
                work = (
                    len(invalidate) * tunables.daemon_per_page_scan_s
                    + len(steals) * tunables.daemon_per_page_steal_s
                )
                for index in invalidate:
                    if owner_col[index] is not owner or in_transit[index] is not None:
                        continue  # reallocated while we waited for the lock
                    # Simulate the reference bit: clear validity; a live
                    # page will come back via a soft fault.
                    fl = flags[index]
                    if fl & F_SW_VALID or not fl & F_INVALIDATED:
                        vm.stats.daemon_invalidations += 1
                    flags[index] = (fl | F_INVALIDATED) & ~(
                        F_SW_VALID | F_REFERENCED
                    )
                for index in steals:
                    if (
                        owner_col[index] is not owner
                        or flags[index] & _STEAL_MASK != _STEAL_WANT
                        or in_transit[index] is not None
                    ):
                        continue  # revalidated/reallocated while we waited
                    vm.free_frame(owner, index, FREED_BY_DAEMON)
                    vm.stats.daemon_pages_stolen += 1
                    stolen_total += 1
                vm.stats.daemon_pages_scanned += len(invalidate) + len(steals)
                if work > 0:
                    yield from self.task.system(work)
            finally:
                owner.lock.release()
            if owner.shared_page is not None:
                owner.shared_page.refresh()
        return stolen_total
