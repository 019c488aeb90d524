"""VmSystem: the fault handler, allocator, and paging primitives.

This is the kernel's memory-management core.  All paths that the paper's
analysis distinguishes are implemented separately so their costs and counts
can be reported:

- **hard fault** — page not present anywhere; allocate a frame (possibly
  blocking on free memory) and read from swap;
- **soft fault** — page present but invalidated by the paging daemon's
  software reference-bit simulation; re-validate under the address-space
  lock (these are the faults in Figure 8);
- **prefetch validate** — first touch of a prefetched page, which was
  deliberately left unvalidated with no TLB entry (Section 3.1.2);
- **release revalidate** — touch of a page with a pending release request;
  the touch sets the in-memory bit again so the releaser will skip it;
- **rescue** — page found on the free list with its identity intact; pulled
  back without I/O.

Frames are addressed by integer index into the :class:`FrameTable` columns
throughout (see ``vm/frames.py`` for the layout); the fast path is a flat
page-table lookup plus one flags-word test.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SimScale
from repro.disk.swap import StripedSwap
from repro.faults import DiskIOError
from repro.sim.engine import Engine
from repro.sim.task import SimTask
from repro.vm.fragmentation import DEFAULT_EXTENT_PAGES, measure_fragmentation
from repro.vm.frames import (
    F_DIRTY,
    F_FROM_PREFETCH,
    F_IN_TRANSIT,
    F_INVALIDATED,
    F_PRESENT,
    F_REFERENCED,
    F_RELEASE_PENDING,
    F_SW_VALID,
    F_WIRED,
    FREED_BY_DAEMON,
    FREED_BY_EXIT,
    FREED_BY_RELEASE,
    FrameTable,
    FreeList,
)
from repro.vm.pagetable import AddressSpace
from repro.vm.stats import VmStats

__all__ = ["FaultKind", "VmSystem"]


class FaultKind:
    """Symbolic names for the slow-path varieties (reporting only)."""

    HARD = "hard"
    SOFT = "soft"
    PREFETCH_VALIDATE = "prefetch_validate"
    RELEASE_REVALIDATE = "release_revalidate"
    RESCUE = "rescue"


class VmSystem:
    """Frame pool, fault handling, and the prefetch/release primitives."""

    def __init__(self, engine: Engine, scale: SimScale, swap: StripedSwap) -> None:
        self.engine = engine
        self.scale = scale
        self.machine = scale.machine
        self.tunables = scale.tunables
        self.swap = swap
        self.frame_table = FrameTable(self.machine.total_frames)
        self.freelist = FreeList(engine, self.frame_table)
        self.stats = VmStats()
        self.address_spaces: List[AddressSpace] = []
        self._next_asid = 1
        # Column aliases for the hot paths (the table never grows).
        self._flags = self.frame_table.flags
        self._vpns = self.frame_table.vpn
        self._in_transit = self.frame_table.in_transit
        # Per-fault cost constants, hoisted off the machine config: the
        # fault handler reads one of these on every slow-path entry.
        self._soft_fault_s = self.machine.soft_fault_cpu_s
        self._prefetch_validate_s = self.machine.prefetch_validate_s
        self._hard_fault_s = self.machine.hard_fault_cpu_s
        self._rescue_s = self.machine.rescue_cpu_s
        # Instrumentation bus (:mod:`repro.obs`), or None when disabled.
        self.obs = None
        # Wired in by the kernel after construction.
        self.paging_daemon = None
        self.releaser = None
        # "Large allocation" unit for the unusable-free index; policies may
        # override via the frag_extent parameter.
        self.frag_extent = DEFAULT_EXTENT_PAGES

    # -- address spaces -----------------------------------------------------
    def create_address_space(self, name: str) -> AddressSpace:
        aspace = AddressSpace(self.engine, self._next_asid, name, self.frame_table)
        self._next_asid += 1
        self.address_spaces.append(aspace)
        return aspace

    @property
    def free_pages(self) -> int:
        return self.freelist.free_count

    def _refresh_shared(self, aspace: AddressSpace) -> None:
        if aspace.shared_page is not None:
            aspace.shared_page.refresh()

    def _notify_daemon(self) -> None:
        if self.paging_daemon is not None:
            self.paging_daemon.notify()

    def _emit_fault(self, aspace: AddressSpace, vpn: int, kind: str) -> None:
        obs = self.obs
        if obs is not None and obs.wants("vm.fault"):
            obs.emit(
                "vm.fault", {"kind": kind, "aspace": aspace.name, "vpn": vpn}
            )

    # -- the fast path ------------------------------------------------------
    def touch_fast(self, aspace: AddressSpace, vpn: int, write: bool) -> bool:
        """Attempt a TLB-hit touch.  Returns True on hit, False if the
        caller must take the slow path (``fault``).

        This is deliberately not a generator: resident touches are the
        common case and must cost nothing but a list index and one
        flags-word test.  The in-flight check rides along in the flags word
        (``F_IN_TRANSIT`` mirrors the event column), so hit/miss is one
        mask compare.
        """
        try:
            index = aspace.pt[vpn]
        except IndexError:
            return False
        if index < 0:
            return False
        flags = self._flags
        fl = flags[index]
        if fl & (F_SW_VALID | F_IN_TRANSIT) == F_SW_VALID:
            flags[index] = (
                fl | (F_REFERENCED | F_DIRTY) if write else fl | F_REFERENCED
            )
            return True
        return False

    # -- the slow path ------------------------------------------------------
    def fault(self, task: SimTask, aspace: AddressSpace, vpn: int, write: bool):
        """Process generator: resolve a touch that missed the fast path.

        Returns the :class:`FaultKind` taken, for callers that record fault
        mixes.
        """
        # The task.system/wait_io/lock_acquire helpers are inlined throughout
        # this generator: each one is another generator frame the engine must
        # resume through on every one of ~10^5 faults per experiment, and
        # flattening them measurably cuts the dispatch cost.  The inlined
        # forms replicate the helpers' accounting exactly.
        engine = self.engine
        buckets = task.buckets
        flags = self._flags
        in_transit = self._in_transit
        pt = aspace.pt
        lock = aspace.lock
        sp = aspace.shared_page
        obs = self.obs
        while True:
            index = pt[vpn] if vpn < len(pt) else -1
            if index < 0:
                break
            inflight = in_transit[index]
            if inflight is not None:
                # A prefetch for this page is in flight; wait for the I/O
                # rather than starting a duplicate read.
                io_started = engine._now
                yield inflight
                buckets.stall_io += engine._now - io_started
                continue  # re-examine: the world may have moved
            fl = flags[index]
            if fl & F_SW_VALID:
                # Raced to validity (e.g. the in-flight prefetch finished
                # and another touch validated it first).
                flags[index] = (
                    fl | (F_REFERENCED | F_DIRTY) if write else fl | F_REFERENCED
                )
                if obs is not None:
                    self._emit_fault(aspace, vpn, FaultKind.PREFETCH_VALIDATE)
                return FaultKind.PREFETCH_VALIDATE
            if fl & F_RELEASE_PENDING:
                kind = FaultKind.RELEASE_REVALIDATE
                cost = self._soft_fault_s
            elif fl & F_INVALIDATED:
                kind = FaultKind.SOFT
                cost = self._soft_fault_s
            else:
                kind = FaultKind.PREFETCH_VALIDATE
                cost = self._prefetch_validate_s
            started = engine._now
            yield lock.acquire(task)
            buckets.stall_memory += engine._now - started
            try:
                if pt[vpn] != index:
                    # The releaser or the paging daemon freed the page while
                    # we queued for the lock; retry from the top (it may now
                    # be rescuable from the free list).
                    continue
                if cost > 0:
                    if not engine.advance(cost):
                        yield engine.timeout(cost)
                    buckets.system += cost
                if kind == FaultKind.RELEASE_REVALIDATE:
                    aspace.stats.release_revalidates += 1
                elif kind == FaultKind.SOFT:
                    aspace.stats.soft_faults += 1
                else:
                    aspace.stats.prefetch_validates += 1
                # Lock-queueing time: everything between the fault start and
                # the end of the handler that wasn't the handler's own CPU
                # cost.  Uncontended acquisition makes this an exact zero in
                # theory, but float rounding of now - started - cost can land
                # a hair below it, so clamp rather than accumulate negatives.
                wait = engine._now - started - cost
                if wait > 0.0:
                    aspace.stats.fault_wait_time += wait
                fl = flags[index]
                fl = (fl | F_SW_VALID | F_REFERENCED) & ~(
                    F_INVALIDATED | F_FROM_PREFETCH
                )
                if fl & F_RELEASE_PENDING:
                    # The re-reference sets the in-memory bit again, which
                    # is exactly what the releaser checks before freeing.
                    fl &= ~F_RELEASE_PENDING
                    if sp is not None:
                        sp.set_bit(vpn)
                if write:
                    fl |= F_DIRTY
                flags[index] = fl
            finally:
                lock.release()
            if sp is not None:
                sp.refresh()
            if obs is not None:
                self._emit_fault(aspace, vpn, kind)
            return kind

        # Not mapped: try to rescue it from the free list.
        index = self.freelist.rescue(aspace, vpn)
        if index is not None:
            # Re-map immediately — before any yield — so no concurrent
            # prefetch can allocate a second frame for this vpn.
            flags[index] = (flags[index] | F_PRESENT) & ~(
                F_SW_VALID | F_INVALIDATED | F_FROM_PREFETCH | F_RELEASE_PENDING
            )
            aspace.reattach(vpn, index)
            aspace.stats.rescues += 1
            lock_started = engine._now
            yield lock.acquire(task)
            buckets.stall_memory += engine._now - lock_started
            try:
                cost = self._rescue_s
                if cost > 0:
                    if not engine.advance(cost):
                        yield engine.timeout(cost)
                    buckets.system += cost
            finally:
                lock.release()
            fl = flags[index] | F_SW_VALID | F_REFERENCED
            if write:
                fl |= F_DIRTY
            flags[index] = fl
            if sp is not None:
                sp.refresh()
            if obs is not None:
                self._emit_fault(aspace, vpn, FaultKind.RESCUE)
            return FaultKind.RESCUE

        # Hard fault: allocate and read from swap.
        aspace.stats.hard_faults += 1
        index = yield from self.allocate_blocking(task)
        aspace.attach(vpn, index)
        aspace.stats.allocations += 1
        # In-flight marker: a touch that finds the page mid-read waits on it.
        # It is succeeded only if someone waits — once in_transit[index] is
        # cleared nothing can reach it, so an unwaited marker is dropped
        # undispatched (DESIGN.md §7.7).
        inflight = engine.event()
        in_transit[index] = inflight
        flags[index] |= F_IN_TRANSIT
        lock_started = engine._now
        yield lock.acquire(task)
        buckets.stall_memory += engine._now - lock_started
        try:
            cost = self._hard_fault_s
            if cost > 0:
                if not engine.advance(cost):
                    yield engine.timeout(cost)
                buckets.system += cost
        finally:
            lock.release()
        io = self.swap.read_page(aspace.asid, vpn, purpose="demand")
        io_started = engine._now
        yield io
        buckets.stall_io += engine._now - io_started
        in_transit[index] = None
        if inflight.callbacks:
            inflight.succeed()
        fl = (flags[index] | F_SW_VALID | F_REFERENCED) & ~F_IN_TRANSIT
        if write:
            fl |= F_DIRTY
        flags[index] = fl
        if sp is not None:
            sp.refresh()
        if obs is not None:
            self._emit_fault(aspace, vpn, FaultKind.HARD)
        return FaultKind.HARD

    # -- allocation ---------------------------------------------------------
    def allocate_blocking(self, task: SimTask):
        """Process generator: pop a free frame index, blocking while memory
        is exhausted (the "stalled for unavailable resources" component)."""
        first = True
        while True:
            index = self.freelist.pop()
            if index is not None:
                self.stats.total_allocations += 1
                if self.freelist._free_count < self.tunables.min_freemem_pages:
                    self._notify_daemon()
                return index
            if first:
                self.stats.low_memory_stalls += 1
                first = False
            self._notify_daemon()
            yield from task.wait_memory(self.freelist.wait_for_free())

    def allocate_nowait(self) -> Optional[int]:
        """Pop a free frame index or None (prefetch path: never blocks)."""
        index = self.freelist.pop()
        if index is not None:
            self.stats.total_allocations += 1
            if self.freelist._free_count < self.tunables.min_freemem_pages:
                self._notify_daemon()
        return index

    # -- prefetch (Section 3.1.2) --------------------------------------------
    def prefetch_page(self, task: SimTask, aspace: AddressSpace, vpn: int):
        """Process generator: service one prefetch request.

        Mirrors the PagingDirected PM: if there is no free memory the
        request is discarded immediately (never steals to satisfy a
        prefetch); on completion the page is left unvalidated with no TLB
        entry.  Returns True if a page was brought in.  The caller refreshes
        the shared page on return, whatever the outcome.
        """
        obs = self.obs
        flags = self._flags
        if aspace.is_present(vpn):
            # Already in memory (possibly with the I/O still in flight).
            aspace.stats.prefetches_duplicate += 1
            if obs is not None:
                obs.emit(
                    "vm.prefetch",
                    {"aspace": aspace.name, "vpn": vpn, "outcome": "duplicate"},
                )
            return False
        index = self.freelist.rescue(aspace, vpn)
        if index is not None:
            # Recoverable from the free list without any I/O.
            flags[index] = (
                flags[index] | F_PRESENT | F_FROM_PREFETCH
            ) & ~(F_SW_VALID | F_INVALIDATED | F_RELEASE_PENDING)
            aspace.reattach(vpn, index)
            aspace.stats.rescues += 1
            if obs is not None:
                obs.emit(
                    "vm.prefetch",
                    {"aspace": aspace.name, "vpn": vpn, "outcome": "rescued"},
                )
            return True
        index = self.allocate_nowait()
        if index is None:
            aspace.stats.prefetches_discarded += 1
            self._notify_daemon()
            if obs is not None:
                obs.emit(
                    "vm.prefetch",
                    {"aspace": aspace.name, "vpn": vpn, "outcome": "discarded"},
                )
            return False
        aspace.attach(vpn, index)
        aspace.stats.allocations += 1
        aspace.stats.prefetches_issued += 1
        if obs is not None:
            obs.emit(
                "vm.prefetch",
                {"aspace": aspace.name, "vpn": vpn, "outcome": "issued"},
            )
        flags[index] |= F_FROM_PREFETCH | F_IN_TRANSIT
        engine = self.engine
        # In-flight marker, retired like the hard-fault path's.
        inflight = engine.event()
        self._in_transit[index] = inflight
        io = self.swap.read_page(aspace.asid, vpn, purpose="prefetch")
        # task.wait_io inlined: one less generator frame on a path that runs
        # for every surviving prefetch (accounting is identical — a failed
        # wait charges nothing, exactly like the helper).
        io_started = engine._now
        try:
            yield io
        except DiskIOError:
            # Catastrophic I/O failure (the swap layer retries and fails
            # over internally, so this means no spindle is left).  A
            # prefetch is advisory: drop it and recycle the frame instead
            # of crashing the worker — if the page is really needed a
            # demand fault will surface the problem on the application.
            self._in_transit[index] = None
            if inflight.callbacks:
                inflight.succeed()
            aspace.detach(vpn)
            flags[index] &= ~(F_PRESENT | F_IN_TRANSIT)
            self.frame_table.reset_identity(index)
            self.freelist.push(index, FREED_BY_EXIT)
            aspace.stats.prefetches_failed += 1
            if obs is not None:
                obs.emit(
                    "vm.prefetch",
                    {"aspace": aspace.name, "vpn": vpn, "outcome": "failed"},
                )
            return False
        task.buckets.stall_io += engine._now - io_started
        self._in_transit[index] = None
        flags[index] &= ~F_IN_TRANSIT
        if inflight.callbacks:
            inflight.succeed()
        # Deliberately NOT validated: sw_valid stays False so the first real
        # touch pays the cheap prefetch_validate cost instead of displacing
        # TLB entries now.
        return True

    # -- release (Section 3.1.2) ----------------------------------------------
    def request_release(self, aspace: AddressSpace, vpns: List[int]) -> int:
        """PM-side half of a release request: clear the in-memory bits and
        hand the work to the releaser daemon.  Returns pages accepted.

        Clearing ``sw_valid`` is what lets a re-reference be *detected*: the
        touch takes a cheap revalidation fault that sets the bit again, and
        the releaser skips the page.
        """
        flags = self._flags
        in_transit = self._in_transit
        pt = aspace.pt
        npt = len(pt)
        shared = aspace.shared_page
        # SharedPage.clear_bit inlined: a discard on the bitmap set.
        discard = shared._bits.discard if shared is not None else None
        accepted: List[int] = []
        for vpn in vpns:
            index = pt[vpn] if vpn < npt else -1
            if index < 0 or in_transit[index] is not None:
                continue
            fl = flags[index]
            if fl & F_RELEASE_PENDING:
                continue
            flags[index] = (fl | F_RELEASE_PENDING) & ~(
                F_SW_VALID | F_REFERENCED
            )
            if discard is not None:
                discard(vpn)
            accepted.append(vpn)
        if accepted and self.releaser is not None:
            self.releaser.enqueue(aspace, accepted)
        self._refresh_shared(aspace)
        if self.obs is not None:
            self.obs.emit(
                "vm.release_request",
                {"aspace": aspace.name, "accepted": len(accepted)},
            )
        return len(accepted)

    def release_inline(self, task: SimTask, aspace: AddressSpace, vpns: List[int]):
        """Process generator: free released pages synchronously in the
        calling task (the ``user-mode`` policy's hint path).

        Unlike :meth:`request_release` there is no daemon hand-off: the
        caller holds its own request, takes the address-space lock in the
        same batch sizes the releaser would, and pays the same per-page free
        cost — user-mode page management in the style of Douglas.  Pages
        touched since the runtime layer filtered the hint are skipped only
        if they are wired or have I/O in flight; there is no
        release-pending window for a re-reference to cancel.  Returns pages
        freed.
        """
        tunables = self.tunables
        batch_size = tunables.releaser_lock_batch_pages
        per_page = tunables.releaser_per_page_free_s
        flags = self._flags
        in_transit = self._in_transit
        pt = aspace.pt
        npt = len(pt)
        stats = self.stats
        stats.releaser_requests += 1
        freed_total = 0
        for start in range(0, len(vpns), batch_size):
            batch = vpns[start : start + batch_size]
            yield from task.lock_acquire(aspace.lock)
            freed = 0
            try:
                for vpn in batch:
                    index = pt[vpn] if vpn < npt else -1
                    if index < 0 or not flags[index] & F_PRESENT:
                        stats.releaser_skipped_absent += 1
                        continue
                    if flags[index] & F_WIRED or in_transit[index] is not None:
                        stats.releaser_skipped_referenced += 1
                        continue
                    self.free_frame(aspace, index, FREED_BY_RELEASE)
                    freed += 1
                if freed:
                    yield from task.system(freed * per_page)
            finally:
                aspace.lock.release()
            stats.releaser_pages_freed += freed
            freed_total += freed
        self._refresh_shared(aspace)
        if self.obs is not None:
            self.obs.emit(
                "vm.release",
                {
                    "aspace": aspace.name,
                    "requested": len(vpns),
                    "freed": freed_total,
                },
            )
        return freed_total

    # -- freeing ------------------------------------------------------------
    def free_frame(self, aspace: AddressSpace, index: int, freed_by: int) -> None:
        """Detach a page and free its frame (writing back first if dirty).

        Called by the daemons with the address-space lock held; the dirty
        writeback itself happens off-lock in a spawned process, and the
        frame only reaches the free list once the write completes.
        """
        flags = self._flags
        aspace.detach(self._vpns[index])
        fl = flags[index] & ~(F_PRESENT | F_SW_VALID)
        flags[index] = fl
        if freed_by == FREED_BY_DAEMON:
            aspace.stats.pages_stolen += 1
        elif freed_by == FREED_BY_RELEASE:
            aspace.stats.pages_released += 1
        if fl & F_DIRTY:
            aspace.stats.writebacks += 1
            if freed_by == FREED_BY_DAEMON:
                self.stats.daemon_writebacks += 1
            else:
                self.stats.releaser_writebacks += 1
            self._writeback_then_free(aspace.asid, index, freed_by)
        else:
            self.freelist.push(index, freed_by)

    def _writeback_then_free(self, asid: int, index: int, freed_by: int) -> None:
        # The vpn column stays valid for the whole writeback: the frame is
        # not on the free list yet, so nothing can reallocate or rescue it.
        vpn = self._vpns[index]

        def run():
            io = self.swap.write_page(asid, vpn)
            try:
                yield io
            except DiskIOError:
                # Every spindle is gone: the copy cannot be persisted.  The
                # page's swap identity is now a lie, so destroy it before
                # recycling the frame — a later fault re-reads (and fails
                # loudly on the application path) instead of silently
                # rescuing data that was never written.
                self.stats.writeback_failures += 1
                self.frame_table.reset_identity(index)
            self._flags[index] &= ~F_DIRTY
            self.freelist.push(index, freed_by)

        self.engine.process(run(), name="writeback")

    # -- reporting ------------------------------------------------------------
    def sample_fragmentation(self):
        """Observe the free list's shape (pure measurement: no events, no
        simulated time, so it can never perturb the golden digests)."""
        sample = measure_fragmentation(self.frame_table, self.frag_extent)
        self.stats.frag.record(sample)
        obs = self.obs
        if obs is not None and obs.wants("policy.frag"):
            obs.emit(
                "policy.frag",
                {
                    "free": sample.free_frames,
                    "runs": sample.free_runs,
                    "largest": sample.largest_free_extent,
                    "unusable_free_index": sample.unusable_free_index,
                },
            )
        return sample

    def finalize_stats(self) -> VmStats:
        """Mirror free-list counters into the VmStats snapshot."""
        self.sample_fragmentation()
        stats = self.stats
        freelist = self.freelist
        stats.freed_by_daemon = freelist.pushes_by_daemon
        stats.freed_by_release = freelist.pushes_by_release
        stats.rescued_from_daemon = freelist.rescues_from_daemon
        stats.rescued_from_release = freelist.rescues_from_release
        return stats
