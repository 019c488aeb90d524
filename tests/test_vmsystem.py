"""Unit tests for the VM core: fault paths, allocation, prefetch, release."""

import pytest

from repro.vm.frames import FREED_BY_DAEMON, FREED_BY_RELEASE
from repro.vm.system import FaultKind

from tests.helpers import drive


def touch(kernel, proc, vpn, write=False):
    """Run a single touch (fast or slow path) to completion."""
    fault = proc.touch(vpn, write)
    if fault is None:
        return None
    process = kernel.engine.process(fault)
    return drive(kernel.engine, process)


@pytest.fixture
def proc(kernel):
    process = kernel.create_process("app")
    process.aspace.map_segment("a", 200)
    kernel.attach_paging_directed(process)
    return process


class TestTouchFastPath:
    def test_first_touch_is_a_fault(self, kernel, proc):
        assert proc.touch(0) is not None

    def test_resident_touch_is_a_hit(self, kernel, proc):
        touch(kernel, proc, 0)
        assert proc.touch(0) is None

    def test_hit_sets_referenced_and_dirty(self, kernel, proc):
        touch(kernel, proc, 0)
        frame = proc.aspace.frame_for(0)
        frame.referenced = False
        assert proc.touch(0, write=True) is None
        assert frame.referenced
        assert frame.dirty

    def test_hit_accumulates_user_time(self, kernel, proc, scale):
        touch(kernel, proc, 0)
        before = proc.pending_user
        proc.touch(0)
        assert proc.pending_user == pytest.approx(
            before + scale.machine.resident_touch_s
        )


class TestHardFault:
    def test_hard_fault_reads_from_swap(self, kernel, proc):
        kind = touch(kernel, proc, 0)
        assert kind == FaultKind.HARD
        assert kernel.swap.stats.demand_reads == 1
        assert proc.aspace.stats.hard_faults == 1

    def test_hard_fault_charges_io_stall(self, kernel, proc):
        touch(kernel, proc, 0)
        assert proc.task.buckets.stall_io > 0
        assert proc.task.buckets.system > 0

    def test_write_fault_marks_dirty(self, kernel, proc):
        touch(kernel, proc, 0, write=True)
        assert proc.aspace.frame_for(0).dirty

    def test_allocation_counted(self, kernel, proc):
        touch(kernel, proc, 0)
        assert kernel.vm.stats.total_allocations == 1
        assert proc.aspace.stats.allocations == 1

    def test_shared_page_bit_set(self, kernel, proc):
        touch(kernel, proc, 0)
        assert proc.aspace.shared_page.bit(0)


class TestSoftFault:
    def test_daemon_invalidation_causes_soft_fault(self, kernel, proc):
        touch(kernel, proc, 0)
        frame = proc.aspace.frame_for(0)
        # Simulate the daemon's lead hand.
        frame.sw_valid = False
        frame.invalidated = True
        frame.referenced = False
        kind = touch(kernel, proc, 0)
        assert kind == FaultKind.SOFT
        assert proc.aspace.stats.soft_faults == 1
        assert frame.sw_valid

    def test_soft_fault_does_no_io(self, kernel, proc):
        touch(kernel, proc, 0)
        frame = proc.aspace.frame_for(0)
        frame.sw_valid = False
        frame.invalidated = True
        reads_before = kernel.swap.stats.demand_reads
        touch(kernel, proc, 0)
        assert kernel.swap.stats.demand_reads == reads_before


class TestPrefetch:
    def run_prefetch(self, kernel, proc, vpn):
        from repro.sim.task import SimTask

        task = SimTask(kernel.engine, "pf")
        process = kernel.engine.process(
            kernel.vm.prefetch_page(task, proc.aspace, vpn)
        )
        return drive(kernel.engine, process)

    def test_prefetch_brings_page_unvalidated(self, kernel, proc):
        assert self.run_prefetch(kernel, proc, 0) is True
        frame = proc.aspace.frame_for(0)
        assert frame.present
        assert not frame.sw_valid  # "not fully validated, no TLB entry"
        assert frame.from_prefetch

    def test_first_touch_after_prefetch_is_cheap_validate(self, kernel, proc):
        self.run_prefetch(kernel, proc, 0)
        kind = touch(kernel, proc, 0)
        assert kind == FaultKind.PREFETCH_VALIDATE
        assert proc.aspace.stats.prefetch_validates == 1
        assert proc.aspace.stats.hard_faults == 0

    def test_duplicate_prefetch_skipped(self, kernel, proc):
        self.run_prefetch(kernel, proc, 0)
        assert self.run_prefetch(kernel, proc, 0) is False
        assert proc.aspace.stats.prefetches_duplicate == 1

    def test_prefetch_discarded_when_no_free_memory(self, kernel, proc, scale):
        # Exhaust the free list.
        while kernel.vm.freelist.pop() is not None:
            pass
        assert self.run_prefetch(kernel, proc, 0) is False
        assert proc.aspace.stats.prefetches_discarded == 1
        assert not proc.aspace.is_present(0)

    def test_demand_fault_waits_for_inflight_prefetch(self, kernel, proc):
        from repro.sim.task import SimTask

        engine = kernel.engine
        task = SimTask(engine, "pf")
        engine.process(kernel.vm.prefetch_page(task, proc.aspace, 0))

        def app():
            # Give the prefetch a head start, then touch mid-flight.
            yield engine.timeout(1e-6)
            fault = proc.touch(0)
            kind = yield from fault
            return kind

        process = engine.process(app())
        kind = drive(engine, process)
        assert kind == FaultKind.PREFETCH_VALIDATE
        # Only one read happened.
        assert kernel.swap.total_reads == 1

    def test_untouched_prefetch_dispatches_no_inflight_marker(self, scale):
        from repro.kernel import Kernel
        from repro.sim.engine import Engine
        from repro.sim.task import SimTask

        def lone_prefetch(waiter):
            engine = Engine()
            kernel = Kernel.boot(engine, scale)
            app = kernel.create_process("app")
            app.aspace.map_segment("a", 200)
            kernel.attach_paging_directed(app)
            prefetch = engine.process(
                kernel.vm.prefetch_page(SimTask(engine, "pf"), app.aspace, 0)
            )
            while not app.aspace.is_present(0):
                engine.step()
            marker = kernel.vm.frame_table.in_transit[app.aspace.pt[0]]
            if waiter:
                marker.add_callback(lambda _event: None)
            while not prefetch.processed:
                engine.step()
            return engine.steps, marker

        steps, marker = lone_prefetch(waiter=False)
        waited_steps, waited_marker = lone_prefetch(waiter=True)
        # Nobody waited: the marker was never scheduled, so never dispatched.
        assert not marker.triggered
        assert waited_marker.processed
        assert waited_steps == steps + 1

    def test_fault_on_inflight_prefetch_resumes_at_its_completion(
        self, kernel, proc, scale
    ):
        from repro.sim.task import SimTask

        engine = kernel.engine
        prefetch = engine.process(
            kernel.vm.prefetch_page(SimTask(engine, "pf"), proc.aspace, 0)
        )
        prefetched_at = []
        prefetch.add_callback(lambda _event: prefetched_at.append(engine.now))
        outcome = {}

        def app():
            yield engine.timeout(1e-6)
            touched_at = engine.now
            kind = yield from proc.touch(0)
            outcome.update(kind=kind, touched_at=touched_at, returned_at=engine.now)

        drive(engine, engine.process(app()))
        done_at = prefetched_at[0]
        assert outcome["kind"] == FaultKind.PREFETCH_VALIDATE
        # The wait ends at the instant the prefetch's read completes ...
        assert proc.task.buckets.stall_io == pytest.approx(
            done_at - outcome["touched_at"], rel=1e-12
        )
        # ... and the cheap validate runs from there.
        assert outcome["returned_at"] == pytest.approx(
            done_at + scale.machine.prefetch_validate_s, rel=1e-12
        )
        assert kernel.swap.total_reads == 1

    def test_prefetch_rescues_from_free_list(self, kernel, proc):
        touch(kernel, proc, 0)
        frame = proc.aspace.frame_for(0)
        kernel.vm.free_frame(proc.aspace, frame.index, FREED_BY_RELEASE)
        reads_before = kernel.swap.total_reads
        assert self.run_prefetch(kernel, proc, 0) is True
        assert kernel.swap.total_reads == reads_before  # no I/O
        assert proc.aspace.stats.rescues == 1


class TestRescue:
    def test_fault_rescues_freed_page(self, kernel, proc):
        touch(kernel, proc, 0)
        frame = proc.aspace.frame_for(0)
        kernel.vm.free_frame(proc.aspace, frame.index, FREED_BY_DAEMON)
        kind = touch(kernel, proc, 0)
        assert kind == FaultKind.RESCUE
        assert proc.aspace.stats.rescues == 1
        assert kernel.vm.freelist.rescues_from_daemon == 1

    def test_reallocated_page_hard_faults(self, kernel, proc, scale):
        touch(kernel, proc, 0)
        frame = proc.aspace.frame_for(0)
        kernel.vm.free_frame(proc.aspace, frame.index, FREED_BY_RELEASE)
        # Cycle the entire free list so the identity is destroyed, then
        # return the frames so memory is not leaked.
        popped = []
        while True:
            candidate = kernel.vm.freelist.pop()
            if candidate is None:
                break
            popped.append(candidate)
        for candidate in popped:
            kernel.vm.freelist.push(candidate, FREED_BY_RELEASE)
        kind = touch(kernel, proc, 0)
        assert kind == FaultKind.HARD


class TestRelease:
    def test_request_release_clears_validity_and_bit(self, kernel, proc):
        touch(kernel, proc, 0)
        accepted = kernel.vm.request_release(proc.aspace, [0])
        assert accepted == 1
        frame = proc.aspace.frame_for(0)
        assert frame.release_pending
        assert not frame.sw_valid
        assert not proc.aspace.shared_page.bit(0)

    def test_release_of_absent_page_ignored(self, kernel, proc):
        assert kernel.vm.request_release(proc.aspace, [0]) == 0

    def test_double_release_request_ignored(self, kernel, proc):
        touch(kernel, proc, 0)
        kernel.vm.request_release(proc.aspace, [0])
        assert kernel.vm.request_release(proc.aspace, [0]) == 0

    def test_touch_cancels_pending_release(self, kernel, proc):
        # Queue a long release ahead of page 0's so the re-reference lands
        # while page 0's request is still waiting in the releaser's queue.
        for vpn in range(10):
            touch(kernel, proc, vpn)
        kernel.vm.request_release(proc.aspace, list(range(1, 10)))
        kernel.vm.request_release(proc.aspace, [0])
        kind = touch(kernel, proc, 0)
        assert kind == FaultKind.RELEASE_REVALIDATE
        frame = proc.aspace.frame_for(0)
        assert not frame.release_pending
        assert proc.aspace.shared_page.bit(0)  # bit set again
        # Let the releaser reach page 0's request: it must skip it.
        kernel.engine.run(until=kernel.engine.now + 1.0)
        assert proc.aspace.is_present(0)
        assert kernel.vm.stats.releaser_skipped_referenced >= 1

    def test_releaser_frees_to_end_of_free_list(self, kernel, proc):
        engine = kernel.engine
        touch(kernel, proc, 0)
        kernel.vm.request_release(proc.aspace, [0])
        engine.run(until=engine.now + 1.0)
        assert not proc.aspace.is_present(0)
        assert kernel.vm.stats.releaser_pages_freed == 1
        assert kernel.vm.freelist.rescuable(proc.aspace, 0)

    def test_release_beating_rereference_is_rescued(self, kernel, proc):
        """If the releaser gets the lock first, the page is freed with its
        identity intact and the re-reference rescues it from the list."""
        engine = kernel.engine
        touch(kernel, proc, 0)
        kernel.vm.request_release(proc.aspace, [0])
        kind = touch(kernel, proc, 0)  # races the releaser at t=now
        assert kind in (FaultKind.RELEASE_REVALIDATE, FaultKind.RESCUE)
        assert proc.aspace.is_present(0)
        # Either way, the data never left memory: no swap read happened.
        assert kernel.swap.stats.demand_reads == 1

    def test_released_dirty_page_written_back(self, kernel, proc):
        engine = kernel.engine
        touch(kernel, proc, 0, write=True)
        kernel.vm.request_release(proc.aspace, [0])
        engine.run(until=engine.now + 1.0)
        assert kernel.swap.stats.writebacks == 1
        assert kernel.vm.stats.releaser_writebacks == 1


class TestAllocationBlocking:
    def test_allocator_blocks_until_daemon_frees(self, kernel, proc):
        engine = kernel.engine
        # Fill all of memory with touched pages.
        for vpn in range(kernel.scale.machine.total_frames):
            if vpn >= 200:
                break
            touch(kernel, proc, vpn)
        while kernel.vm.freelist.pop() is not None:
            pass

        def app():
            fault = proc.touch(199)
            if fault is not None:
                kind = yield from fault
                return kind
            return None

        process = engine.process(app())
        kind = drive(engine, process)
        assert kind == FaultKind.HARD
        assert kernel.vm.stats.low_memory_stalls >= 1
        assert proc.task.buckets.stall_memory > 0


class TestFaultWaitClamp:
    """fault_wait_time must never pick up negative float-rounding dust."""

    def test_adversarial_rounding_is_clamped_to_zero(self, scale):
        # Engineer the exact adversarial case: an uncontended soft fault
        # starting at t=0.3 with a handler cost of 0.6 ends at
        # 0.3 + 0.6 = 0.8999999999999999, so now - started - cost computes
        # to -1.1e-16.  Without the clamp that dust accumulates into the
        # reported lock-queueing time.
        from dataclasses import replace

        from repro.kernel import Kernel
        from repro.sim.engine import Engine

        assert (0.3 + 0.6) - 0.3 - 0.6 < 0  # the premise of this test
        adversarial = replace(
            scale, machine=replace(scale.machine, soft_fault_cpu_s=0.6)
        )
        engine = Engine()
        # No Kernel.boot: the daemons stay parked, so nothing else touches
        # the clock or the address-space lock during the fault.
        kernel = Kernel(engine, adversarial)
        proc = kernel.create_process("app")
        proc.aspace.map_segment("a", 8)
        touch(kernel, proc, 0)
        frame = proc.aspace.frame_for(0)
        frame.sw_valid = False
        frame.invalidated = True
        proc.pending_user = 0.0

        def app():
            yield engine.timeout(0.3 - engine.now)
            kind = yield from kernel.vm.fault(proc.task, proc.aspace, 0, False)
            return kind

        kind = drive(engine, engine.process(app()))
        assert kind == FaultKind.SOFT
        assert proc.aspace.stats.fault_wait_time == 0.0

    def test_fault_wait_time_is_never_negative(self, kernel, proc):
        for vpn in range(50):
            touch(kernel, proc, vpn)
        for vpn in range(50):
            frame = proc.aspace.frame_for(vpn)
            if frame is not None:
                frame.sw_valid = False
                frame.invalidated = True
        for vpn in range(50):
            touch(kernel, proc, vpn)
        assert proc.aspace.stats.fault_wait_time >= 0.0
