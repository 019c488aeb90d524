"""Unit tests for the disk, adapter, and striped-swap models."""

import random
from collections import deque

import pytest

from repro.config import DiskParams
from repro.disk.adapter import ScsiAdapter
from repro.disk.device import DiskDevice, DiskRequest
from repro.disk.swap import StripedSwap, SwapStats
from repro.faults import DiskFaultModel, DiskFaultSpec, DiskIOError
from repro.sim.engine import Engine


@pytest.fixture
def params():
    return DiskParams()


def submit(disk, block, is_write=False):
    """Submit arriving now, as a zero-overhead command would."""
    engine = disk.engine
    return disk.submit(block, is_write, engine.now, engine.event())


class TestDiskDevice:
    def test_random_service_time(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        request = submit(disk, 100)
        expected = (
            params.average_seek_s
            + params.rotational_latency_s
            + params.transfer_s_per_page
        )
        assert request.service_time == pytest.approx(expected)

    def test_sequential_discount(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        first = submit(disk, 10)
        second = submit(disk, 11)
        assert second.service_time < first.service_time
        assert disk.sequential_hits == 1

    def test_non_adjacent_pays_full_seek(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        submit(disk, 10)
        request = submit(disk, 500)
        assert request.service_time == pytest.approx(params.page_service_s)

    def test_fifo_queueing(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        first = submit(disk, 0)
        second = submit(disk, 1000)
        assert second.start_time == pytest.approx(first.finish_time)
        assert second.queue_delay > 0

    def test_completion_event_fires_at_finish(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        request = submit(disk, 0)
        engine.run()
        assert engine.now == pytest.approx(request.finish_time)

    def test_read_write_counters(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        submit(disk, 0)
        submit(disk, 5, True)
        assert disk.reads == 1
        assert disk.writes == 1
        assert disk.requests == 2

    def test_utilization_bounded(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        for block in range(5):
            submit(disk, block * 100)
        engine.run()
        assert 0.0 < disk.utilization() <= 1.0

    def test_queue_horizon(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        submit(disk, 0)
        assert disk.queue_horizon > 0.0

    def test_utilization_zero_at_time_zero(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        assert disk.utilization() == 0.0
        # Even with work queued, no simulated time has elapsed yet.
        submit(disk, 0)
        assert disk.utilization() == 0.0

    def test_utilization_saturated_queue_is_capped(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        # Back-to-back queue from t=0: the disk is busy for the whole run,
        # and the cap keeps rounding from pushing utilization past 1.
        for block in range(6):
            submit(disk, block * 100)
        engine.run()
        assert disk.utilization() == pytest.approx(1.0)

    def test_queue_horizon_tracks_backlog_and_drains(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        assert disk.queue_horizon == 0.0
        first = submit(disk, 0)
        assert disk.queue_horizon == pytest.approx(first.service_time)
        second = submit(disk, 1000)
        assert disk.queue_horizon == pytest.approx(
            first.service_time + second.service_time
        )
        engine.run()
        assert disk.queue_horizon == 0.0

    def test_request_requires_completion_event(self):
        # The completion event is a required field: a request that could be
        # awaited before its event exists cannot be constructed at all.
        with pytest.raises(TypeError):
            DiskRequest(block=0, is_write=False, issued_at=0.0)


class TestScsiAdapter:
    def test_rejects_foreign_disk(self, engine, params):
        mine = DiskDevice(engine, params, 0)
        other = DiskDevice(engine, params, 1)
        adapter = ScsiAdapter(engine, params, 0, [mine])

        # Rejected synchronously, before any slot is taken.
        with pytest.raises(ValueError):
            adapter.command(other, 0, False)
        assert adapter.outstanding == 0

    def test_transfer_includes_overhead(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        adapter = ScsiAdapter(engine, params, 0, [disk])

        def proc():
            request = yield adapter.command(disk, 0, False)
            return request

        request = engine.run_process(proc())
        assert engine.now == pytest.approx(
            params.adapter_overhead_s + request.service_time
        )

    def test_queue_depth_limits_concurrency(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        adapter = ScsiAdapter(engine, params, 0, [disk])
        depth_seen = []

        def proc(block):
            yield adapter.command(disk, block, False)

        for block in range(params.adapter_queue_depth + 4):
            engine.process(proc(block * 10))

        def monitor():
            yield engine.timeout(params.adapter_overhead_s / 2)
            depth_seen.append(adapter.outstanding)

        engine.process(monitor())
        engine.run()
        assert depth_seen[0] <= params.adapter_queue_depth
        assert adapter.commands == params.adapter_queue_depth + 4

    def test_owns(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        adapter = ScsiAdapter(engine, params, 0, [disk])
        assert adapter.owns(disk)
        assert not adapter.owns(DiskDevice(engine, params, 1))

    def test_contention_records_queue_wait(self, engine, params):
        disk = DiskDevice(engine, params, 0)
        adapter = ScsiAdapter(engine, params, 0, [disk])

        def proc(block):
            yield adapter.command(disk, block, False)

        for block in range(params.adapter_queue_depth + 3):
            engine.process(proc(block * 50))
        engine.run()
        # The commands beyond the queue depth had to wait for a slot, and
        # every slot was handed back once the backlog drained.
        assert adapter.total_queue_wait > 0.0
        assert adapter.outstanding == 0
        assert adapter.commands == params.adapter_queue_depth + 3

    def test_transient_error_fails_command_after_full_service(self, engine, params):
        faults = DiskFaultModel(DiskFaultSpec(io_error_prob=1.0), seed=0, disk_id=0)
        disk = DiskDevice(engine, params, 0, faults=faults)
        adapter = ScsiAdapter(engine, params, 0, [disk])
        command = adapter.command(disk, 0, False)
        # The slot stays held while the platters spin for nothing.
        assert adapter.outstanding == 1
        engine.run()
        assert not command.ok
        assert isinstance(command.value, DiskIOError)
        assert engine.now == pytest.approx(params.adapter_overhead_s + params.page_service_s)
        assert adapter.errors == 1
        assert adapter.outstanding == 0


class TestStripedSwap:
    def test_topology(self, engine, params):
        swap = StripedSwap(engine, params)
        assert len(swap.disks) == params.disks
        assert len(swap.adapters) == params.adapters

    def test_consecutive_pages_round_robin(self, engine, params):
        swap = StripedSwap(engine, params)
        disks = [swap.placement(pid=1, vpn=v)[0] for v in range(params.disks)]
        assert sorted(disks) == list(range(params.disks))

    def test_stride_within_disk_is_sequential(self, engine, params):
        swap = StripedSwap(engine, params)
        d0, b0 = swap.placement(pid=1, vpn=0)
        d1, b1 = swap.placement(pid=1, vpn=params.disks)
        assert d0 == d1
        assert b1 == b0 + 1

    def test_placement_deterministic(self, engine, params):
        swap = StripedSwap(engine, params)
        assert swap.placement(3, 77) == swap.placement(3, 77)

    def test_read_accounting_by_purpose(self, engine, params):
        swap = StripedSwap(engine, params)

        def proc():
            yield swap.read_page(1, 0, purpose="demand")
            yield swap.read_page(1, 1, purpose="prefetch")
            yield swap.write_page(1, 2)

        engine.run_process(proc())
        assert swap.stats.demand_reads == 1
        assert swap.stats.prefetch_reads == 1
        assert swap.stats.writebacks == 1
        assert swap.total_reads == 2

    def test_unknown_purpose_rejected(self, engine, params):
        swap = StripedSwap(engine, params)

        def proc():
            yield swap.transfer(1, 0, is_write=False, purpose="bogus")

        with pytest.raises(ValueError):
            engine.run_process(proc())

    def test_unknown_purpose_rejected_before_any_io(self, engine, params):
        swap = StripedSwap(engine, params)
        # The purpose is validated synchronously, before any event is
        # scheduled: the caller fails immediately and no disk saw traffic.
        with pytest.raises(ValueError):
            swap.transfer(1, 0, is_write=False, purpose="bogus")
        assert all(disk.requests == 0 for disk in swap.disks)
        engine.run()
        assert engine.now == 0.0

    def test_mean_latency(self, engine, params):
        swap = StripedSwap(engine, params)

        def proc():
            yield swap.read_page(1, 0)

        engine.run_process(proc())
        assert swap.mean_latency("demand") > 0
        assert swap.mean_latency("prefetch") == 0.0

    def test_parallel_reads_overlap(self, engine, params):
        swap = StripedSwap(engine, params)

        def proc():
            # Pages striped across different disks complete concurrently.
            events = [swap.read_page(1, vpn) for vpn in range(params.disks)]
            for event in events:
                yield event

        engine.run_process(proc())
        # Far less than 10 serial service times.
        assert engine.now < 3 * params.page_service_s

    def test_utilization_mean(self, engine, params):
        swap = StripedSwap(engine, params)

        def proc():
            yield swap.read_page(1, 0)

        engine.run_process(proc())
        assert 0.0 <= swap.utilization() <= 1.0


# -- callback path vs. the generator path it replaced -------------------------


class _RefAdapter:
    """Event-granted FIFO command slots, as adapters had before callbacks."""

    def __init__(self, engine, params):
        self.engine = engine
        self.capacity = params.adapter_queue_depth
        self.overhead_s = params.adapter_overhead_s
        self.in_use = 0
        self.waiters = deque()
        self.total_queue_wait = 0.0
        self.commands = 0

    def acquire(self):
        event = self.engine.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed(self)
        else:
            self.waiters.append((event, self.engine.now))
        return event

    def release(self):
        self.in_use -= 1
        if self.waiters:
            event, started = self.waiters.popleft()
            self.total_queue_wait += self.engine.now - started
            self.in_use += 1
            event.succeed(self)


class _RefDisk:
    """The FIFO disk with a submit that reads the clock at command start."""

    def __init__(self, engine, params):
        self.engine = engine
        self.seq_position_s = params.average_seek_s * 0.3 + params.rotational_latency_s * 0.5
        self.rand_position_s = params.average_seek_s + params.rotational_latency_s
        self.transfer_s = params.transfer_s_per_page
        self.busy_until = 0.0
        self.last_block = None
        self.sequential_hits = 0
        self.busy_time = 0.0
        self.total_queue_delay = 0.0

    def submit(self, block):
        now = self.engine.now
        last = self.last_block
        if last is not None and block == last + 1:
            self.sequential_hits += 1
            service = self.seq_position_s + self.transfer_s
        else:
            service = self.rand_position_s + self.transfer_s
        start = max(now, self.busy_until)
        finish = start + service
        self.busy_until = finish
        self.last_block = block
        self.busy_time += service
        self.total_queue_delay += start - now
        return self.engine.event().succeed(finish, delay=finish - now)


class _ReferenceSwap:
    """One generator process per transfer: the pre-callback swap path.

    ``_run_direct`` is copied from ``StripedSwap._run_direct`` as it stood
    before transfers completed by callback: acquire a slot, pay the channel
    overhead as a timeout, submit at the clock, wait, release, book stats.
    """

    def __init__(self, engine, params):
        self.engine = engine
        self.params = params
        self.disks = [_RefDisk(engine, params) for _ in range(params.disks)]
        self.adapters = [_RefAdapter(engine, params) for _ in range(params.adapters)]
        self.stats = SwapStats()

    def transfer(self, pid, vpn, is_write, purpose):
        return self.engine.process(self._run_direct(pid, vpn, is_write, purpose))

    def _run_direct(self, pid, vpn, is_write, purpose):
        n = self.params.disks
        disk_index = (vpn + pid) % n
        disk = self.disks[disk_index]
        adapter = self.adapters[disk_index // self.params.disks_per_adapter]
        engine = self.engine
        started = engine.now
        yield adapter.acquire()
        try:
            adapter.commands += 1
            yield engine.timeout(adapter.overhead_s)
            yield disk.submit(vpn // n)
        finally:
            adapter.release()
        elapsed = engine.now - started
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


def _burst_plans(seed, drivers=3, bursts=6):
    """Seeded bursts of random (pid, vpn, purpose) transfers per driver.

    Each burst is larger than all five adapters' queue depth combined, so
    slots queue.  A burst starts after a gap (zero, sub-service or longer)
    or at the completion instant of an earlier transfer, so acquires land
    at the same instants as releases.  Half the vpns continue a per-pid
    stream, which makes sequential spindle hits.
    """
    rng = random.Random(seed)
    plans = []
    for _ in range(drivers):
        plan = []
        next_vpn = {}
        for _ in range(bursts):
            start = rng.choice(
                [("gap", 0.0), ("gap", rng.uniform(0, 0.004)),
                 ("gap", rng.uniform(0, 0.04)), ("after", rng.random())]
            )
            burst = []
            for _ in range(rng.randint(45, 70)):
                pid = rng.randint(1, 4)
                if pid in next_vpn and rng.random() < 0.5:
                    vpn = next_vpn[pid]
                else:
                    vpn = rng.randrange(4000)
                next_vpn[pid] = vpn + 1
                burst.append((pid, vpn, rng.choice(("demand", "prefetch", "writeback"))))
            plan.append((start, burst))
        plans.append(plan)
    return plans


def _drive_bursts(swap, engine, plans):
    """Issue every plan; returns the (transfer id, completion time) log."""
    log = []
    issued = []

    def driver(plan):
        for (how, arg), burst in plan:
            if how == "gap":
                yield engine.timeout(arg)
            elif issued:
                yield issued[int(arg * len(issued))]
            for pid, vpn, purpose in burst:
                tid = len(issued)
                event = swap.transfer(pid, vpn, purpose == "writeback", purpose)
                event.add_callback(lambda _event, tid=tid: log.append((tid, engine.now)))
                issued.append(event)

    for plan in plans:
        engine.process(driver(plan))
    engine.run()
    assert len(log) == len(issued)
    return log


class TestCallbackPathMatchesGenerator:
    """The callback command path reproduces the per-transfer process path."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bursts_match_generator_reference(self, params, seed):
        plans = _burst_plans(seed)
        engine, ref_engine = Engine(), Engine()
        swap = StripedSwap(engine, params)
        ref = _ReferenceSwap(ref_engine, params)
        log = _drive_bursts(swap, engine, plans)
        ref_log = _drive_bursts(ref, ref_engine, plans)

        assert len(log) >= 500
        # Completion order and every completion time, bit for bit.
        assert log == ref_log
        assert engine.now == ref_engine.now
        assert swap.stats == ref.stats
        for disk, ref_disk in zip(swap.disks, ref.disks):
            assert disk.busy_time == ref_disk.busy_time
            assert disk.total_queue_delay == ref_disk.total_queue_delay
            assert disk.sequential_hits == ref_disk.sequential_hits
        for adapter, ref_adapter in zip(swap.adapters, ref.adapters):
            assert adapter.total_queue_wait == ref_adapter.total_queue_wait
            assert adapter.commands == ref_adapter.commands
            assert adapter.outstanding == 0
        # The plan really exercised queueing and sequential hits.
        assert all(adapter.total_queue_wait > 0 for adapter in swap.adapters)
        assert sum(disk.sequential_hits for disk in swap.disks) > 0

    def test_one_calendar_event_and_one_lane_hop_per_transfer(self, params):
        engine = Engine()
        swap = StripedSwap(engine, params)
        events = [swap.read_page(1, vpn) for vpn in range(params.disks)]
        engine.run()
        assert all(event.processed for event in events)
        # Per transfer: the disk completion, then the caller's lane hop.
        assert engine.steps == 2 * params.disks
