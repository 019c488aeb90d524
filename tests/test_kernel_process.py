"""Tests for KernelProcess time batching, run-length touches, config
presets, and the interactive task."""

import dataclasses
import math
import random
from unittest import mock

import pytest

from repro.config import _OVERRIDES, ScaleError, SimScale, paper, small, tiny
from repro.faults import FaultPlan
from repro.kernel import Kernel
from repro.machine import ExperimentSpec, run_experiment
from repro.sim.engine import Engine
from repro.sim.task import SimTask
from repro.vm.frames import (
    F_INVALIDATED,
    F_PRESENT,
    F_REFERENCED,
    F_SW_VALID,
    F_WIRED,
    FREED_BY_DAEMON,
)
from repro.workloads.interactive import InteractiveTask

from tests.helpers import drive


class TestConfigPresets:
    def test_paper_matches_the_papers_platform(self):
        scale = paper()
        assert scale.machine.total_frames == 4800  # 75 MB of 16 KB pages
        assert scale.disk.disks == 10
        assert scale.disk.adapters == 5
        assert scale.machine.cpus == 4
        assert scale.interactive_pages == 65  # Figure 10(c)'s maximum
        assert scale.out_of_core_pages == 25600  # 400 MB

    def test_scaled_presets_preserve_ratios(self):
        for preset in (small(), tiny()):
            base = paper()
            ratio = base.machine.total_frames / preset.machine.total_frames
            data_ratio = base.out_of_core_pages / preset.out_of_core_pages
            assert data_ratio == pytest.approx(ratio, rel=0.05)

    def test_describe_keys(self):
        info = paper().describe()
        assert info["swap_disks"] == 10
        assert info["user_memory_mb"] == 75
        assert info["page_size_kb"] == 16

    def test_with_overrides(self):
        scale = tiny().with_overrides(rng_seed=7)
        assert scale.rng_seed == 7
        assert scale.machine.total_frames == tiny().machine.total_frames

    def test_sleep_sweeps_scale_down(self):
        assert max(tiny().figure_sleep_times_s) < max(paper().figure_sleep_times_s)

    def test_every_field_has_an_override_check(self):
        assert set(_OVERRIDES) == {f.name for f in dataclasses.fields(SimScale)}

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("max_engine_steps", math.nan),
            ("max_engine_steps", 0),
            ("time_quantum_s", "abc"),
            ("time_quantum_s", -1),
            ("time_quantum_s", math.inf),
            ("rng_seed", True),
            ("rng_seed", 1.5),
            ("out_of_core_bytes", -16384),
            ("interactive_bytes", 2.5),
            ("intermediate_sleep_s", math.nan),
            ("figure_sleep_times_s", [0.0, -1.0]),
            ("figure_sleep_times_s", 1.0),
            ("machine", {"cpus": 2}),
            ("name", 3),
            ("no_such_knob", 1),
        ],
    )
    def test_bad_overrides_name_their_knob(self, knob, value):
        with pytest.raises(ScaleError) as excinfo:
            tiny().with_overrides(**{knob: value})
        assert excinfo.value.knob == knob

    def test_valid_overrides_are_kept_as_given(self):
        scale = tiny().with_overrides(
            time_quantum_s=1,
            intermediate_sleep_s=0,
            figure_sleep_times_s=[0.0, 0.5],
            runtime=dataclasses.replace(tiny().runtime, prefetch_threads=2),
        )
        assert repr(scale.time_quantum_s) == "1"  # no coercion: spec keys hold
        assert scale.intermediate_sleep_s == 0
        assert scale.figure_sleep_times_s == (0.0, 0.5)  # hashable, like the default
        assert hash(scale) == hash(dataclasses.replace(scale))


class TestKernelProcess:
    def test_charge_and_flush(self, kernel):
        proc = kernel.create_process("p")
        proc.charge(0.5)
        assert proc.pending_user == 0.5

        def run():
            yield from proc.flush()

        drive(kernel.engine, kernel.engine.process(run()))
        assert proc.pending_user == 0.0
        assert proc.task.buckets.user == pytest.approx(0.5)

    def test_flush_if_due_respects_quantum(self, kernel, scale):
        proc = kernel.create_process("p")
        proc.charge(scale.time_quantum_s / 2)

        def run():
            yield from proc.flush_if_due()
            below_quantum = proc.pending_user
            proc.charge(scale.time_quantum_s)
            yield from proc.flush_if_due()
            return below_quantum

        below = drive(kernel.engine, kernel.engine.process(run()))
        assert below > 0  # not flushed below the quantum
        assert proc.pending_user == 0.0

    def test_fault_flushes_pending_time_first(self, kernel):
        proc = kernel.create_process("p")
        proc.aspace.map_segment("a", 10)
        proc.charge(1.0)
        fault = proc.touch(0)
        assert fault is not None

        drive(kernel.engine, kernel.engine.process(fault))
        assert proc.pending_user == 0.0
        assert proc.task.buckets.user == pytest.approx(1.0)

    def test_touch_now_helper(self, kernel):
        proc = kernel.create_process("p")
        proc.aspace.map_segment("a", 10)

        def run():
            kind = yield from proc.touch_now(0)
            again = yield from proc.touch_now(0)
            return kind, again

        kind, again = drive(kernel.engine, kernel.engine.process(run()))
        assert kind == "hard"
        assert again is None

    def test_boot_starts_daemons_once(self, engine, scale):
        kernel = Kernel.boot(engine, scale)
        kernel.start()  # idempotent
        assert kernel.paging_daemon._process is not None
        assert kernel.releaser._process is not None


def _per_page_reference(proc, crossings, start, count, write, secs_per_page):
    """The unbatched stream a ``('T', ...)`` op stands for, page by page:
    charge, flush-if-due, touch (the fault path on a miss), flush-if-due
    after a hit.  ``crossings`` counts the flushes at each checkpoint."""
    quantum = proc._quantum
    for vpn in range(start, start + count):
        proc.charge(secs_per_page)
        crossings["pre_touch"] += proc.pending_user >= quantum
        yield from proc.flush_if_due()
        fault = proc.touch(vpn, write)
        if fault is not None:
            yield from fault
        else:
            crossings["post_touch"] += proc.pending_user >= quantum
            yield from proc.flush_if_due()


def _run_touch_world(seed, batched):
    """One seeded world: some pages faulted in beforehand (a few of them
    invalidated the way the paging daemon's reference-bit scan does), the
    rest unmapped, a concurrent thief stealing resident pages while the
    runs execute, and per-page compute costs that reach the quantum at
    both the pre-touch and the post-touch checkpoint.  Returns the
    observable end state, the reference's crossing counts, and the
    address space's fault statistics."""
    rng = random.Random(seed)
    scale = tiny()
    quantum = scale.time_quantum_s
    r = scale.machine.resident_touch_s
    engine = Engine()
    kernel = Kernel.boot(engine, scale)
    vm = kernel.vm
    flags = vm.frame_table.flags
    proc = kernel.create_process("victim")
    aspace = proc.aspace
    npages = rng.randrange(24, 80)
    base = aspace.map_segment("a", npages).start
    # Every random draw happens here, before either driver runs.
    resident = [
        (base + i, rng.random() < 0.5) for i in range(npages) if rng.random() < 0.6
    ]
    invalidated = [vpn for vpn, _ in resident if rng.random() < 0.2]
    pre_pending = rng.random() * quantum
    # After a flush, a charge of one quantum lands exactly *on* the
    # pre-touch checkpoint and one of quantum - r exactly on the post-touch
    # one (so ``>=`` vs ``>`` matters); (quantum - 1.5 r) / 2 crosses the
    # post-touch checkpoint of every second page.
    costs = (
        1e-5, 3e-3, 7e-3, (quantum - 1.5 * r) / 2, quantum - r, quantum, 1.05 * quantum
    )
    runs = []
    for _ in range(rng.randrange(2, 5)):
        start = base + rng.randrange(npages)
        count = rng.randrange(0, base + npages - start + 1)
        runs.append((start, count, rng.random() < 0.5, rng.choice(costs)))
    thefts = [(rng.uniform(0.0, 0.1), base + rng.randrange(npages)) for _ in range(6)]
    crossings = {"pre_touch": 0, "post_touch": 0}
    if batched:
        run = proc.run_touches
    else:
        def run(*op):
            return _per_page_reference(proc, crossings, *op)
    outcome = {}

    def thief():
        task = SimTask(engine, "thief")
        for delay, vpn in thefts:
            yield engine.timeout(delay)
            yield from task.lock_acquire(aspace.lock)
            index = aspace.pt[vpn]
            if (
                index >= 0
                and vm._in_transit[index] is None
                and flags[index] & (F_PRESENT | F_WIRED) == F_PRESENT
            ):
                vm.free_frame(aspace, index, FREED_BY_DAEMON)
            aspace.lock.release()

    def main():
        for vpn, write in resident:
            yield from proc.touch_now(vpn, write)
        for vpn in invalidated:
            index = aspace.pt[vpn]
            flags[index] = (flags[index] | F_INVALIDATED) & ~(
                F_SW_VALID | F_REFERENCED
            )
        proc.charge(pre_pending)
        engine.process(thief(), name="thief")
        for op in runs:
            yield from run(*op)
        outcome["pending"] = proc.pending_user
        yield from proc.flush()
        outcome["now"] = engine.now
        outcome["steps"] = engine.steps
        outcome["buckets"] = repr(proc.task.buckets)
        outcome["stats"] = repr(aspace.stats)
        outcome["flags"] = list(flags)
        outcome["pt"] = list(aspace.pt)

    drive(engine, engine.process(main(), name="main"))
    return outcome, crossings, aspace.stats


class TestRunTouches:
    @pytest.mark.parametrize("seed", range(16))
    def test_matches_per_page_reference(self, seed):
        """``run_touches`` is add-for-add the per-page stream it batches:
        same simulated time, dispatch count, user time, fault mix, and
        page state."""
        batched, _, _ = _run_touch_world(seed, batched=True)
        reference, _, _ = _run_touch_world(seed, batched=False)
        assert batched == reference

    def test_worlds_cover_every_branch(self):
        """Guard the generator: across the seeded worlds the runs cross
        the quantum at both checkpoints, and touch pages that are
        unmapped, invalidated, and stolen mid-run."""
        totals = dict.fromkeys(
            ("pre_touch", "post_touch", "hard", "soft", "rescue", "stolen"), 0
        )
        for seed in range(16):
            _, crossings, stats = _run_touch_world(seed, batched=False)
            totals["pre_touch"] += crossings["pre_touch"]
            totals["post_touch"] += crossings["post_touch"]
            totals["hard"] += stats.hard_faults
            totals["soft"] += stats.soft_faults
            totals["rescue"] += stats.rescues
            totals["stolen"] += stats.pages_stolen
        assert all(totals.values()), totals

    def test_run_length_spec_matches_golden(self, monkeypatch):
        """EMBAR O (``grid_tiny`` spec 0) is the committed spec whose live
        driver emits multi-page ('T') runs — hinted versions never batch.
        Its run must go through ``run_touches`` and still hold its golden
        physics digest and dispatch count."""
        from repro.experiments.harness import multiprogram_spec
        from repro.kernel.kernel import KernelProcess
        from repro.machine import run_experiment

        from tests.test_golden_digests import GOLDEN, assert_matches_golden

        run_touches = KernelProcess.run_touches
        run_pages = []

        def spy(process, start, count, write, secs_per_page):
            run_pages.append(count)
            return run_touches(process, start, count, write, secs_per_page)

        monkeypatch.setattr(KernelProcess, "run_touches", spy)
        result = run_experiment(multiprogram_spec(tiny(), "EMBAR", "O"))
        assert any(count > 1 for count in run_pages)
        pin = GOLDEN["cases"]["grid_tiny"][0]
        assert_matches_golden(result, pin, "grid_tiny[0]")


class TestInteractiveTask:
    def test_records_sweeps(self, kernel, scale):
        task = InteractiveTask(kernel, scale, sleep_time_s=0.01)

        def bounded():
            runner = task.run()
            for event in runner:
                yield event
                if len(task.samples) >= 4:
                    task.stop()

        drive(kernel.engine, kernel.engine.process(bounded()))
        assert len(task.samples) >= 4

    def test_first_sweep_pays_cold_faults(self, kernel, scale):
        task = InteractiveTask(kernel, scale, sleep_time_s=0.01)

        def bounded():
            runner = task.run()
            for event in runner:
                yield event
                if len(task.samples) >= 3:
                    task.stop()

        drive(kernel.engine, kernel.engine.process(bounded()))
        assert task.samples[0].hard_faults == scale.interactive_pages
        assert task.samples[1].hard_faults == 0
        assert task.samples[1].response_time < task.samples[0].response_time

    def test_mean_response_skips_warmup(self, kernel, scale):
        task = InteractiveTask(kernel, scale, sleep_time_s=0.01)

        def bounded():
            runner = task.run()
            for event in runner:
                yield event
                if len(task.samples) >= 5:
                    task.stop()

        drive(kernel.engine, kernel.engine.process(bounded()))
        assert task.mean_response() < task.samples[0].response_time
        assert task.mean_hard_faults() == 0.0

    def test_zero_sleep_never_sleeps(self, kernel, scale):
        task = InteractiveTask(kernel, scale, sleep_time_s=0.0)

        def bounded():
            runner = task.run()
            for event in runner:
                yield event
                if len(task.samples) >= 3:
                    task.stop()

        drive(kernel.engine, kernel.engine.process(bounded()))
        # Back-to-back sweeps: gaps equal the response times.
        assert len(task.samples) >= 3


def _per_page_sweeps(self):
    """``InteractiveTask.run`` as a per-page loop: ``process.touch`` per
    page (the fault generator on a miss), ``process.flush()``, then
    ``task.sleep()``.  The inline pass must match it add for add."""
    process = self.process
    stats = process.aspace.stats
    engine = self.kernel.engine
    while not self._stop:
        start = engine._now
        hard0 = stats.hard_faults
        soft0 = stats.soft_faults
        rescues0 = stats.rescues
        for vpn in self.segment:
            fault = process.touch(vpn, write=False)
            if fault is not None:
                yield from fault
        yield from process.flush()
        self.samples.record(
            start,
            engine._now - start,
            stats.hard_faults - hard0,
            stats.soft_faults - soft0,
            stats.rescues - rescues0,
        )
        yield from process.task.sleep(max(self.sleep_time_s, self.MIN_CYCLE_S))


#: Disk latency spikes and transient I/O errors (retried by the kernel)
#: move every fault's completion time.
_DISK_CHAOS = FaultPlan.from_dict(
    {
        "seed": 7,
        "disk": {
            "latency_spike_prob": 0.2,
            "latency_spike_multiplier": 4.0,
            "io_error_prob": 0.02,
        },
    }
)

#: Sleep 0 (back-to-back sweeps), a mid sleep, and one longer than the run.
_SWEEP_SLEEPS = (0.0, tiny().figure_sleep_times_s[3], 100.0)


def _sweep_world(seed, sleep, faulted, reference):
    """A 12-page interactive task beside BUK P, whose memory pressure makes
    the paging daemon steal interactive pages mid-run (they come back as
    hard faults, soft faults and free-list rescues).  Returns the
    observable outcome and the interactive address space's stats."""
    base = tiny()
    scale = base.with_overrides(
        rng_seed=base.rng_seed + seed, interactive_bytes=12 * base.machine.page_size
    )
    spec = ExperimentSpec.multiprogram(scale, "BUK", "P", sleep_time_s=sleep)
    if faulted:
        spec = spec.with_faults(_DISK_CHAOS)
    if reference:
        with mock.patch.object(InteractiveTask, "run", _per_page_sweeps):
            result = run_experiment(spec)
    else:
        result = run_experiment(spec)
    process = result.interactives[0]
    log = process.sweeps
    outcome = {
        "columns": (
            log.start_time, log.response_time, log.hard_faults, log.soft_faults,
            log.rescues,
        ),
        "buckets": repr(process.buckets),
        "stats": repr(process.stats),
        "steps": result.engine_steps,
    }
    return outcome, process.stats


class TestInlineSweep:
    @pytest.mark.parametrize("faulted", [False, True], ids=["no-faults", "disk-chaos"])
    @pytest.mark.parametrize("sleep", _SWEEP_SLEEPS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_page_reference(self, seed, sleep, faulted):
        """The inline pass is the per-page loop, add for add and yield for
        yield: the same five sweep columns, time buckets, fault stats and
        engine step count."""
        inline, _ = _sweep_world(seed, sleep, faulted, reference=False)
        reference, _ = _sweep_world(seed, sleep, faulted, reference=True)
        assert inline == reference

    @pytest.mark.parametrize("faulted", [False, True], ids=["no-faults", "disk-chaos"])
    def test_worlds_cover_stolen_pages(self, faulted):
        """Guard the worlds: at every sleep the daemon steals interactive
        pages, and at sleep 0 and the mid sleep the sweeps take hard faults
        past the cold start, soft faults and rescues."""
        for sleep in _SWEEP_SLEEPS:
            _, stats = _sweep_world(0, sleep, faulted, reference=True)
            assert stats.pages_stolen > 0, sleep
            if sleep < 1.0:
                assert stats.hard_faults > 12, sleep
                assert stats.soft_faults > 0 and stats.rescues > 0, sleep
