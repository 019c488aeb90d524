"""The warm execution pool: wire fidelity, reuse hygiene, crash containment.

Byte-identity is the bar throughout: anything the pool touches — codec,
worker reuse, deadlines, crash requeues — must leave results
indistinguishable from the inline path.
"""

import signal
import time

import pytest

from repro.digest import serialize_result
from repro.experiments import wire
from repro.experiments.pool import (
    PoolChaos,
    WarmPool,
)
from repro.experiments.runner import (
    ExperimentFailure,
    _SpecTimeout,
    call_with_deadline,
    run_specs,
    spec_key,
)
from repro.experiments.sweep import (
    SweepOptions,
    SyntheticResult,
    SyntheticSpec,
    run_sweep,
    synthetic_specs,
)
from repro.machine import ExperimentSpec


def _spec(scale, version="R"):
    return ExperimentSpec.multiprogram(scale, "MATVEC", version)


@pytest.fixture
def warm_pool():
    """A private single-worker pool (deterministic worker assignment)."""
    pool = WarmPool(1)
    try:
        yield pool
    finally:
        pool.shutdown()


# -- the wire codec ----------------------------------------------------------


class TestWire:
    def test_spec_round_trip_is_lossless(self, scale):
        spec = _spec(scale)
        back = wire.decode(wire.encode(spec))
        assert back == spec
        assert repr(back) == repr(spec)
        assert spec_key(back) == spec_key(spec)

    def test_result_round_trip_serializes_identically(self, scale):
        result = run_specs([_spec(scale)])[0]
        back = wire.decode(wire.encode(result))
        assert serialize_result(back) == serialize_result(result)

    def test_container_fidelity(self):
        value = {
            "tuple": (1, 2.5, None, "x"),
            "nested": [True, (0.1, (2,))],
            "empty": (),
        }
        back = wire.decode(wire.encode(value))
        assert back == value
        assert isinstance(back["tuple"], tuple)
        assert isinstance(back["nested"][1], tuple)
        assert isinstance(back["tuple"][1], float)

    def test_marker_key_collision_is_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode({"!": "sneaky"})

    def test_non_string_keys_are_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode({1: "a"})

    def test_unknown_types_are_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode(object())


# -- determinism on reused workers -------------------------------------------


class TestWarmReuse:
    def test_same_spec_twice_on_same_worker_is_byte_identical(
        self, scale, warm_pool
    ):
        spec = _spec(scale)
        first = warm_pool.run_one(spec)
        second = warm_pool.run_one(spec)
        assert serialize_result(first) == serialize_result(second)
        telemetry = warm_pool.telemetry()
        assert telemetry["workers_spawned"] == 1
        assert telemetry["warm_dispatches"] >= 1
        # The second run reuses the worker's workload template.
        assert telemetry["snapshot_hits"] >= 1

    def test_mixed_grid_matches_inline(self, scale, warm_pool):
        specs = [_spec(scale, v) for v in "RB"]
        inline = [serialize_result(r) for r in run_specs(specs, jobs=1)]
        pooled = [serialize_result(r) for r in warm_pool.run(specs)]
        assert pooled == inline

    def test_pool_on_off_grids_are_byte_identical(self, scale):
        """``run_specs`` with ``jobs > 1`` dispatches to the shared warm
        pool; ``jobs=1`` is the serial reference.  The grids must match."""
        specs = [_spec(scale, v) for v in "OR"]
        serial = [serialize_result(r) for r in run_specs(specs, jobs=1)]
        pooled = [serialize_result(r) for r in run_specs(specs, jobs=2)]
        assert pooled == serial

    def test_pooled_sweep_matches_inline_digest(self, tmp_path):
        specs = synthetic_specs(60, fail_every=13)
        inline = run_sweep(
            specs, tmp_path / "inline", options=SweepOptions(fsync_journal=False)
        )
        sharded = run_sweep(
            specs,
            tmp_path / "sharded",
            options=SweepOptions(jobs=2, fsync_journal=False),
        )
        assert sharded.digest == inline.digest
        assert sharded.counts() == inline.counts()


# -- dispatch ----------------------------------------------------------------


class TestDispatch:
    def test_a_slow_spec_holds_back_at_most_one_other(self):
        """One spec per frame and two outstanding per worker: the worker
        that draws the slow spec runs at most the spec buffered behind it,
        while the other worker takes the rest of the queue."""
        specs = [SyntheticSpec(index=0, sleep_s=0.5)]
        specs += [SyntheticSpec(index=i) for i in range(1, 9)]
        ran_on = {}

        def record(index, outcome, attempt, worker, elapsed_s, requeued=False):
            ran_on[index] = worker
            return False

        pool = WarmPool(2)
        try:
            outcomes = pool.run(specs, on_outcome=record)
            assert all(isinstance(o, SyntheticResult) for o in outcomes)
            behind_slow = [
                index for index, worker in ran_on.items()
                if worker == ran_on[0] and index != 0
            ]
            assert len(behind_slow) <= 1
            telemetry = pool.telemetry()
            assert telemetry["dispatches"] == telemetry["specs_dispatched"] == len(specs)
        finally:
            pool.shutdown()


# -- deadlines on persistent workers -----------------------------------------


class TestDeadlineReuse:
    def test_timeout_then_success_on_the_same_worker(self, warm_pool):
        slow = SyntheticSpec(index=0, sleep_s=30.0)
        failure = warm_pool.run_one(slow, timeout_s=0.1)
        assert isinstance(failure, ExperimentFailure)
        assert failure.kind == "timeout"
        # The same worker (workers=1) must be clean for the next spec: no
        # armed itimer, no leaked handler.
        ok = warm_pool.run_one(SyntheticSpec(index=1))
        assert isinstance(ok, SyntheticResult)
        assert warm_pool.telemetry()["workers_spawned"] == 1

    def test_call_with_deadline_restores_handler_after_timeout(self):
        def handler(signum, frame):  # pragma: no cover - must never fire
            raise AssertionError("sentinel SIGALRM handler invoked")

        previous = signal.signal(signal.SIGALRM, handler)
        try:
            with pytest.raises(_SpecTimeout):
                call_with_deadline(lambda: time.sleep(30), 0.05)
            assert signal.getsignal(signal.SIGALRM) is handler
            assert signal.setitimer(signal.ITIMER_REAL, 0.0) == (0.0, 0.0)
            # And again: the restore path must be reusable, not one-shot.
            assert call_with_deadline(lambda: 42, 5.0) == 42
            assert signal.getsignal(signal.SIGALRM) is handler
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


# -- crash containment -------------------------------------------------------


class TestCrashContainment:
    def test_flaky_crash_requeues_and_converges(self):
        specs = [SyntheticSpec(index=i) for i in range(6)]
        chaos = PoolChaos(crash_keys=(spec_key(specs[2]),), max_attempt=1)
        pool = WarmPool(2, chaos=chaos)
        try:
            outcomes = pool.run(specs)
            assert all(isinstance(o, SyntheticResult) for o in outcomes)
            assert [o.index for o in outcomes] == list(range(6))
            assert pool.telemetry()["crashes"] >= 1
        finally:
            pool.shutdown()

    def test_poison_spec_fails_alone_batchmates_survive(self):
        specs = [SyntheticSpec(index=i) for i in range(6)]
        chaos = PoolChaos(crash_keys=(spec_key(specs[2]),))  # crashes forever
        pool = WarmPool(2, chaos=chaos)
        try:
            outcomes = pool.run(specs)
            poisoned = outcomes[2]
            assert isinstance(poisoned, ExperimentFailure)
            assert poisoned.kind == "crash"
            rest = outcomes[:2] + outcomes[3:]
            assert all(isinstance(o, SyntheticResult) for o in rest)
        finally:
            pool.shutdown()

    def test_crashed_results_never_rerun_finished_items(self):
        # Crash on the last spec one worker runs: the first two results
        # are already home and must not be re-executed.
        specs = [SyntheticSpec(index=i) for i in range(3)]
        chaos = PoolChaos(crash_keys=(spec_key(specs[2]),), max_attempt=1)
        pool = WarmPool(1, chaos=chaos)
        try:
            outcomes = pool.run(specs)
            assert all(isinstance(o, SyntheticResult) for o in outcomes)
            telemetry = pool.telemetry()
            # Specs 0 and 1 complete once on the first pass; only the
            # suspect re-runs. A naive requeue would re-execute all 3.
            assert telemetry["specs_done"] == 3
        finally:
            pool.shutdown()

    def test_send_to_dead_worker_blames_nothing(self):
        # A worker that died while idle never received the spec, so the
        # spec requeues unblamed: the flaky spec's first real attempt is
        # attempt 1, its injected crash fires, and the pool counts both
        # losses.  Blaming the unsent spec would skip that attempt.
        a, b = SyntheticSpec(index=0), SyntheticSpec(index=1)
        chaos = PoolChaos(crash_keys=(spec_key(a),), max_attempt=1)
        pool = WarmPool(1, chaos=chaos)
        try:
            pool.run([SyntheticSpec(index=2)])
            idle = pool._idle[0]
            idle.process.kill()
            idle.process.join(timeout=5.0)
            assert not idle.process.is_alive()
            outcomes = pool.run([a, b])
            assert all(isinstance(o, SyntheticResult) for o in outcomes)
            assert pool.telemetry()["crashes"] == 2
        finally:
            pool.shutdown()


class TestWatchdog:
    def test_slow_on_outcome_does_not_hang_a_busy_worker(self):
        """While ``on_outcome`` holds the dispatcher past the hang timeout,
        the other worker runs a long spec and its heartbeats wait unread
        in its pipe: it is alive and must not be killed as hung."""
        # Two specs per worker: the first worker gets the slow spec, the
        # second lands spec 2 at once and so calls back first.
        specs = [
            SyntheticSpec(index=0, sleep_s=1.5),
            SyntheticSpec(index=1),
            SyntheticSpec(index=2),
            SyntheticSpec(index=3),
        ]
        heard = []

        def slow_callback(index, outcome, attempt, worker, elapsed_s, requeued=False):
            if not heard:
                time.sleep(1.0)  # well past the 0.4 s hang timeout
            heard.append((index, requeued))
            return False

        pool = WarmPool(2, hang_timeout_s=0.4)
        try:
            outcomes = pool.run(specs, on_outcome=slow_callback)
            assert all(isinstance(o, SyntheticResult) for o in outcomes)
            assert heard[0] == (2, False)
            assert sorted(heard) == [(i, False) for i in range(4)]
            assert pool.telemetry()["crashes"] == 0
        finally:
            pool.shutdown()


def test_worker_dies_on_sigterm_despite_inherited_handler():
    """``repro serve`` installs a SIGTERM handler that only sets an event.
    A forked worker inheriting it would shrug off ``terminate()`` and wedge
    the parent's exit-time join — workers must reset to SIG_DFL."""
    previous = signal.signal(signal.SIGTERM, lambda *_args: None)
    try:
        pool = WarmPool(1)
        try:
            # Running a spec proves the worker reached its loop (and so has
            # already restored the default disposition).
            pool.run([SyntheticSpec(index=0)])
            worker = pool._idle[0]
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            assert not worker.process.is_alive()
        finally:
            pool.shutdown()
    finally:
        signal.signal(signal.SIGTERM, previous)


# -- sizing edges -----------------------------------------------------------


def test_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        WarmPool(0)


def test_empty_run_is_a_noop(warm_pool):
    assert warm_pool.run([]) == []
    assert warm_pool.telemetry()["dispatches"] == 0
