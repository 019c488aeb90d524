"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    Engine,
    Interrupt,
    Process,
    SimulationError,
)


class TestEvent:
    def test_starts_pending(self, engine):
        event = engine.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.event().value

    def test_succeed_carries_value(self, engine):
        event = engine.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42
        assert event.ok

    def test_double_succeed_raises(self, engine):
        event = engine.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, engine):
        event = engine.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_fail_carries_exception(self, engine):
        event = engine.event()
        error = ValueError("boom")
        event.fail(error)
        assert not event.ok
        assert event.value is error

    def test_callbacks_run_on_processing(self, engine):
        event = engine.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("x")
        assert seen == []  # not yet processed
        engine.run()
        assert seen == ["x"]

    def test_late_callback_runs_immediately(self, engine):
        event = engine.event()
        event.succeed(1)
        engine.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [1]

    def test_delayed_succeed(self, engine):
        event = engine.event()
        event.succeed(delay=2.5)
        engine.run()
        assert engine.now == 2.5

    def test_trigger_at_fires_at_the_exact_instant(self, engine):
        engine.run(until=0.001)
        when = 0.0151
        # A delay measured from the clock rounds: now + (when - now) != when.
        relative = engine.event().succeed("delay", delay=when - engine.now)
        absolute = engine.event().trigger_at(when, "at")
        seen = []
        for event in (relative, absolute):
            event.add_callback(lambda e: seen.append((e.value, engine.now)))
        engine.run()
        assert seen == [("at", when), ("delay", 0.001 + (when - 0.001))]
        assert seen[1][1] != when

    def test_trigger_at_can_fail(self, engine):
        error = ValueError("boom")
        event = engine.event().trigger_at(1.0, error, ok=False)
        engine.run()
        assert not event.ok
        assert event.value is error

    def test_trigger_at_rejects_past_and_double_triggers(self, engine):
        engine.run(until=1.0)
        with pytest.raises(SimulationError):
            engine.event().trigger_at(0.5)
        event = engine.event().trigger_at(1.0)
        with pytest.raises(SimulationError):
            event.trigger_at(2.0)


class TestTimeout:
    def test_fires_at_delay(self, engine):
        engine.timeout(3.0)
        engine.run()
        assert engine.now == 3.0

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.timeout(-1.0)

    def test_timeout_value(self, engine):
        timeout = engine.timeout(1.0, value="done")
        engine.run()
        assert timeout.value == "done"

    def test_zero_delay_allowed(self, engine):
        engine.timeout(0.0)
        engine.run()
        assert engine.now == 0.0


_SCHEDULERS = {
    "timeout": lambda engine, x: engine.timeout(x),
    "succeed": lambda engine, x: engine.event().succeed(delay=x),
    "fail": lambda engine, x: engine.event().fail(RuntimeError("x"), delay=x),
    "trigger_at": lambda engine, x: engine.event().trigger_at(x),
}


@pytest.mark.parametrize("entry", sorted(_SCHEDULERS))
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_times_are_rejected(engine, entry, bad):
    # A pooled timeout exists, so engine.timeout takes its recycling path.
    engine.timeout(1.0)
    engine.run()
    assert engine._timeout_pool
    with pytest.raises(SimulationError):
        _SCHEDULERS[entry](engine, bad)
    # Nothing reached the queue, and the clock still advances normally.
    assert engine.peek() == float("inf")
    engine.timeout(2.0)
    engine.run()
    assert engine.now == 3.0


class TestClock:
    def test_fifo_order_for_simultaneous_events(self, engine):
        order = []
        for index in range(5):
            engine.timeout(1.0).add_callback(
                lambda _e, i=index: order.append(i)
            )
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_stops_clock_exactly(self, engine):
        engine.timeout(10.0)
        engine.run(until=4.0)
        assert engine.now == 4.0

    def test_run_until_processes_due_events(self, engine):
        seen = []
        engine.timeout(1.0).add_callback(lambda e: seen.append(1))
        engine.timeout(5.0).add_callback(lambda e: seen.append(5))
        engine.run(until=2.0)
        assert seen == [1]

    def test_run_until_past_is_error(self, engine):
        engine.timeout(5.0)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run(until=1.0)

    def test_peek_empty_queue(self, engine):
        assert engine.peek() == float("inf")

    def test_peek_returns_next_time(self, engine):
        engine.timeout(7.0)
        engine.timeout(2.0)
        assert engine.peek() == 2.0

    def test_step_pops_single_event(self, engine):
        engine.timeout(1.0)
        engine.timeout(2.0)
        engine.step()
        assert engine.now == 1.0


class TestProcess:
    def test_process_returns_value(self, engine):
        def proc():
            yield engine.timeout(1.0)
            return "result"

        assert engine.run_process(proc()) == "result"

    def test_process_requires_generator(self, engine):
        with pytest.raises(SimulationError):
            Process(engine, lambda: None)  # type: ignore[arg-type]

    def test_process_accumulates_time(self, engine):
        def proc():
            yield engine.timeout(1.0)
            yield engine.timeout(2.0)

        engine.run_process(proc())
        assert engine.now == 3.0

    def test_yield_non_event_raises(self, engine):
        def proc():
            yield 42

        with pytest.raises(SimulationError):
            engine.run_process(proc())

    def test_processes_can_wait_on_each_other(self, engine):
        def worker():
            yield engine.timeout(5.0)
            return "worked"

        worker_proc = engine.process(worker())

        def waiter():
            value = yield worker_proc
            return value

        assert engine.run_process(waiter()) == "worked"

    def test_exception_propagates_to_waiter(self, engine):
        def failing():
            yield engine.timeout(1.0)
            raise RuntimeError("inner")

        failing_proc = engine.process(failing())

        def waiter():
            with pytest.raises(RuntimeError, match="inner"):
                yield failing_proc
            return "caught"

        assert engine.run_process(waiter()) == "caught"

    def test_unwaited_crash_surfaces(self, engine):
        def failing():
            yield engine.timeout(1.0)
            raise RuntimeError("unhandled")

        engine.process(failing())
        with pytest.raises(RuntimeError, match="unhandled"):
            engine.run()

    def test_deadlock_detected_by_run_process(self, engine):
        def stuck():
            yield engine.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            engine.run_process(stuck())

    def test_is_alive(self, engine):
        def proc():
            yield engine.timeout(1.0)

        p = engine.process(proc())
        assert p.is_alive
        engine.run()
        assert not p.is_alive

    def test_event_value_delivered_to_process(self, engine):
        event = engine.event()

        def proc():
            value = yield event
            return value

        p = engine.process(proc())
        event.succeed("payload")
        engine.run()
        assert p.value == "payload"


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self, engine):
        def sleeper():
            try:
                yield engine.timeout(100.0)
            except Interrupt as interrupt:
                return interrupt.cause

        p = engine.process(sleeper())

        def interrupter():
            yield engine.timeout(1.0)
            p.interrupt("wake up")

        engine.process(interrupter())
        engine.run()
        assert p.value == "wake up"
        assert engine.now <= 100.0

    def test_interrupt_finished_process_raises(self, engine):
        def quick():
            yield engine.timeout(0.1)

        p = engine.process(quick())
        engine.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self, engine):
        def selfish():
            this = engine.active_process
            with pytest.raises(SimulationError):
                this.interrupt()
            yield engine.timeout(0.0)

        engine.run_process(selfish())


class TestConditions:
    def test_any_of_fires_on_first(self, engine):
        fast = engine.timeout(1.0, value="fast")
        slow = engine.timeout(10.0, value="slow")

        def proc():
            result = yield engine.any_of([fast, slow])
            return result

        value = engine.run_process(proc())
        assert fast in value
        assert engine.now >= 1.0

    def test_all_of_waits_for_all(self, engine):
        first = engine.timeout(1.0)
        second = engine.timeout(5.0)

        def proc():
            yield engine.all_of([first, second])
            return engine.now

        # all_of fires at the later timeout
        assert engine.run_process(proc()) == 5.0

    def test_empty_condition_fires_immediately(self, engine):
        def proc():
            value = yield engine.all_of([])
            return value

        assert engine.run_process(proc()) == {}

    def test_any_of_with_already_fired_event(self, engine):
        event = engine.event()
        event.succeed("early")
        engine.run()

        def proc():
            result = yield engine.any_of([event, engine.timeout(50.0)])
            return result

        value = engine.run_process(proc())
        assert event in value

    def test_condition_rejects_cross_engine_events(self, engine):
        other = Engine()
        foreign = other.event()
        with pytest.raises(SimulationError):
            engine.any_of([foreign])


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            engine = Engine()
            trace = []

            def producer(name, period):
                for _ in range(5):
                    yield engine.timeout(period)
                    trace.append((engine.now, name))

            engine.process(producer("a", 1.0))
            engine.process(producer("b", 1.5))
            engine.run()
            return trace

        assert run_once() == run_once()


class TestFastLane:
    """The run-loop optimizations: event pooling and run_until_triggered."""

    def test_plain_timeouts_are_pooled_and_reused(self, engine):
        def proc():
            for _ in range(5):
                yield engine.timeout(1.0)

        engine.process(proc())
        engine.run()
        assert engine._timeout_pool
        pooled = engine._timeout_pool[-1]
        fresh = engine.timeout(2.0)
        assert fresh is pooled
        assert fresh.triggered

    def test_externally_referenced_timeout_is_not_recycled(self, engine):
        held = []

        def proc():
            timeout = engine.timeout(1.0)
            held.append(timeout)
            yield timeout

        engine.process(proc())
        engine.run()
        assert held[0] not in engine._timeout_pool

    def test_valued_timeout_is_not_recycled(self, engine):
        seen = []

        def proc():
            value = yield engine.timeout(1.0, value="payload")
            seen.append(value)

        engine.process(proc())
        engine.run()
        assert seen == ["payload"]
        assert all(t._value is None for t in engine._timeout_pool)

    def test_valued_timeout_never_comes_from_the_pool(self, engine):
        def proc():
            yield engine.timeout(1.0)

        engine.process(proc())
        engine.run()
        assert engine._timeout_pool
        fresh = engine.timeout(1.0, value="payload")
        assert fresh not in engine._timeout_pool
        assert fresh._value == "payload"

    def test_succeeded_events_are_pooled_and_reused(self, engine):
        # The event must not be referenced from this frame, or the
        # refcount guard (correctly) refuses to recycle it.
        def firer(event):
            yield engine.timeout(1.0)
            event.succeed()

        def waiter():
            event = engine.event()
            engine.process(firer(event))
            yield event

        engine.process(waiter())
        engine.run()
        assert engine._event_pool
        pooled = engine._event_pool[-1]
        fresh = engine.event()
        assert fresh is pooled
        assert not fresh.triggered
        assert fresh.callbacks == []

    def test_externally_referenced_event_is_not_recycled(self, engine):
        def firer(event):
            yield engine.timeout(1.0)
            event.succeed()

        def waiter(event):
            yield event

        event = engine.event()
        engine.process(waiter(event))
        engine.process(firer(event))
        engine.run()
        assert event not in engine._event_pool

    def test_pool_is_bounded(self, engine):
        from repro.sim.engine import _TIMEOUT_POOL_LIMIT

        def proc():
            for _ in range(2 * _TIMEOUT_POOL_LIMIT):
                yield engine.timeout(1.0)

        engine.process(proc())
        engine.run()
        assert len(engine._timeout_pool) <= _TIMEOUT_POOL_LIMIT

    def test_run_until_triggered_stops_at_the_event(self, engine):
        done = engine.event()
        log = []

        def proc():
            yield engine.timeout(3.0)
            done.succeed()
            yield engine.timeout(10.0)
            log.append("late")

        engine.process(proc())
        assert engine.run_until_triggered(done) is True
        assert engine.now == 3.0
        assert log == []

    def test_run_until_triggered_respects_the_step_budget(self, engine):
        done = engine.event()

        def ticker():
            while True:
                yield engine.timeout(1.0)

        engine.process(ticker())
        assert engine.run_until_triggered(done, max_steps=10) is False
        assert engine.steps >= 10

    def test_run_until_triggered_raises_on_deadlock(self, engine):
        done = engine.event()
        with pytest.raises(SimulationError):
            engine.run_until_triggered(done)

    def test_pooling_preserves_determinism(self):
        def run_once():
            engine = Engine()
            trace = []

            def producer(name, period):
                for _ in range(20):
                    yield engine.timeout(period)
                    trace.append((engine.now, name))

            engine.process(producer("a", 0.7))
            engine.process(producer("b", 1.1))
            engine.run()
            return trace

        assert run_once() == run_once()


def _charge(engine, delay, in_place):
    """Charge ``delay`` the way process bodies do: in place when
    ``in_place`` and the engine allows it, otherwise as a yielded timeout."""
    if not (in_place and engine.advance(delay)):
        yield engine.timeout(delay)


class TestAdvance:
    """``Engine.advance`` takes a timeout's step in place only when that
    step is the engine's next: each scenario runs once with in-place
    charges and once with yielded timeouts, and must observe the same."""

    @staticmethod
    def both(scenario):
        """``scenario(engine, in_place)``'s observations, for both modes."""
        return [scenario(Engine(), in_place) for in_place in (False, True)]

    def test_outside_a_dispatch_loop_it_refuses(self, engine):
        assert engine.advance(1.0) is False
        assert (engine.now, engine.steps) == (0.0, 0)

    def test_a_lone_process_charges_in_place(self, engine):
        taken = []

        def proc():
            for _ in range(3):
                taken.append(engine.advance(1.0))
                yield engine.timeout(0.0)

        engine.process(proc())
        engine.run()
        assert taken == [True, True, True]
        assert (engine.now, engine.steps) == (3.0, 8)

    def test_second_waiter_resumes_at_the_event_instant(self):
        def scenario(engine, in_place):
            shared = engine.event()
            log = []

            def first():
                yield shared
                yield from _charge(engine, 2.0, in_place)
                log.append(("first", engine.now))

            def second():
                yield shared
                log.append(("second", engine.now))

            engine.process(first())
            engine.process(second())
            shared.succeed(delay=1.0)
            engine.run()
            return log, engine.steps

        yielded, in_place = self.both(scenario)
        assert in_place == yielded == ([("second", 1.0), ("first", 3.0)], 6)

    def test_an_event_at_the_same_instant_goes_first(self):
        def scenario(engine, in_place):
            log = []

            def proc():
                yield from _charge(engine, 1.0, in_place)
                log.append(("charged", engine.now))

            engine.process(proc())
            engine.timeout(1.0).add_callback(lambda event: log.append(("other", engine.now)))
            engine.run()
            return log, engine.steps

        yielded, in_place = self.both(scenario)
        assert in_place == yielded == ([("other", 1.0), ("charged", 1.0)], 4)

    def test_step_runs_exactly_one_event(self):
        def scenario(engine, in_place):
            def proc():
                for _ in range(3):
                    yield from _charge(engine, 1.0, in_place)

            engine.process(proc())
            seen = []
            while engine.peek() < float("inf"):
                engine.step()
                seen.append((engine.now, engine.steps))
            return seen

        yielded, in_place = self.both(scenario)
        assert in_place == yielded == [(0.0, 1), (1.0, 2), (2.0, 3), (3.0, 4), (3.0, 5)]

    def test_run_until_triggered_stops_at_the_budget_step(self):
        def scenario(engine, in_place):
            def ticker():
                for _ in range(50):
                    yield from _charge(engine, 1.0, in_place)

            engine.process(ticker())
            stopped = engine.run_until_triggered(engine.event(), max_steps=10)
            return stopped, engine.now, engine.steps

        yielded, in_place = self.both(scenario)
        assert in_place == yielded == (False, 9.0, 10)

    def test_run_until_triggered_stops_once_the_awaited_event_triggers(self):
        def scenario(engine, in_place):
            done = engine.event()

            def proc():
                done.succeed(delay=5.0)
                yield from _charge(engine, 1.0, in_place)

            engine.process(proc())
            return engine.run_until_triggered(done), engine.now, engine.steps

        yielded, in_place = self.both(scenario)
        assert in_place == yielded == (True, 0.0, 1)

    def test_run_until_never_leaves_the_clock_past_until(self):
        def scenario(engine, in_place):
            log = []

            def proc():
                for _ in range(6):
                    yield from _charge(engine, 1.0, in_place)
                    log.append(engine.now)

            engine.process(proc())
            engine.run(until=2.5)
            first = (list(log), engine.now, engine.steps)
            engine.run(until=5.0)
            return first, (log, engine.now, engine.steps)

        yielded, in_place = self.both(scenario)
        assert in_place == yielded
        assert in_place == (([1.0, 2.0], 2.5, 3), ([1.0, 2.0, 3.0, 4.0, 5.0], 5.0, 6))

    def test_a_switch_subscriber_sees_the_unchanged_stream(self):
        from repro.obs import Bus

        class Switches:
            kinds = ("engine.switch",)

            def __init__(self):
                self.seen = []

            def on_event(self, time, kind, payload):
                self.seen.append((time, payload["process"]))

        def scenario(engine, in_place):
            sink = Switches()
            engine.obs = Bus(engine, [sink])

            def proc():
                for _ in range(3):
                    yield from _charge(engine, 1.0, in_place)

            engine.process(proc(), name="p")
            engine.run()
            return sink.seen, engine.steps

        yielded, in_place = self.both(scenario)
        assert in_place == yielded
        assert in_place[0] == [(0.0, "p"), (1.0, "p"), (2.0, "p"), (3.0, "p")]
