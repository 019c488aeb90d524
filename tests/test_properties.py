"""Property-based tests (hypothesis) on core invariants."""

import collections
import heapq
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.core.compiler.interp import nest_ops
from repro.core.compiler.ir import (
    AffineExpr,
    Array,
    ArrayRef,
    Loop,
    Nest,
    Program,
    Stmt,
    affine,
)
from repro.core.compiler.pipeline import compile_program
from repro.core.runtime.buffering import ReleaseBuffer
from repro.sim.engine import Engine

MACHINE = MachineConfig()
EPP = MACHINE.page_elements


class TestEngineProperties:
    @settings(max_examples=50, deadline=None)
    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.timeout(delay).add_callback(lambda _e: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=30, deadline=None)
    @given(
        delays=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10),
        split=st.floats(0.1, 9.9),
    )
    def test_run_until_is_composable(self, delays, split):
        """run(until=a); run() is equivalent to run()."""

        def run_split():
            engine = Engine()
            fired = []
            for delay in delays:
                engine.timeout(delay).add_callback(
                    lambda _e: fired.append(round(engine.now, 9))
                )
            engine.run(until=split)
            engine.run()
            return fired

        def run_straight():
            engine = Engine()
            fired = []
            for delay in delays:
                engine.timeout(delay).add_callback(
                    lambda _e: fired.append(round(engine.now, 9))
                )
            engine.run()
            return fired

        assert run_split() == run_straight()


# -- exact dispatch order against a reference scheduler -----------------------
#
# The reference is the specification of the engine's order: one heap of
# (time, sequence, event), the sequence issued when an event is scheduled,
# zero-delay triggers included.  So an event triggered at the current instant
# runs FIFO after the current tie group.  It shares nothing with the engine;
# the process, condition, lock and store semantics below are the engine's,
# written the plain way.  A scenario is played on both, and every observation
# (a process step, a callback, a run(until) return) is logged with the clock
# and the dispatch count, so equal logs mean every observed event was
# dispatched at the same position of the same dispatch sequence.

GRID = 0.5  # delays are multiples of this: exact in binary, so ties happen


class _Boom(Exception):
    pass


class _RefEvent:
    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self.triggered = False
        self.ok = True
        self.value = None

    def succeed(self, value=None, delay=0.0):
        return self._schedule(self.env.now + delay, value, True)

    def fail(self, exception, delay=0.0):
        return self._schedule(self.env.now + delay, exception, False)

    def trigger_at(self, time, value=None, ok=True):
        return self._schedule(time, value, ok)

    def _schedule(self, time, value, ok):
        assert not self.triggered
        self.triggered, self.value, self.ok = True, value, ok
        env = self.env
        env.sequence += 1
        heapq.heappush(env.queue, (time, env.sequence, self))
        env.peak = max(env.peak, len(env.queue))
        return self

    def add_callback(self, callback):
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class _RefProcess(_RefEvent):
    def __init__(self, env, generator):
        super().__init__(env)
        self.generator = generator
        env.timeout(0.0).add_callback(self._resume)

    def _resume(self, event):
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        target.add_callback(self._resume)


class _RefCondition(_RefEvent):
    def __init__(self, env, events, need_all):
        super().__init__(env)
        self.events = list(events)
        self.remaining = len(self.events)
        self.need_all = need_all
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event):
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.remaining -= 1
        if not self.need_all or self.remaining == 0:
            self.succeed({e: e.value for e in self.events if e.triggered and e.ok})


class _RefLock:
    def __init__(self, env):
        self.env = env
        self.held = False
        self.waiters = collections.deque()

    def acquire(self):
        event = _RefEvent(self.env)
        if self.held:
            self.waiters.append(event)
        else:
            self.held = True
            event.succeed(self)
        return event

    def release(self):
        self.held = bool(self.waiters)
        if self.waiters:
            self.waiters.popleft().succeed(self)


class _RefStore:
    def __init__(self, env):
        self.env = env
        self.items = collections.deque()
        self.getters = collections.deque()

    def put(self, item):
        if self.getters:
            self.getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self):
        event = _RefEvent(self.env)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self.getters.append(event)
        return event


class _RefEngine:
    def __init__(self):
        self.now = 0.0
        self.steps = 0
        self.sequence = 0
        self.queue = []
        self.peak = 0

    def event(self):
        return _RefEvent(self)

    def timeout(self, delay, value=None):
        return _RefEvent(self).succeed(value, delay)

    def advance(self, delay):
        """Never in place: every charge is a dispatched timeout here."""
        return False

    def process(self, generator):
        return _RefProcess(self, generator)

    def any_of(self, events):
        return _RefCondition(self, events, need_all=False)

    def all_of(self, events):
        return _RefCondition(self, events, need_all=True)

    def step(self):
        if not self.queue:
            raise IndexError("step from an empty event queue")
        self.now, _, event = heapq.heappop(self.queue)
        self.steps += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

    def run(self, until=None):
        while self.queue and (until is None or self.queue[0][0] <= until):
            self.step()
        if until is not None:
            self.now = until


class _DispatchCounter:
    """A minimal obs bus: counts ``engine.dispatch`` emissions, which the
    engine makes before each event's callbacks run."""

    steps = 0

    def wants(self, kind):
        return kind == "engine.dispatch"

    def emit(self, kind, payload):
        self.steps += 1


def _play(env, counter, lock, store, scenario):
    """Play ``scenario`` on ``env``; returns the observation log.

    A split is a ``run(until)`` bound, or a negative ``-n`` for ``n``
    single ``step()`` calls (stopping early if the queue drains).
    """
    shared_count, chains, scripts, splits = scenario
    log = []

    def note(*what):
        log.append((*what, env.now, counter.steps))

    shared = [env.event() for _ in range(shared_count)]
    for source, target, delay, ok in chains:

        def chain(event, source=source, target=shared[target], delay=delay, ok=ok):
            # succeed / fail from inside a dispatch, with and without delay.
            note("callback", source, event.ok)
            if not target.triggered:
                if ok:
                    target.succeed(source, delay=delay * GRID)
                else:
                    target.fail(_Boom(source), delay=delay * GRID)

        shared[source].add_callback(chain)
    processes = []

    def worker(pid, script):
        for step, (kind, a, b) in enumerate(script):
            seen = None
            try:
                if kind == "sleep":
                    yield env.timeout(a * GRID)
                elif kind == "charge":
                    if not env.advance(a * GRID):
                        yield env.timeout(a * GRID)
                elif kind == "wait":
                    seen = yield shared[a]
                elif kind == "succeed" and not shared[a].triggered:
                    shared[a].succeed(pid, delay=b * GRID)
                elif kind == "fail" and not shared[a].triggered:
                    shared[a].fail(_Boom(pid), delay=b * GRID)
                elif kind == "at" and not shared[a].triggered:
                    shared[a].trigger_at(env.now + b * GRID, pid)
                elif kind == "any":
                    race = [env.timeout(a * GRID), env.timeout(b * GRID)]
                    seen = len((yield env.any_of(race)))
                elif kind == "any_shared":
                    race = [shared[a], env.timeout(b * GRID)]
                    seen = len((yield env.any_of(race)))
                elif kind == "all":
                    both = [env.timeout(a * GRID), env.timeout(b * GRID)]
                    seen = len((yield env.all_of(both)))
                elif kind == "lock":
                    yield lock.acquire()
                    note(pid, step, "locked")
                    yield env.timeout(a * GRID)
                    lock.release()
                elif kind == "put":
                    store.put((pid, step))
                elif kind == "get":
                    seen = yield store.get()
                elif kind == "join":
                    seen = yield processes[a % len(processes)]
            except _Boom as exc:
                seen = ("boom", exc.args)
            note(pid, step, seen)
        return pid

    for pid, script in enumerate(scripts):
        processes.append(env.process(worker(pid, script)))
    for split in splits:
        if split < 0:
            for _ in range(int(-split)):
                try:
                    env.step()
                except IndexError:
                    break
            note("steps")
        else:
            env.run(until=max(split, env.now))
            note("until")
    env.run()
    note("end")
    return log


def _assert_engine_matches_reference(scenario):
    """The engine's log equals the reference's twice: once with every
    dispatch observed (so no step is taken in place), and once unobserved,
    where ``charge`` ops take their steps in place when they can."""
    from repro.sim.sync import Lock, Store

    reference = _RefEngine()
    expected = _play(
        reference, reference, _RefLock(reference), _RefStore(reference), scenario
    )
    engine = Engine()
    engine.obs = counter = _DispatchCounter()
    actual = _play(engine, counter, Lock(engine), Store(engine), scenario)
    assert actual == expected
    assert engine.steps == counter.steps == reference.steps
    engine = Engine()
    actual = _play(engine, engine, Lock(engine), Store(engine), scenario)
    assert actual == expected
    assert engine.steps == reference.steps
    return reference


def _scenarios():
    shared = st.integers(0, 4)
    steps = st.integers(0, 4)

    def scenario(n_shared):
        refs = st.integers(0, max(n_shared - 1, 0))
        ops = [
            st.tuples(st.just("sleep"), steps, st.just(0)),
            st.tuples(st.just("charge"), steps, st.just(0)),
            st.tuples(st.just("any"), steps, steps),
            st.tuples(st.just("all"), steps, steps),
            st.tuples(st.just("lock"), steps, st.just(0)),
            st.tuples(st.just("put"), st.just(0), st.just(0)),
            st.tuples(st.just("get"), st.just(0), st.just(0)),
            st.tuples(st.just("join"), st.integers(0, 5), st.just(0)),
        ]
        if n_shared:
            ops += [
                st.tuples(st.sampled_from(["wait", "succeed", "fail", "at"]), refs, steps),
                st.tuples(st.just("any_shared"), refs, steps),
            ]
        scripts = st.lists(st.lists(st.one_of(ops), max_size=8), min_size=1, max_size=6)
        chains = st.lists(
            st.tuples(refs, refs, st.integers(0, 2), st.booleans()),
            max_size=4 if n_shared else 0,
        )
        splits = st.lists(st.integers(-3, 24), max_size=4, unique=True).map(
            lambda ticks: [t * GRID / 2 if t >= 0 else t for t in sorted(ticks, key=abs)]
        )
        return st.tuples(st.just(n_shared), chains, scripts, splits)

    return shared.flatmap(scenario)


def _churn_scenario(processes=1024, rounds=3):
    """``engine_churn``'s shape: each process races a short timer against a
    deadline about 3x longer, round after round, and never cancels the
    losing deadline."""
    state, scripts = 1, []
    for _ in range(processes):
        script = []
        for _ in range(rounds):
            state = (state * 1103515245 + 12345) % (1 << 31)
            short = 1 + state % 4
            script.append(("any", short, 3 * short + state % 3))
        scripts.append(script)
    return (0, [], scripts, [4 * GRID])


class TestDispatchOrder:
    @settings(max_examples=200, deadline=None)
    @given(scenario=_scenarios())
    # Two waiters on one event, the first charging at once: it must not
    # move the clock before the second runs.
    @example(scenario=(1, [], [[("wait", 0, 0), ("charge", 1, 0)], [("wait", 0, 0)],
                               [("succeed", 0, 1)]], []))
    # A charge that crosses a run(until) bound.
    @example(scenario=(0, [], [[("charge", 3, 0), ("charge", 2, 0)]], [GRID]))
    # A charge inside one step().
    @example(scenario=(0, [], [[("charge", 1, 0), ("charge", 1, 0)]], [-2]))
    def test_dispatch_order_matches_the_reference(self, scenario):
        _assert_engine_matches_reference(scenario)

    def test_high_occupancy_with_abandoned_deadlines(self):
        reference = _assert_engine_matches_reference(_churn_scenario())
        assert reference.peak >= 2000


class TestAffineProperties:
    env_strategy = st.dictionaries(
        st.sampled_from(["i", "j", "k"]), st.integers(-100, 100), min_size=3
    )

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs_a=st.dictionaries(st.sampled_from(["i", "j", "k"]), st.integers(-5, 5)),
        coeffs_b=st.dictionaries(st.sampled_from(["i", "j", "k"]), st.integers(-5, 5)),
        const_a=st.integers(-50, 50),
        const_b=st.integers(-50, 50),
        env=env_strategy,
    )
    def test_addition_is_pointwise(self, coeffs_a, coeffs_b, const_a, const_b, env):
        a = AffineExpr.build(coeffs_a, const_a)
        b = AffineExpr.build(coeffs_b, const_b)
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.dictionaries(st.sampled_from(["i", "j"]), st.integers(-5, 5)),
        const=st.integers(-50, 50),
        delta=st.integers(-20, 20),
        env=env_strategy,
    )
    def test_shift_adds_constant(self, coeffs, const, delta, env):
        expr = AffineExpr.build(coeffs, const)
        assert expr.shifted(delta).evaluate(env) == expr.evaluate(env) + delta


class TestInterpreterProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        pages=st.integers(2, 40),
        base=st.integers(0, 1000),
        stride=st.integers(1, 3),
    )
    def test_sweep_touches_exactly_the_array_pages(self, pages, base, stride):
        """A strided 1-D sweep touches each page in order, never outside
        the array's extent, regardless of stride."""
        a = Array("a", (pages * EPP,))
        stmt = Stmt(refs=(ArrayRef(a, (affine("i", coeff=stride),)),))
        nest = Nest("n", Loop("i", 0, (pages * EPP) // stride, body=(stmt,)))
        program = Program("p", (a,), (nest,))
        compiled = compile_program(program).nests["n"]
        touched = [
            op[1]
            for op in nest_ops(compiled, {}, {"a": base}, MACHINE)
            if op[0] == "t"
        ]
        assert touched == sorted(touched)
        assert touched[0] == base
        assert all(base <= page < base + pages for page in touched)
        assert len(set(touched)) == len(touched)

    @settings(max_examples=20, deadline=None)
    @given(pages=st.integers(2, 30))
    def test_hint_pages_stay_within_the_array(self, pages):
        a = Array("a", (pages * EPP,))
        stmt = Stmt(refs=(ArrayRef(a, (affine("i"),)),))
        nest = Nest("n", Loop("i", 0, pages * EPP, body=(stmt,)))
        program = Program("p", (a,), (nest,))
        compiled = compile_program(program).nests["n"]
        for op in nest_ops(compiled, {}, {"a": 10}, MACHINE):
            if op[0] in ("p", "r"):
                assert all(10 <= page < 10 + pages for page in op[2])

    @settings(max_examples=20, deadline=None)
    @given(pages=st.integers(2, 30))
    def test_every_page_released_exactly_once_per_sweep(self, pages):
        a = Array("a", (pages * EPP,))
        stmt = Stmt(refs=(ArrayRef(a, (affine("i"),)),))
        nest = Nest("n", Loop("i", 0, pages * EPP, body=(stmt,)))
        program = Program("p", (a,), (nest,))
        compiled = compile_program(program).nests["n"]
        released = [
            page
            for op in nest_ops(compiled, {}, {"a": 0}, MACHINE)
            if op[0] == "r"
            for page in op[2]
        ]
        assert sorted(released) == list(range(pages))

    @settings(max_examples=20, deadline=None)
    @given(pages=st.integers(2, 30), flops=st.floats(0.5, 8.0))
    def test_total_work_is_iterations_times_flops(self, pages, flops):
        a = Array("a", (pages * EPP,))
        stmt = Stmt(refs=(ArrayRef(a, (affine("i"),)),), flops=flops)
        nest = Nest("n", Loop("i", 0, pages * EPP, body=(stmt,)))
        program = Program("p", (a,), (nest,))
        compiled = compile_program(program).nests["n"]
        work = sum(
            op[1]
            for op in nest_ops(compiled, {}, {"a": 0}, MACHINE)
            if op[0] == "w"
        )
        expected = pages * EPP * flops * MACHINE.cpu_s_per_element
        assert math.isclose(work, expected, rel_tol=1e-9)


class TestBufferProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        additions=st.lists(
            st.tuples(
                st.integers(0, 4),  # tag
                st.integers(0, 200),  # page
                st.integers(1, 4),  # priority
            ),
            max_size=60,
        ),
        budget=st.integers(1, 50),
    )
    def test_drain_conserves_pages(self, additions, budget):
        """Pages drained + pages remaining == unique pages added, and no
        page is drained twice."""
        buffer = ReleaseBuffer()
        added = set()
        tag_priority = {}
        for tag, page, priority in additions:
            priority = tag_priority.setdefault(tag, priority)
            buffer.add(tag, [page], priority)
            added.add(page)
        drained = []
        while True:
            batches = buffer.drain(budget)
            if not batches:
                break
            for _tag, pages in batches:
                drained.extend(pages)
        assert len(drained) == len(set(drained))
        assert set(drained) == added
        assert len(buffer) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        pages_low=st.lists(st.integers(0, 99), min_size=1, max_size=20, unique=True),
        pages_high=st.lists(
            st.integers(100, 199), min_size=1, max_size=20, unique=True
        ),
    )
    def test_lower_priority_always_drains_first(self, pages_low, pages_high):
        buffer = ReleaseBuffer()
        buffer.add(1, pages_low, priority=1)
        buffer.add(2, pages_high, priority=5)
        drained = [
            page for _tag, batch in buffer.drain(len(pages_low)) for page in batch
        ]
        assert set(drained) <= set(pages_low)
