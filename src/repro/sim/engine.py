"""The discrete-event engine: clock, event queue, and generator processes.

The design mirrors SimPy's process-interaction style (which cannot be
installed in this offline environment): simulated activities are Python
generators that ``yield`` :class:`Event` objects and are resumed when those
events trigger.  Scheduled events fire in ``(time, sequence)`` order so that
simultaneous events run FIFO, which keeps daemon/process interleavings
deterministic.

Determinism matters here: the experiments in :mod:`repro.experiments` compare
runs of the same workload under four different hint policies, and any
nondeterminism in the engine would show up as noise in the reproduced tables.

The scheduler is a binary heap of ``(time, sequence, event)`` entries for
events strictly in the future, plus two FIFO deques.  Events triggered *at
the current time* — every lock grant, store put, and zero-delay timeout,
roughly half of all events — skip the heap and go on the *now-lane*: no
tuple, no sequence number, O(1) push and pop.  Popping a heap entry moves
every other entry at the same instant onto the *due* deque, which drains
before the lane.  Section 7.5 of DESIGN.md proves that this dispatch order
is exactly ``(time, sequence)`` order with sequence numbers issued at
schedule time; ``tests/test_golden_digests.py`` pins the serialized results
it produces and ``tests/test_properties.py`` checks it against a reference
scheduler.

A process that is about to wait out a timeout first offers it to
:meth:`Engine.advance`: when that timeout would be the very next step, the
clock moves in place and the process carries on without yielding — the
same step, minus the heap push and pop, the dispatch and the generator
round trip (DESIGN.md section 7.10).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for misuse of the engine (double triggers, bad yields, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Carries the ``cause`` given by the interrupter so the interrupted process
    can decide how to react (e.g. a daemon being woken early).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the queue, callbacks not yet run
_PROCESSED = 2  # callbacks have run

#: Delays and times must compare below this; NaN and infinity never do.
_INF = float("inf")


class Event:
    """A happening at a point in simulated time.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail` places
    them on the engine's queue; when the engine pops them, their callbacks
    run exactly once.  Processes waiting on the event (via ``yield``) are
    resumed with the event's value.
    """

    __slots__ = ("engine", "callbacks", "_state", "_value", "_ok")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._state = _PENDING
        self._value: Any = None
        self._ok = True

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (value is decided)."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        # Inlined scheduling: succeed() runs for every lock hand-off and
        # resource grant, so an extra call costs at ~10^5 events per run.
        # A float-dust delay (now + delay == now) goes on the lane, which
        # is exactly where (time, sequence) order puts an event at `now`.
        engine = self.engine
        if delay == 0.0:
            engine._lane.append(self)
        elif 0.0 < delay < _INF:
            now = engine._now
            time = now + delay
            if time > now:
                engine._sequence = sequence = engine._sequence + 1
                heappush(engine._heap, (time, sequence, self))
            else:
                engine._lane.append(self)
        else:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        self._state = _TRIGGERED
        self._value = value
        self._ok = True
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with an exception after ``delay``."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.succeed(exception, delay)
        self._ok = False
        return self

    def trigger_at(self, time: float, value: Any = None, ok: bool = True) -> "Event":
        """Schedule this event to fire at absolute ``time`` (not before now).

        It succeeds with ``value``, or with ``ok=False`` fails with the
        exception ``value``.  For a completion computed ahead of the clock
        (a disk transfer whose command starts in the future), where
        ``now + delay`` would round differently from the computed instant.
        """
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        engine = self.engine
        now = engine._now
        if now < time < _INF:
            engine._sequence = sequence = engine._sequence + 1
            heappush(engine._heap, (time, sequence, self))
        elif time == now:
            engine._lane.append(self)
        else:
            raise SimulationError(
                f"trigger time {time} is not a finite time at or after now={now}"
            )
        self._state = _TRIGGERED
        self._value = value
        self._ok = ok
        return self

    # -- callbacks ---------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately, so late subscribers are not lost.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        super().__init__(engine)
        self.succeed(value, delay)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._events: Tuple[Event, ...] = tuple(events)
        for event in self._events:
            if event.engine is not engine:
                raise SimulationError("condition spans multiple engines")
        self._remaining = len(self._events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        events = self._events
        if len(events) == 1:
            # Fast path: the overwhelmingly common bounded-process wrapper is
            # an AllOf over a single child, so skip the dict comprehension.
            event = events[0]
            if event._state != _PENDING and event._ok:
                return {event: event._value}
            return {}
        return {
            event: event._value
            for event in events
            if event._state != _PENDING and event._ok
        }


class AnyOf(_Condition):
    """Fires as soon as any child event fires (propagating failures)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires once all child events have fired (propagating failures)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A generator-driven simulated activity.

    The wrapped generator yields :class:`Event` objects; the process resumes
    with the event's value (or the event's exception thrown in).  When the
    generator returns, the process — itself an event — succeeds with the
    return value, so processes can wait on each other.
    """

    __slots__ = (
        "_generator",
        "_send",
        "_throw",
        "_waiting_on",
        "name",
        "_switch_payload",
        "_bound_resume",
    )

    def __init__(
        self,
        engine: "Engine",
        generator: ProcessGenerator,
        name: str = "",
    ) -> None:
        super().__init__(engine)
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process requires a generator, got {generator!r}")
        self._generator = generator
        # Bound once: _resume runs for every context switch, and the
        # attribute walk generator -> send costs there.
        self._send = generator.send
        self._throw = generator.throw
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Interned `engine.switch` payload: one dict per process for its whole
        # lifetime, so tracing a long run doesn't allocate per context switch.
        # Sinks must treat emitted payloads as read-only (TraceRecorder copies).
        self._switch_payload: Optional[dict] = None
        # One bound method for the process's lifetime instead of a fresh
        # `self._resume` allocation at every yield.
        self._bound_resume = self._resume
        # Bootstrap: resume once the engine starts (or immediately if running).
        init = engine.timeout(0.0)
        init.add_callback(self._bound_resume)
        self._waiting_on = init

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A process cannot interrupt itself, and interrupting a finished
        process is an error — both indicate scheduling bugs in the caller.
        """
        if self._state != _PENDING:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        if self.engine.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        waiting_on = self._waiting_on
        if waiting_on is not None and waiting_on.callbacks is not None:
            try:
                waiting_on.callbacks.remove(self._bound_resume)
            except ValueError:
                pass
        self._waiting_on = None
        wakeup = Event(self.engine)
        wakeup.fail(Interrupt(cause))
        wakeup.add_callback(self._bound_resume)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        engine = self.engine
        if engine._want_switch:
            payload = self._switch_payload
            if payload is None:
                payload = self._switch_payload = {"process": self.name}
            engine._obs.emit("engine.switch", payload)
        previous = engine.active_process
        engine.active_process = self
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._throw(event._value)
        except StopIteration as stop:
            engine.active_process = previous
            self.succeed(stop.value)
            return
        except BaseException as exc:
            engine.active_process = previous
            if not self.callbacks:
                # Nobody is waiting on this process; surface the crash.
                raise
            self.fail(exc)
            return
        engine.active_process = previous
        self._waiting_on = target
        # Inlined add_callback with the cached bound method.  The yielded
        # value is trusted to be an Event of this engine; anything else
        # surfaces as the AttributeError below, converted to the same
        # diagnostic the explicit isinstance check used to raise (checking
        # up front cost two tests on every yield of every process).
        try:
            callbacks = target.callbacks
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            ) from None
        if callbacks is None:
            self._bound_resume(target)
        else:
            callbacks.append(self._bound_resume)


#: Upper bound on recycled Timeout objects kept per engine.  Large enough to
#: cover the daemons + processes in flight at once, small enough that an idle
#: engine doesn't pin memory.
_TIMEOUT_POOL_LIMIT = 128

#: Awaited by the loops that run until the queue drains: never triggered.
_NEVER = Event(None)


class Engine:
    """The event loop: a virtual clock plus a binary-heap scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self.active_process: Optional[Process] = None
        #: Steps taken: events dispatched plus timeouts advanced past in
        #: place (:meth:`advance`); drives the experiment step budget.
        self.steps = 0
        #: Instrumentation bus (:mod:`repro.obs`), or None when disabled.
        self._obs = None
        self._want_switch = False
        self._want_dispatch = False
        #: Free pools of processed, unreferenced events (see :meth:`timeout`
        #: and :meth:`event`); refilled by the run loop's refcount guard.
        self._timeout_pool: List[Timeout] = []
        self._event_pool: List[Event] = []
        # Events already due at the current time, in (time, sequence)
        # order; drained before anything else.
        self._due: deque = deque()
        # Events triggered *at* the current time, FIFO.  Dispatched after
        # _due (their sequence numbers are necessarily larger) and before
        # advancing the clock.
        self._lane: deque = deque()
        # Events strictly in the future: a heap of (time, sequence, event).
        # Sequence numbers are unique, so two events are never compared.
        self._heap: List[Tuple[float, int, Event]] = []
        # The running dispatch loop's bounds, read by advance(): the time
        # limit (-inf outside a loop, in a loop whose dispatches or switches
        # are observed, and while an event with several callbacks is
        # dispatched), the awaited event and the step budget.
        self._until = -_INF
        self._awaited: Event = _NEVER
        self._budget = 0.0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- instrumentation ---------------------------------------------------
    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, bus) -> None:
        # Subscription interest is fixed when the bus is constructed (see
        # Bus.wants), so precompute the two hot-path gates once here instead
        # of calling wants() per context switch / per dispatch.
        self._obs = bus
        self._want_switch = bus is not None and bus.wants("engine.switch")
        self._want_dispatch = bus is not None and bus.wants("engine.dispatch")

    # -- event construction ------------------------------------------------
    def event(self) -> Event:
        pool = self._event_pool
        if pool:
            # Recycled events keep their (cleared) callback list, so the
            # common path allocates nothing at all.
            event = pool.pop()
            event._state = _PENDING
            return event
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout`, recycled from the free pool when possible.

        Timeouts are by far the most-allocated event (every compute charge,
        flush, and daemon sleep creates one).  The dominant case carries no
        value, so processed value-less Timeouts that nothing else references
        (checked via the refcount guard in the run loop) are reset and
        reused instead of reallocated.  Scheduling is :meth:`Event.succeed`'s,
        inlined.
        """
        pool = self._timeout_pool
        if not pool or value is not None:
            return Timeout(self, delay, value)
        if delay == 0.0:
            timeout = pool.pop()
            self._lane.append(timeout)
        elif 0.0 < delay < _INF:
            timeout = pool.pop()
            now = self._now
            time = now + delay
            if time > now:
                self._sequence = sequence = self._sequence + 1
                heappush(self._heap, (time, sequence, timeout))
            else:
                self._lane.append(timeout)
        else:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        timeout._state = _TRIGGERED
        return timeout

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- dispatch ------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the queue is empty."""
        if self._due or self._lane:
            return self._now
        heap = self._heap
        return heap[0][0] if heap else _INF

    def advance(self, delay: float) -> bool:
        """Take the step of a ``delay`` timeout in place, if it is the next one.

        Called by a running process instead of yielding a fresh timeout.
        When dispatching that timeout would be the engine's very next step,
        the clock moves to ``now + delay``, the step is counted, and True
        is returned: the process carries on as if resumed.  Otherwise
        nothing changes, False is returned, and the caller yields
        ``timeout(delay)`` as usual.  The step taken is exactly the one the
        loop would have dispatched, so results and :attr:`steps` are those
        of the yielding process (DESIGN.md section 7.10):

        - nothing is due now (the due deque and the lane are empty) and the
          new time lies strictly after now, strictly before the heap's
          first entry (one at the same instant has an earlier sequence
          number) and within the loop's ``until``;
        - the loop would take another step: its awaited event is pending
          and its budget not reached;
        - the event being dispatched has no other callback, which would
          otherwise run after this process at the advanced clock.

        Outside a dispatch loop, and in a loop whose dispatches or
        switches a bus observes, it returns False.
        """
        if self._due or self._lane:
            return False
        now = self._now
        time = now + delay
        heap = self._heap
        if (
            now < time < _INF
            and time <= self._until
            and (not heap or time < heap[0][0])
            and self.steps < self._budget
            and self._awaited._state == _PENDING
        ):
            self._now = time
            self.steps += 1
            return True
        return False

    def step(self) -> None:
        """Process the single next event; raises IndexError if none remain."""
        if not (self._due or self._lane or self._heap):
            raise IndexError("step from an empty event queue")
        self._dispatch(_INF, _NEVER, self.steps + 1)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced exactly to it on exit,
        so back-to-back ``run(until=...)`` calls compose cleanly.
        """
        if until is None:
            self._dispatch(_INF, _NEVER, _INF)
        elif until >= self._now:
            self._dispatch(until, _NEVER, _INF)
            self._now = until
        else:
            raise SimulationError(f"until={until} is in the past (now={self._now})")

    def run_until_triggered(
        self, event: Event, max_steps: Optional[float] = None
    ) -> bool:
        """Dispatch events until ``event`` triggers.

        Returns ``True`` when the awaited event triggered, ``False`` when
        ``max_steps`` total engine steps were reached first (the caller turns
        that into a step-budget error), and raises :class:`SimulationError`
        if the queue drains while the event is still pending (deadlock).
        """
        budget = _INF if max_steps is None else max_steps
        self._dispatch(_INF, event, budget)
        if event._state != _PENDING:
            return True
        if self.steps >= budget:
            return False
        raise SimulationError(
            "event queue drained before the awaited event triggered (deadlock)"
        )

    def _dispatch(self, until: float, awaited: Event, budget: float) -> None:
        """The one dispatch loop, behind :meth:`step`, :meth:`run` and
        :meth:`run_until_triggered`.

        Runs events in ``(time, sequence)`` order while ``awaited`` is
        pending and fewer than ``budget`` total steps have run; stops early
        when the queue drains or the next event lies beyond ``until``.  The
        queues, pools and obs gate are bound to locals: at ~10^5 events per
        simulated experiment the attribute lookups were a measurable share
        of wall time.  The step count is the exception: it is stored before
        an event's callbacks run and reloaded after, because :meth:`advance`
        counts the steps a callback takes in place.
        """
        due = self._due
        lane = self._lane
        heap = self._heap
        due_popleft = due.popleft
        due_append = due.append
        lane_popleft = lane.popleft
        pool = self._timeout_pool
        event_pool = self._event_pool
        obs = self._obs
        emit_dispatch = self._want_dispatch
        steps = self.steps
        # An observed dispatch or switch stream would lose the steps taken
        # in place, so such a loop lets advance() take none.
        self._until = limit = -_INF if emit_dispatch or self._want_switch else until
        self._awaited = awaited
        self._budget = budget
        try:
            while awaited._state == _PENDING and steps < budget:
                if due:
                    event = due_popleft()
                elif lane:
                    event = lane_popleft()
                elif heap and heap[0][0] <= until:
                    # Unpacked at once: a live tuple would hold a third
                    # reference to the event and defeat the recycling below.
                    time, _, event = heappop(heap)
                    self._now = time
                    # The tie group goes to _due in sequence order: nothing
                    # scheduled from here on can join it (see DESIGN.md 7.5).
                    while heap and heap[0][0] == time:
                        due_append(heappop(heap)[2])
                else:
                    break
                steps += 1
                self.steps = steps
                if emit_dispatch:
                    obs.emit("engine.dispatch", {"event": type(event).__name__})
                callbacks = event.callbacks
                event.callbacks = None
                event._state = _PROCESSED
                if callbacks:
                    # A step taken in place by one callback would show the
                    # advanced clock to the callbacks after it.  A lone
                    # callback goes through the loop too: its unconditional
                    # back edge is what lets CPython 3.11 specialize this
                    # function's bytecode (DESIGN.md section 7.10).
                    shared = len(callbacks) > 1
                    if shared:
                        self._until = -_INF
                    for callback in callbacks:
                        callback(event)
                    if shared:
                        self._until = limit
                    steps = self.steps
                # Recycle the event if nothing else can see it: the only
                # references left must be the local `event` and getrefcount's
                # own argument.  Anything held by a condition, a generator
                # frame, or user code keeps a third reference and is skipped.
                # Plain Events get their value cleared so carrying one (every
                # lock grant and queue hand-off does) doesn't bar reuse or pin
                # the payload; Timeouts must stay value-less because
                # ``timeout()`` reuses them without resetting the value.  A
                # recycled event keeps its callback list, cleared: every
                # queued event has one, since only dispatch sets it to None.
                if getrefcount(event) == 2:
                    cls = type(event)
                    if cls is Timeout:
                        if event._value is None and len(pool) < _TIMEOUT_POOL_LIMIT:
                            callbacks.clear()
                            event.callbacks = callbacks
                            pool.append(event)
                    elif cls is Event and event._ok:
                        if len(event_pool) < _TIMEOUT_POOL_LIMIT:
                            event._value = None
                            callbacks.clear()
                            event.callbacks = callbacks
                            event_pool.append(event)
        finally:
            self._until = -_INF

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Convenience: run a process to completion and return its value."""
        process = self.process(generator, name=name)
        self.run()
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} deadlocked (event queue drained)"
            )
        if not process.ok:
            raise process.value
        return process.value
