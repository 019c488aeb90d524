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

The scheduler is a calendar queue (Brown 1988) specialised for this
simulator's event mix.  Events triggered *at the current time* — every lock
grant, store put, and zero-delay timeout, roughly half of all events — skip
the calendar entirely and go on a plain FIFO *now-lane* deque: no tuple
allocation, no sequence number, O(1) push and pop.  Future events go into
time-bucketed days; bucket count resizes by occupancy and bucket width is
resampled from observed inter-event gaps.  Section 7 of DESIGN.md proves
the dispatch order (calendar entries due now, then the now-lane, then the
next calendar day) is exactly a binary heap's ``(time, sequence)`` order —
the previous ``heapq`` backend it replaced byte-identically
(``tests/test_golden_digests.py`` pins the serialized results it froze).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
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
        self._state = _TRIGGERED
        self._value = value
        self._ok = True
        # Inlined scheduling: succeed() runs for every lock hand-off and
        # resource grant, so an extra call costs at ~10^5 events per run.
        engine = self.engine
        if delay == 0.0:
            engine._lane.append(self)
        else:
            if delay < 0:
                raise SimulationError(f"negative delay: {delay}")
            engine._cal_insert(engine._now + delay, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with an exception after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._state = _TRIGGERED
        self._value = exception
        self._ok = False
        engine = self.engine
        if delay == 0.0:
            engine._lane.append(self)
        else:
            engine._cal_insert(engine._now + delay, self)
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
        if time < engine._now:
            raise SimulationError(f"trigger time {time} is in the past (now={engine._now})")
        self._state = _TRIGGERED
        self._value = value
        self._ok = ok
        engine._cal_insert(time, self)
        return self

    # -- engine internals --------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        self._state = _PROCESSED
        if callbacks:
            for callback in callbacks:
                callback(self)

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
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self._state = _TRIGGERED
        self._value = value
        engine._push(self, delay)


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

#: Calendar-queue shape bounds: bucket counts are powers of two in
#: [_CAL_MIN_BUCKETS, _CAL_MAX_BUCKETS]; bucket widths never drop below
#: _CAL_MIN_WIDTH seconds (guards against zero/denormal gap samples).
_CAL_MIN_BUCKETS = 16
_CAL_MAX_BUCKETS = 1 << 15
_CAL_MIN_WIDTH = 1e-9

#: Width resampling cadence, counted in calendar pops (deterministic, so
#: runs stay bit-reproducible): once shortly after startup, then periodically.
_CAL_WARMUP_POPS = 64
_CAL_RESAMPLE_POPS = 1024


class Engine:
    """The event loop: a virtual clock plus a calendar-queue scheduler."""

    def __init__(self) -> None:
        self.backend = "calendar"
        self._now = 0.0
        self._sequence = 0
        self.active_process: Optional[Process] = None
        #: Total events dispatched; drives the experiment step budget.
        self.steps = 0
        #: Instrumentation bus (:mod:`repro.obs`), or None when disabled.
        self._obs = None
        self._want_switch = False
        self._want_dispatch = False
        #: Free pools of processed, unreferenced events (see :meth:`timeout`
        #: and :meth:`event`); refilled by the run loops' refcount guard.
        self._timeout_pool: List[Timeout] = []
        self._event_pool: List[Event] = []
        # Events already due at the current time, in (time, sequence)
        # order; drained before anything else.
        self._due: deque = deque()
        # Events triggered *at* the current time, FIFO.  Dispatched after
        # _due (their sequence numbers are necessarily larger) and before
        # advancing the clock.
        self._lane: deque = deque()
        # The calendar proper: only events strictly in the future.
        width = 1e-3
        self._width = width
        self._inv_width = 1.0 / width
        self._buckets: List[list] = [[] for _ in range(_CAL_MIN_BUCKETS)]
        self._mask = _CAL_MIN_BUCKETS - 1
        self._cal_count = 0
        self._day = 0  # absolute day number int(time * _inv_width)
        self._grow_at = 2 * _CAL_MIN_BUCKETS
        # Deterministic width resampling: pop-count thresholds, so the
        # bucket width tracks the workload's inter-event gap through
        # phase changes even when the entry count never crosses a
        # grow/shrink threshold.
        self._pops = 0
        self._resample_at = _CAL_WARMUP_POPS
        # Cached minimum entry so peek + pop after a scan are O(1);
        # consumed by pop, maintained by inserts and resizes.
        self._cache: Optional[tuple] = None

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
            event = pool.pop()
            # Recycled events keep their (cleared) callback list, so the
            # common path allocates nothing at all.
            if event.callbacks is None:
                event.callbacks = []
            event._state = _PENDING
            return event
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout`, recycled from the free pool when possible.

        Timeouts are by far the most-allocated event (every compute charge,
        flush, and daemon sleep creates one).  The dominant case carries no
        value, so processed value-less Timeouts that nothing else references
        (checked via the refcount guard in the run loops) are reset and
        reused instead of reallocated.
        """
        pool = self._timeout_pool
        if pool and value is None:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            timeout = pool.pop()
            if timeout.callbacks is None:
                timeout.callbacks = []
            timeout._state = _TRIGGERED
            if delay == 0.0:
                self._lane.append(timeout)
            else:
                self._cal_insert(self._now + delay, timeout)
            return timeout
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _push(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if delay == 0.0:
            self._lane.append(event)
        else:
            self._cal_insert(self._now + delay, event)

    # -- calendar internals ------------------------------------------------
    def _cal_insert(self, time: float, event: Event) -> None:
        """Insert a strictly-future event into the calendar.

        Entries are ``(time, sequence, day, event)`` tuples; ``day`` is the
        absolute day number ``int(time * inv_width)``, fixed at insert so
        float boundary rounding can never disagree between insert and scan.
        Buckets stay sorted by (time, sequence) — sequence numbers are
        unique, so ``insort`` never compares two Event objects — which makes
        the pop path O(1): a day's minimum is always ``bucket[0]``, because
        any other entry sharing the bucket belongs to a later year and
        therefore a later time.
        """
        if time <= self._now:
            # Float-dust delays (now + delay == now) degrade to the now-lane,
            # which is exactly the heap's ordering for an event at `now`.
            self._lane.append(event)
            return
        self._sequence += 1
        day = int(time * self._inv_width)
        entry = (time, self._sequence, day, event)
        bucket = self._buckets[day & self._mask]
        insort(bucket, entry)
        count = self._cal_count + 1
        self._cal_count = count
        cache = self._cache
        if cache is not None and time < cache[0]:
            self._cache = entry
        if count > self._grow_at:
            self._cal_resize()

    def _cal_scan(self) -> tuple:
        """Find (and cache) the minimum calendar entry; count must be > 0.

        Walks day windows from the current day cursor.  A day's entries are
        the sorted prefix of its bucket (anything else in the bucket belongs
        to a later year), so each day costs one list check.  If a whole year
        passes with no hit the queue is sparse relative to its width:
        resample the width (when there are enough entries to sample) or fall
        back to a direct minimum over the bucket heads.
        """
        buckets = self._buckets
        mask = self._mask
        day = self._day
        for _ in range(mask + 1):
            bucket = buckets[day & mask]
            if bucket and bucket[0][2] == day:
                self._day = day
                best = bucket[0]
                self._cache = best
                return best
            day += 1
        if self._cal_count >= 8:
            # Sparse: the width is stale.  Resize resamples the width from
            # the actual gaps and leaves the minimum cached.
            self._cal_resize()
            return self._cache
        best = min(bucket[0] for bucket in buckets if bucket)
        self._day = best[2]
        self._cache = best
        return best

    def _cal_pop(self) -> Event:
        """Remove and return the minimum calendar event; count must be > 0.

        Advances the clock to the popped event's time.  Ties — other entries
        at exactly the same time — are moved onto ``_due`` in sequence order.
        That preserves the heap's (time, sequence) order: once the clock
        reaches time T no *new* calendar entry at T can appear (zero-delay
        triggers at T land on the now-lane), so the tie group's sequence
        numbers are all smaller than any event its callbacks will trigger.
        """
        pops = self._pops + 1
        self._pops = pops
        if pops >= self._resample_at and self._cal_count >= 2:
            self._cal_resize()
        buckets = self._buckets
        mask = self._mask
        cache = self._cache
        if cache is not None:
            # Inserts keep the cache at its bucket's head, so no walk needed.
            self._cache = None
            day = cache[2]
            bucket = buckets[day & mask]
        else:
            day = self._day
            end = day + mask + 1
            while day < end:
                bucket = buckets[day & mask]
                if bucket and bucket[0][2] == day:
                    break
                day += 1
            else:
                # Sparse: nothing within a year of the cursor.
                if self._cal_count >= 8:
                    self._cal_resize()
                    best = self._cache
                    self._cache = None
                    day = best[2]
                    # The resize rebuilt the bucket array in place of the
                    # locals bound above.
                    bucket = self._buckets[day & self._mask]
                else:
                    best = min(b[0] for b in buckets if b)
                    day = best[2]
                    bucket = buckets[day & mask]
        self._day = day
        best = bucket[0]
        time = best[0]
        self._now = time
        if len(bucket) == 1 or bucket[1][0] != time:
            del bucket[0]
            self._cal_count -= 1
            return best[3]
        # Tie group: the leading same-time run of the sorted bucket.
        run = 2
        blen = len(bucket)
        while run < blen and bucket[run][0] == time:
            run += 1
        group = bucket[:run]
        del bucket[:run]
        self._cal_count -= run
        due = self._due
        for entry in group[1:]:
            due.append(entry[3])
        return best[3]

    def _cal_resize(self) -> None:
        """Rebuild the calendar: occupancy-sized bucket count, resampled width.

        Bucket count is the power of two nearest count/2 (clamped); width is
        twice the mean inter-event gap over the first ≤25 entries, so a day
        holds a couple of events near the head of the queue.  Degenerate
        samples (all ties) keep the previous width.
        """
        entries = [e for b in self._buckets for e in b]
        entries.sort()
        count = len(entries)
        # A rebuild costs O(count), so the next periodic resample is at
        # least a multiple of the occupancy away: amortised O(1) per pop
        # no matter how large the queue grows.  (A fixed cadence made the
        # rebuild cost per pop *linear* in occupancy — the high-population
        # regime the calendar exists for was exactly where it lost.)
        self._resample_at = self._pops + max(_CAL_RESAMPLE_POPS, 4 * count)
        nbuckets = _CAL_MIN_BUCKETS
        while nbuckets * 2 < count and nbuckets < _CAL_MAX_BUCKETS:
            nbuckets <<= 1
        width = self._width
        if count >= 2:
            # Robust width: twice the *median* non-zero gap over the head of
            # the queue.  The event mix is heavy-tailed (microsecond compute
            # quanta next to ~100 ms daemon wakeups), so a mean-based width
            # balloons until every near-future event shares one day and each
            # pop degenerates to a linear bucket scan.
            sample = entries[: min(count, 25)]
            gaps = sorted(
                b[0] - a[0]
                for a, b in zip(sample, sample[1:])
                if b[0] > a[0]
            )
            if gaps:
                width = max(2.0 * gaps[len(gaps) // 2], _CAL_MIN_WIDTH)
        self._width = width
        inv_width = self._inv_width = 1.0 / width
        mask = self._mask = nbuckets - 1
        self._grow_at = 2 * nbuckets
        buckets = self._buckets = [[] for _ in range(nbuckets)]
        first = None
        # `entries` is globally sorted, so per-bucket appends stay sorted.
        for time, seq, _old_day, event in entries:
            day = int(time * inv_width)
            bucket = buckets[day & mask]
            bucket.append((time, seq, day, event))
            if first is None:
                first = bucket[-1]
        if first is not None:
            self._day = first[2]
            self._cache = first
        else:
            self._day = int(self._now * inv_width)
            self._cache = None

    # -- stepping ----------------------------------------------------------
    def step(self) -> None:
        """Process the single next event; raises IndexError if none remain."""
        due = self._due
        if due:
            event = due.popleft()
        elif self._lane:
            event = self._lane.popleft()
        elif self._cal_count:
            event = self._cal_pop()
        else:
            raise IndexError("step from an empty event queue")
        self.steps += 1
        if self._want_dispatch:
            self._obs.emit("engine.dispatch", {"event": type(event).__name__})
        event._run_callbacks()

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the queue is empty."""
        if self._due or self._lane:
            return self._now
        if self._cal_count:
            entry = self._cache
            if entry is None:
                entry = self._cal_scan()
            return entry[0]
        return float("inf")

    # -- run loops ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced exactly to it on exit,
        so back-to-back ``run(until=...)`` calls compose cleanly.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        self._run_calendar(until)
        if until is not None:
            self._now = until

    def _run_calendar(self, until: Optional[float]) -> None:
        """Calendar-backend drain loop.

        The dispatch body is inlined (rather than calling :meth:`step`) with
        the lanes, pools, and obs gate bound to locals: at ~10^5 events per
        simulated experiment the attribute lookups were a measurable share
        of wall time.
        """
        due = self._due
        lane = self._lane
        due_popleft = due.popleft
        lane_popleft = lane.popleft
        cal_pop = self._cal_pop
        pool = self._timeout_pool
        event_pool = self._event_pool
        obs = self._obs
        emit_dispatch = self._want_dispatch
        steps = self.steps
        try:
            while True:
                if due:
                    event = due_popleft()
                elif lane:
                    event = lane_popleft()
                elif self._cal_count:
                    if until is not None:
                        entry = self._cache
                        if entry is None:
                            entry = self._cal_scan()
                        if entry[0] > until:
                            break
                    event = cal_pop()
                else:
                    break
                steps += 1
                if emit_dispatch:
                    obs.emit("engine.dispatch", {"event": type(event).__name__})
                callbacks = event.callbacks
                event.callbacks = None
                event._state = _PROCESSED
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                # Recycle the event if nothing else can see it: the only
                # references left must be the local `event` and getrefcount's
                # own argument.  Anything held by a condition, a generator
                # frame, or user code keeps a third reference and is skipped.
                # Plain Events get their value cleared so carrying one (every
                # lock grant and queue hand-off does) doesn't bar reuse or pin
                # the payload; Timeouts must stay value-less because
                # ``timeout()`` reuses them without resetting the value.
                if getrefcount(event) == 2:
                    cls = type(event)
                    if cls is Timeout:
                        if event._value is None and len(pool) < _TIMEOUT_POOL_LIMIT:
                            if callbacks is not None:
                                callbacks.clear()
                                event.callbacks = callbacks
                            pool.append(event)
                    elif cls is Event and event._ok:
                        if len(event_pool) < _TIMEOUT_POOL_LIMIT:
                            event._value = None
                            if callbacks is not None:
                                callbacks.clear()
                                event.callbacks = callbacks
                            event_pool.append(event)
        finally:
            self.steps = steps

    def run_until_triggered(
        self, event: Event, max_steps: Optional[float] = None
    ) -> bool:
        """Dispatch events until ``event`` triggers.

        Returns ``True`` when the awaited event triggered, ``False`` when
        ``max_steps`` total engine steps were reached first (the caller turns
        that into a step-budget error), and raises :class:`SimulationError`
        if the queue drains while the event is still pending (deadlock).
        This is the experiment harness's main loop, so the dispatch body is
        inlined with local bindings exactly like :meth:`run`.
        """
        return self._run_until_triggered_calendar(event, max_steps)

    def _run_until_triggered_calendar(
        self, event: Event, max_steps: Optional[float]
    ) -> bool:
        due = self._due
        lane = self._lane
        due_popleft = due.popleft
        lane_popleft = lane.popleft
        cal_pop = self._cal_pop
        pool = self._timeout_pool
        event_pool = self._event_pool
        obs = self._obs
        emit_dispatch = self._want_dispatch
        budget = float("inf") if max_steps is None else max_steps
        steps = self.steps
        try:
            while event._state == _PENDING:
                if steps >= budget:
                    return False
                if due:
                    popped = due_popleft()
                elif lane:
                    popped = lane_popleft()
                elif self._cal_count:
                    popped = cal_pop()
                else:
                    raise SimulationError(
                        "event queue drained before the awaited event "
                        "triggered (deadlock)"
                    )
                steps += 1
                if emit_dispatch:
                    obs.emit("engine.dispatch", {"event": type(popped).__name__})
                callbacks = popped.callbacks
                popped.callbacks = None
                popped._state = _PROCESSED
                if callbacks:
                    for callback in callbacks:
                        callback(popped)
                if getrefcount(popped) == 2:
                    cls = type(popped)
                    if cls is Timeout:
                        if popped._value is None and len(pool) < _TIMEOUT_POOL_LIMIT:
                            if callbacks is not None:
                                callbacks.clear()
                                popped.callbacks = callbacks
                            pool.append(popped)
                    elif cls is Event and popped._ok:
                        if len(event_pool) < _TIMEOUT_POOL_LIMIT:
                            popped._value = None
                            if callbacks is not None:
                                callbacks.clear()
                                popped.callbacks = callbacks
                            event_pool.append(popped)
        finally:
            self.steps = steps
        return True

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
