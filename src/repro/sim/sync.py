"""Synchronisation primitives built on the event engine.

These model the kernel-side coordination the paper's analysis hinges on:
address-space memory locks (whose contention between the paging daemon and
the fault handler inflates fault service times — Section 4.3 of the paper),
bounded resources (SCSI adapter queues), and work queues (the releaser and
prefetch-thread queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.sim.engine import _PENDING, _TRIGGERED, Engine, Event, SimulationError

# Engine.event and Event.succeed are inlined at the fast paths below (a pop
# from the engine's event pool; state/value stores plus a now-lane append):
# the events are freshly made or known-pending, so the succeed() guard is
# vacuous, and these paths run for every lock acquisition and queue hand-off.
# A pooled event arrives processed, with its cleared callback list, so the
# paths that leave it waiting reset it to pending.

__all__ = ["Lock", "Resource", "Store"]


class Lock:
    """A FIFO mutual-exclusion lock.

    ``acquire()`` returns an :class:`Event` that fires when the caller holds
    the lock.  The lock records aggregate hold and wait time so the VM layer
    can report contention statistics.
    """

    def __init__(self, engine: Engine, name: str = "lock") -> None:
        self.engine = engine
        self.name = name
        self._holder: Optional[object] = None
        self._waiters: Deque[tuple[Event, object, float]] = deque()
        # Contention accounting.
        self.total_hold_time = 0.0
        self.total_wait_time = 0.0
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self._held_since = 0.0

    @property
    def locked(self) -> bool:
        return self._holder is not None

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self, who: object = None) -> Event:
        engine = self.engine
        pool = engine._event_pool
        event = pool.pop() if pool else Event(engine)
        if self._holder is None:
            # _grant inlined for the uncontended case (zero wait adds
            # nothing to the accounting), which is nearly every fault.
            self._holder = who if who is not None else event
            self._held_since = engine._now
            self.acquisitions += 1
            event._state = _TRIGGERED
            event._value = self
            event._ok = True
            engine._lane.append(event)
        else:
            event._state = _PENDING
            self.contended_acquisitions += 1
            self._waiters.append((event, who, engine._now))
        return event

    def _grant(self, event: Event, who: object, waited: float) -> None:
        self._holder = who if who is not None else event
        self._held_since = self.engine._now
        self.acquisitions += 1
        self.total_wait_time += waited
        event._state = _TRIGGERED
        event._value = self
        event._ok = True
        self.engine._lane.append(event)

    def release(self) -> None:
        if self._holder is None:
            raise SimulationError(f"release of unheld lock {self.name!r}")
        now = self.engine._now
        self.total_hold_time += now - self._held_since
        self._holder = None
        if self._waiters:
            event, who, enqueued = self._waiters.popleft()
            self._grant(event, who, waited=now - enqueued)

    def holding(self, who: object = None):
        """Generator helper: ``yield from lock.holding()`` is not supported;
        instead use::

            yield lock.acquire(self)
            try:
                ...
            finally:
                lock.release()
        """
        raise NotImplementedError("use explicit acquire()/release()")


class Resource:
    """A counted resource with FIFO queuing (e.g. adapter command slots).

    Grants are callbacks, not events: ``acquire(grant, *args)`` calls
    ``grant(*args)`` as soon as a unit is held — at once when one is free,
    else inside the :meth:`release` that hands it over, in FIFO order.  A
    grant therefore costs no engine dispatch, and grant order is exactly
    call order among waiters.
    """

    def __init__(self, engine: Engine, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        # (grant, args, enqueued_at) per waiter.
        self._waiters: Deque[Tuple[Callable[..., None], tuple, float]] = deque()
        self.total_wait_time = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self, grant: Callable[..., None], *args: Any) -> None:
        if self._in_use < self.capacity:
            self._in_use += 1
            grant(*args)
        else:
            self._waiters.append((grant, args, self.engine._now))

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # The unit passes straight to the head waiter.
            grant, args, enqueued = self._waiters.popleft()
            self.total_wait_time += self.engine._now - enqueued
            grant(*args)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO work queue with blocking ``get``.

    Used for the releaser daemon's request queue and the prefetch thread
    pool's work queue.  ``put`` never blocks; ``get`` returns an event that
    fires with the next item.
    """

    def __init__(self, engine: Engine, name: str = "store") -> None:
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.puts = 0
        self.gets = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self.puts += 1
        if self._getters:
            self.gets += 1
            event = self._getters.popleft()
            event._state = _TRIGGERED
            event._value = item
            event._ok = True
            event.engine._lane.append(event)
        else:
            items = self._items
            items.append(item)
            depth = len(items)
            if depth > self.max_depth:
                self.max_depth = depth

    def get(self) -> Event:
        engine = self.engine
        pool = engine._event_pool
        event = pool.pop() if pool else Event(engine)
        if self._items:
            self.gets += 1
            event._state = _TRIGGERED
            event._value = self._items.popleft()
            event._ok = True
            engine._lane.append(event)
        else:
            event._state = _PENDING
            self._getters.append(event)
        return event

    def drain(self) -> List[Any]:
        """Remove and return all queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        self.gets += len(items)
        return items
