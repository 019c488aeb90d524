"""SimTask: a named simulated execution context with time accounting.

Every activity that consumes simulated time — application processes, the
paging daemon, the releaser, prefetch worker threads — runs as a
:class:`SimTask`.  The task owns the :class:`~repro.sim.stats.TimeBuckets`
that Figure 7's stacked bars are built from and provides generator helpers
that advance the clock while charging the right bucket.  Each takes its
step in place through :meth:`~repro.sim.engine.Engine.advance` when it is
the engine's next one, and yields a timeout otherwise.
"""

from __future__ import annotations

from repro.sim.engine import Engine, Event
from repro.sim.stats import TimeBuckets
from repro.sim.sync import Lock

__all__ = ["SimTask"]


class SimTask:
    """A named time-consuming context within the simulation."""

    def __init__(self, engine: Engine, name: str) -> None:
        self.engine = engine
        self.name = name
        self.buckets = TimeBuckets()

    # -- time helpers (all are generators; use ``yield from``) -------------
    def spend(self, seconds: float, bucket: str):
        """Advance the clock by ``seconds``, charged to ``bucket``."""
        if seconds > 0:
            engine = self.engine
            if not engine.advance(seconds):
                yield engine.timeout(seconds)
            self.buckets.add(bucket, seconds)

    # user/system/waits add to the bucket attribute directly rather than via
    # TimeBuckets.add: the name validation there is measurable at the rate
    # these run, and the bucket is fixed at each of these call sites.
    def user(self, seconds: float):
        if seconds > 0:
            engine = self.engine
            if not engine.advance(seconds):
                yield engine.timeout(seconds)
            self.buckets.user += seconds

    def system(self, seconds: float):
        if seconds > 0:
            engine = self.engine
            if not engine.advance(seconds):
                yield engine.timeout(seconds)
            self.buckets.system += seconds

    def wait_io(self, event: Event):
        """Wait on an event, charging the elapsed time to I/O stall."""
        started = self.engine._now
        value = yield event
        self.buckets.stall_io += self.engine._now - started
        return value

    def wait_memory(self, event: Event):
        """Wait on an event, charging the elapsed time to memory stall."""
        started = self.engine._now
        value = yield event
        self.buckets.stall_memory += self.engine._now - started
        return value

    def lock_acquire(self, lock: Lock):
        """Acquire a lock; queueing time is a memory-system stall."""
        started = self.engine._now
        yield lock.acquire(self)
        self.buckets.stall_memory += self.engine._now - started

    def sleep(self, seconds: float):
        """Advance the clock without charging any bucket (idle time)."""
        if seconds > 0:
            engine = self.engine
            if not engine.advance(seconds):
                yield engine.timeout(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimTask({self.name})"
