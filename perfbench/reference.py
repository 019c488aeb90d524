"""A fixed reference workload that tracks the host's speed.

The benchmark's host is shared, and its speed wanders by up to 1.6x over
tens of seconds (co-tenant load; no steal time, so process CPU time wanders
with it).  ``Reference.time_s`` times a fixed unit of pure-Python work made
of three parts, each sensitive to a different kind of contention the
simulator meets: a tiny discrete-event simulation of paging (generator
processes on an event list, a frame table swept by a clock hand, flat page
tables), an arithmetic loop, and a pointer chase through an array larger
than the caches.  It lives here, not in ``repro``, so no change to the
program moves it.  The benchmark samples it between set-ups and passes and
reports its timings in reference-host seconds (see ``run.py``).
"""

from __future__ import annotations

import time
from array import array
from bisect import insort
from typing import List

#: Entries in the pointer-chase array (8 bytes each): past the L2 caches, as
#: the simulator's heap is.
CHASE_ENTRIES = 1 << 20


class _Sim:
    """A tiny event-list simulator of processes that fault pages in."""

    __slots__ = ("now", "events", "seq", "flags", "owner", "hand", "table", "faults")

    def __init__(self, frames: int, pages: int) -> None:
        self.now = 0.0
        self.events: List[tuple] = []
        self.seq = 0
        self.flags = [0] * frames
        self.owner = [-1] * frames
        self.hand = 0
        self.table = [-1] * pages
        self.faults = 0

    def schedule(self, delay: float, proc) -> None:
        self.seq += 1
        insort(self.events, (self.now + delay, self.seq, proc))

    def evict(self) -> int:
        flags, frames = self.flags, len(self.flags)
        while True:
            hand = self.hand
            self.hand = (hand + 1) % frames
            if flags[hand] & 1:
                flags[hand] &= ~1
                continue
            victim = self.owner[hand]
            if victim >= 0:
                self.table[victim] = -1
            return hand

    def touch(self, page: int) -> float:
        frame = self.table[page]
        if frame >= 0:
            self.flags[frame] |= 1
            return 1e-6
        self.faults += 1
        frame = self.evict()
        self.table[page] = frame
        self.owner[frame] = page
        self.flags[frame] = 1
        return 1e-3

    def process(self, base: int, span: int, stride: int, steps: int):
        page = base
        for _ in range(steps):
            cost = 0.0
            for _ in range(8):
                cost += self.touch(page)
                page = base + (page - base + stride) % span
            yield cost

    def run(self, procs) -> int:
        for proc in procs:
            self.schedule(0.0, proc)
        events = self.events
        while events:
            self.now, _, proc = events.pop(0)
            delay = next(proc, None)
            if delay is not None:
                self.schedule(delay, proc)
        return self.faults


def simulate() -> int:
    """The paging part; returns its fault count."""
    sim = _Sim(frames=3000, pages=10240)
    procs = [sim.process(i * 2048, 2048 + 512 * i, 1 + 2 * i, 3000) for i in range(4)]
    return sim.run(procs)


def arithmetic() -> int:
    """The arithmetic part."""
    x = 0
    for i in range(600_000):
        x = (x * 31 + i) % 1_000_003
    return x


class Reference:
    """One unit of reference work, and its timing."""

    def __init__(self) -> None:
        # i -> (a i + 1) mod 2^k with a = 1 mod 4 is a full-period LCG, so
        # the chase visits every entry once, in a scattered order.
        mask = CHASE_ENTRIES - 1
        self.chase = array("q", ((2654435761 * i + 1) & mask for i in range(CHASE_ENTRIES)))

    def pointer_chase(self, steps: int = 600_000) -> int:
        """The memory part: dependent loads through the array."""
        chase = self.chase
        i = total = 0
        for _ in range(steps):
            i = chase[i]
            total += i
        return total

    def work(self) -> None:
        simulate()
        arithmetic()
        self.pointer_chase()

    def time_s(self) -> float:
        """Host seconds of one unit of reference work."""
        started = time.perf_counter()
        self.work()
        return time.perf_counter() - started
