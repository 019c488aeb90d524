"""The simulated interactive task (Section 1.1).

"A simple program emulates the memory system behavior of an interactive
task by repeatedly touching a 1 MB data set, then sleeping for a fixed
amount of time. ... The 'response time' is the time to touch the entire
data set."

The task runs under the OS's *default* policies — no policy module, no
hints — because the whole point of the paper is that the interactive task
needs no modification: only the memory hog changes its behaviour.

At sleep 0 the task sweeps every simulated millisecond, so both ends of
its record are hot.  :meth:`InteractiveTask.run` touches each sweep's
pages in one inline pass whose time accounting and yielded events match
the per-page ``KernelProcess.touch`` loop exactly.  Each sweep is recorded
in a :class:`SweepLog`: five flat columns rather than one
:class:`SweepSample` object per sweep, because every result crosses the
pool's wire and the result cache, where columns pickle, load and encode
several times faster.  The log reads like a list of samples and its
``repr`` is that list's, byte for byte, so the canonical result text is
unchanged; it renders each distinct (response time, faults, rescues)
tail once, since a sleep-0 log repeats a few dozen tails over thousands
of sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import add
from typing import Iterator, List, Optional, Union

from repro.config import SimScale
from repro.kernel.kernel import Kernel, KernelProcess
from repro.vm.frames import F_IN_TRANSIT, F_REFERENCED, F_SW_VALID

__all__ = ["InteractiveTask", "SweepLog", "SweepSample"]


@dataclass
class SweepSample:
    """One sweep through the data set."""

    start_time: float
    response_time: float
    hard_faults: int
    soft_faults: int
    rescues: int


#: The text ``SweepSample``'s dataclass repr puts before the start time.
#: What follows the start time, the sample's tail, depends only on the
#: other four fields.
_HEAD = f"{SweepSample.__qualname__}({fields(SweepSample)[0].name}="


def _tail(key) -> str:
    """``SweepSample``'s repr after the start time, for the other four fields."""
    return repr(SweepSample(None, *key))[len(_HEAD) + len("None"):]


def _renders_by_value(column) -> bool:
    """Do equal values in ``column`` always print alike?  Yes when they
    share one exact type and, unless that is ``int``, hold no zero (which
    could be ``-0.0`` beside ``0.0``)."""
    kinds = set(map(type, column))
    return len(kinds) <= 1 and (kinds <= {int} or 0 not in column)


@dataclass(repr=False)
class SweepLog:
    """An interactive task's sweeps as columns, read like ``List[SweepSample]``.

    ``len``, indexing (negative too), iteration and slices (which return
    lists of samples) behave as on the list form, and ``repr`` is the
    list's byte for byte — the canonical result text embeds it.
    """

    start_time: List[float] = field(default_factory=list)
    response_time: List[float] = field(default_factory=list)
    hard_faults: List[int] = field(default_factory=list)
    soft_faults: List[int] = field(default_factory=list)
    rescues: List[int] = field(default_factory=list)

    def record(
        self,
        start_time: float,
        response_time: float,
        hard_faults: int,
        soft_faults: int,
        rescues: int,
    ) -> None:
        """Append one sweep."""
        self.start_time.append(start_time)
        self.response_time.append(response_time)
        self.hard_faults.append(hard_faults)
        self.soft_faults.append(soft_faults)
        self.rescues.append(rescues)

    def __len__(self) -> int:
        return len(self.start_time)

    def __iter__(self) -> Iterator[SweepSample]:
        return map(
            SweepSample,
            self.start_time,
            self.response_time,
            self.hard_faults,
            self.soft_faults,
            self.rescues,
        )

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[SweepSample, List[SweepSample]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return SweepSample(
            self.start_time[index],
            self.response_time[index],
            self.hard_faults[index],
            self.soft_faults[index],
            self.rescues[index],
        )

    def __repr__(self) -> str:
        # repr(list(self)), byte for byte, with each distinct tail rendered
        # once by SweepSample's own repr: a sleep-0 log repeats a few dozen
        # tails over thousands of sweeps, so per sweep only the start time
        # is formatted.
        columns = (self.response_time, self.hard_faults, self.soft_faults, self.rescues)
        if not all(map(_renders_by_value, columns)):
            return repr(list(self))
        keys = list(zip(*columns))
        tails = {key: _tail(key) for key in set(keys)}
        heads = map(_HEAD.__add__, map(repr, self.start_time))
        return "[" + ", ".join(map(add, heads, map(tails.__getitem__, keys))) + "]"


def _steady_mean(column: List[float], skip_warmup: int) -> float:
    values = column[skip_warmup:] or column
    return sum(values) / len(values) if values else 0.0


class InteractiveTask:
    """Touch ``pages`` pages, sleep, repeat; record per-sweep response.

    With ``sweeps`` given the task stops by itself once that many sweeps
    are recorded (after the last one's sleep); otherwise it runs until
    :meth:`stop` is called.
    """

    #: Minimum gap between sweeps even at sleep 0 — a zero-sleep toucher
    #: re-touches its (resident) pages thousands of times per second; one
    #: millisecond between sweeps keeps the pages just as hot while keeping
    #: the event count finite.
    MIN_CYCLE_S = 0.001

    def __init__(
        self,
        kernel: Kernel,
        scale: SimScale,
        sleep_time_s: float,
        name: str = "interactive",
        sweeps: Optional[int] = None,
    ) -> None:
        self.kernel = kernel
        self.scale = scale
        self.sleep_time_s = sleep_time_s
        self.process: KernelProcess = kernel.create_process(name)
        self.pages = scale.interactive_pages
        self.segment = self.process.aspace.map_segment("data", self.pages)
        self.samples = SweepLog()
        self.sweeps = sweeps
        self._stop = False

    def stop(self) -> None:
        self._stop = True

    # -- steady-state statistics -------------------------------------------
    def mean_response(self, skip_warmup: int = 1) -> float:
        """Mean response over sweeps after the cold-start warmup."""
        return _steady_mean(self.samples.response_time, skip_warmup)

    def mean_hard_faults(self, skip_warmup: int = 1) -> float:
        return _steady_mean(self.samples.hard_faults, skip_warmup)

    # -- the task body --------------------------------------------------------
    def run(self):
        """Process generator: sweep, record, sleep, repeat until stopped.

        Each sweep is one inline pass, add-for-add and yield-for-yield the
        per-page ``process.touch`` / ``process.flush()`` /
        ``task.sleep()`` loop: a hit is one page-table probe and one mask
        compare (``touch_fast``'s test) that adds the resident-touch cost to
        a local mirror of ``pending_user``; a miss flushes that batch and
        takes ``vm.fault`` (``KernelProcess._fault``); the sweep ends with
        the batch's flush and the sleep, each one ``engine.timeout``, taken
        in place by ``engine.advance`` when it is the engine's next step.
        The sleep is at least ``MIN_CYCLE_S`` because validated specs hold
        no negative or non-finite sleep.  The ``sweeps`` bound is checked
        after each recorded sweep, since a sleep taken in place never
        leaves the loop.
        """
        process = self.process
        aspace = process.aspace
        stats = aspace.stats
        pt = aspace.pt
        engine = self.kernel.engine
        timeout = engine.timeout
        advance = engine.advance
        task = process.task
        buckets = task.buckets
        vm_fault = self.kernel.vm.fault
        flags = self.kernel.vm._flags
        in_mask = F_SW_VALID | F_IN_TRANSIT
        resident_touch_s = process._resident_touch_s
        segment = self.segment
        log = self.samples
        delay = max(self.sleep_time_s, self.MIN_CYCLE_S)
        limit = self.sweeps
        while not self._stop:
            start = engine._now
            hard0 = stats.hard_faults
            soft0 = stats.soft_faults
            rescues0 = stats.rescues
            pending = process.pending_user
            for vpn in segment:
                index = pt[vpn]
                if index >= 0 and flags[index] & in_mask == F_SW_VALID:
                    flags[index] |= F_REFERENCED
                    pending += resident_touch_s
                else:
                    process.pending_user = 0.0
                    if pending > 0:
                        if not advance(pending):
                            yield timeout(pending)
                        buckets.user += pending
                    yield from vm_fault(task, aspace, vpn, False)
                    pending = 0.0
            process.pending_user = 0.0
            if pending > 0:
                if not advance(pending):
                    yield timeout(pending)
                buckets.user += pending
            log.record(
                start,
                engine._now - start,
                stats.hard_faults - hard0,
                stats.soft_faults - soft0,
                stats.rescues - rescues0,
            )
            if limit is not None and len(log) >= limit:
                self._stop = True
            if not advance(delay):
                yield timeout(delay)
