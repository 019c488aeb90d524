"""The simulated interactive task (Section 1.1).

"A simple program emulates the memory system behavior of an interactive
task by repeatedly touching a 1 MB data set, then sleeping for a fixed
amount of time. ... The 'response time' is the time to touch the entire
data set."

The task runs under the OS's *default* policies — no policy module, no
hints — because the whole point of the paper is that the interactive task
needs no modification: only the memory hog changes its behaviour.

Each sweep is recorded in a :class:`SweepLog`: five flat columns rather
than one :class:`SweepSample` object per sweep.  A sleep-0 run at tiny
scale records thousands of sweeps, and every result crosses the pool's
wire and the result cache, where columns pickle, load and encode several
times faster.  The log reads like a list of samples and its ``repr`` is
that list's, byte for byte, so the canonical result text is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Union

from repro.config import SimScale
from repro.kernel.kernel import Kernel, KernelProcess

__all__ = ["InteractiveTask", "SweepLog", "SweepSample"]


@dataclass
class SweepSample:
    """One sweep through the data set."""

    start_time: float
    response_time: float
    hard_faults: int
    soft_faults: int
    rescues: int


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
        return repr(list(self))


def _steady_mean(column: List[float], skip_warmup: int) -> float:
    values = column[skip_warmup:] or column
    return sum(values) / len(values) if values else 0.0


class InteractiveTask:
    """Touch ``pages`` pages, sleep, repeat; record per-sweep response."""

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
    ) -> None:
        self.kernel = kernel
        self.scale = scale
        self.sleep_time_s = sleep_time_s
        self.process: KernelProcess = kernel.create_process(name)
        self.pages = scale.interactive_pages
        self.segment = self.process.aspace.map_segment("data", self.pages)
        self.samples = SweepLog()
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
        """Process generator: sweep, record, sleep, repeat until stopped."""
        process = self.process
        stats = process.aspace.stats
        touch = process.touch
        engine = self.kernel.engine
        while not self._stop:
            start = engine._now
            hard0 = stats.hard_faults
            soft0 = stats.soft_faults
            rescues0 = stats.rescues
            for vpn in self.segment:
                fault = touch(vpn, write=False)
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
            yield from process.task.sleep(
                max(self.sleep_time_s, self.MIN_CYCLE_S)
            )
