"""The simulated interactive task (Section 1.1).

"A simple program emulates the memory system behavior of an interactive
task by repeatedly touching a 1 MB data set, then sleeping for a fixed
amount of time. ... The 'response time' is the time to touch the entire
data set."

The task runs under the OS's *default* policies — no policy module, no
hints — because the whole point of the paper is that the interactive task
needs no modification: only the memory hog changes its behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import SimScale
from repro.kernel.kernel import Kernel, KernelProcess

__all__ = ["InteractiveTask", "SweepSample"]


@dataclass
class SweepSample:
    """One sweep through the data set."""

    start_time: float
    response_time: float
    hard_faults: int
    soft_faults: int
    rescues: int


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
        self.samples: List[SweepSample] = []
        self._stop = False

    def stop(self) -> None:
        self._stop = True

    # -- steady-state statistics -------------------------------------------
    def mean_response(self, skip_warmup: int = 1) -> float:
        """Mean response over sweeps after the cold-start warmup."""
        samples = self.samples[skip_warmup:] or self.samples
        if not samples:
            return 0.0
        return sum(s.response_time for s in samples) / len(samples)

    def mean_hard_faults(self, skip_warmup: int = 1) -> float:
        samples = self.samples[skip_warmup:] or self.samples
        if not samples:
            return 0.0
        return sum(s.hard_faults for s in samples) / len(samples)

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
            self.samples.append(
                SweepSample(
                    start_time=start,
                    response_time=engine._now - start,
                    hard_faults=stats.hard_faults - hard0,
                    soft_faults=stats.soft_faults - soft0,
                    rescues=stats.rescues - rescues0,
                )
            )
            yield from process.task.sleep(
                max(self.sleep_time_s, self.MIN_CYCLE_S)
            )
