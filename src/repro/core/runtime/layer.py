"""The run-time layer proper: filters, worker pool, and release policy.

Data path (Figure 6 of the paper):

- compiled code calls :meth:`RuntimeLayer.handle_prefetch` /
  :meth:`handle_release` inline — their filtering cost is charged to the
  application's user time, which is how the run-time overhead appears in
  Figure 7's bars;
- surviving prefetches are queued to the worker pool (the pthreads), which
  issues them to the PagingDirected PM and waits for the I/O;
- surviving releases are issued immediately (aggressive policy) or buffered
  by priority and drained when the shared page shows usage close to the
  OS-recommended upper limit (buffering policy).

The two "obviously bad release" filters from Section 3.3 are implemented
exactly: the bitmap check, and the per-tag one-behind filter ("the releases
issued by the run-time layer are thus always one or more iterations behind
those identified by the compiler").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.config import RuntimeParams
from repro.core.runtime.buffering import ReleaseBuffer
from repro.core.runtime.policies import VersionConfig
from repro.faults import HintFaultModel
from repro.kernel.kernel import KernelProcess
from repro.kernel.paging_directed import PagingDirectedPm
from repro.sim.sync import Store
from repro.sim.task import SimTask

__all__ = ["RuntimeLayer", "RuntimeStats"]


@dataclass
class RuntimeStats:
    """Hint-path accounting for the experiment reports."""

    prefetch_hints: int = 0
    prefetch_filtered_bitmap: int = 0
    prefetch_filtered_inflight: int = 0
    prefetch_enqueued: int = 0
    release_hints: int = 0
    release_pages_hinted: int = 0
    release_filtered_bitmap: int = 0
    release_filtered_same_page: int = 0
    release_pages_issued: int = 0
    release_pages_buffered: int = 0
    pressure_drains: int = 0
    # Injected hint corruption (all zero outside chaos experiments).
    hints_dropped: int = 0
    hints_spurious: int = 0
    hints_mistimed: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


class RuntimeLayer:
    """Per-process run-time layer instance."""

    def __init__(
        self,
        process: KernelProcess,
        pm: PagingDirectedPm,
        params: RuntimeParams,
        version: VersionConfig,
        faults: Optional[HintFaultModel] = None,
    ) -> None:
        self.process = process
        self.pm = pm
        self.params = params
        self.version = version
        self.faults = faults
        self.engine = process.engine
        self.stats = RuntimeStats()
        self.buffer = ReleaseBuffer(drain_newest_first=params.drain_newest_first)
        self._last_release: Dict[int, Tuple[int, ...]] = {}
        self._last_priority: Dict[int, int] = {}
        self._inflight: Set[int] = set()
        self._drain_armed = True
        self._queue = Store(self.engine, name=f"{process.name}-rt-queue")
        # Hot-path bindings for the inline hint filters, which run once per
        # compiler hint: the shared page's bitmap set, and the per-page
        # filter cost.  The bitmap set's identity is stable for the PM's
        # lifetime, so membership tests can skip the method hop.
        self._bits = pm.shared_page._bits
        self._hint_filter_s = params.hint_filter_s
        self._emit_prefetch = version.prefetch
        self._emit_release = version.release
        self._workers: List[SimTask] = []
        if version.prefetch:
            for index in range(params.prefetch_threads):
                task = SimTask(self.engine, f"{process.name}-pfthread{index}")
                self._workers.append(task)
                self.engine.process(self._worker(task), name=task.name)

    # -- fault injection --------------------------------------------------------
    def _corrupted(self, op: str, vpns: Sequence[int]) -> Optional[Sequence[int]]:
        """Apply the fault plan's hint corruption, if any.

        Runs *before* the layer's own filters — a corrupted hint is exactly
        what a buggy compiler would hand this layer, and the paper's claim
        is that everything downstream must cope.  Returns ``None`` for a
        dropped hint.
        """
        if self.faults is None:
            return vpns
        return self.faults.corrupt(op, vpns, self.pm.mapped_range, self.stats)

    # -- prefetch hints --------------------------------------------------------
    def handle_prefetch(self, tag: int, vpns: Sequence[int]) -> None:
        """Inline handling of one compiler prefetch hint (synchronous)."""
        if not self._emit_prefetch:
            return
        if self.faults is not None:
            corrupted = self._corrupted("prefetch", vpns)
            if corrupted is None:
                return
            vpns = corrupted
        n = len(vpns)
        self.process.pending_user += self._hint_filter_s * n
        stats = self.stats
        stats.prefetch_hints += n
        bits = self._bits
        inflight = self._inflight
        queue_put = self._queue.put
        for vpn in vpns:
            if vpn in bits:
                stats.prefetch_filtered_bitmap += 1
            elif vpn in inflight:
                stats.prefetch_filtered_inflight += 1
            else:
                inflight.add(vpn)
                stats.prefetch_enqueued += 1
                queue_put(("pf", vpn))

    # -- release hints -----------------------------------------------------------
    def handle_release(self, tag: int, vpns: Sequence[int], priority: int) -> None:
        """Inline handling of one compiler release hint (synchronous)."""
        if not self._emit_release:
            return
        if self.faults is not None:
            corrupted = self._corrupted("release", vpns)
            if corrupted is None:
                return
            vpns = corrupted
        n = len(vpns)
        self.process.pending_user += self._hint_filter_s * n
        stats = self.stats
        stats.release_hints += 1
        stats.release_pages_hinted += n
        # Filter 1: the bitmap check — drop pages not in memory.
        bits = self._bits
        pages = tuple(filter(bits.__contains__, vpns))
        stats.release_filtered_bitmap += n - len(pages)
        # Filter 2: the one-behind tag filter.  Record this request; handle
        # the previously recorded one only if it names different pages.
        last_release = self._last_release
        previous = last_release.get(tag)
        prev_priority = self._last_priority.get(tag, priority)
        last_release[tag] = pages
        self._last_priority[tag] = priority
        if previous is None:
            return
        if previous == pages:
            stats.release_filtered_same_page += len(previous)
            return
        if previous:
            self._handle_surviving(tag, previous, prev_priority)

    def flush_tag_filters(self) -> None:
        """Program end: hand the recorded last requests onward.

        (The real system simply leaked these few pages per static site; we
        flush them so accounting is exact across repeats.)
        """
        for tag, pages in list(self._last_release.items()):
            if pages:
                self._handle_surviving(tag, pages, self._last_priority.get(tag, 0))
            del self._last_release[tag]

    # -- policy ------------------------------------------------------------------
    def _handle_surviving(
        self, tag: int, pages: Tuple[int, ...], priority: int
    ) -> None:
        if not self.version.buffered:
            self._issue(pages)
            return
        self.process.charge(self.params.buffer_insert_s)
        if priority <= 0:
            # "Requests with no reuse are issued to the OS after passing
            # the simple checks."
            self._issue(pages)
            return
        self.buffer.add(tag, pages, priority)
        self.stats.release_pages_buffered += len(pages)
        self._check_pressure()

    def _check_pressure(self) -> None:
        """Drain buffered releases if usage is close to the upper limit.

        The trigger is edge-triggered with hysteresis (Section 2.3.2:
        release "as infrequently as possible to minimize overhead"): after
        a drain it re-arms only once headroom has recovered by
        ``drain_rearm_batches`` release batches.
        """
        shared = self.pm.shared_page
        headroom = shared.upper_limit - shared.current_usage
        params = self.params
        if not self._drain_armed:
            rearm_at = params.limit_headroom_pages + (
                params.drain_rearm_batches * params.release_batch_pages
            )
            if headroom >= rearm_at:
                self._drain_armed = True
            else:
                return
        if headroom > params.limit_headroom_pages:
            return
        self._drain_armed = params.drain_rearm_batches == 0
        batches = self.buffer.drain(params.release_batch_pages)
        if not batches:
            self._drain_armed = True  # nothing buffered; stay responsive
            return
        self.stats.pressure_drains += 1
        for _tag, pages in batches:
            self._issue(pages)

    def _issue(self, pages: Tuple[int, ...]) -> None:
        self.stats.release_pages_issued += len(pages)
        self._queue.put(("rel", pages))

    # -- the worker pool -----------------------------------------------------------
    def _worker(self, task: SimTask):
        """One pthread: issues PM requests and waits for their I/O.

        The PM's :meth:`~repro.kernel.paging_directed.PagingDirectedPm.prefetch`
        and :meth:`~repro.kernel.paging_directed.PagingDirectedPm.release`
        generators are inlined here — identical bookkeeping, syscall charge,
        and VM calls, minus one delegating frame per request on the layer's
        hottest path.  The inlining is a transcription of the *base class*
        bodies, so it only applies when the PM actually uses them: a policy
        that overrides prefetch/release (user-mode frees inline instead of
        handing to the releaser daemon) gets the delegating call.
        """
        queue_get = self._queue.get
        inflight_discard = self._inflight.discard
        pm = self.pm
        inline_prefetch = type(pm).prefetch is PagingDirectedPm.prefetch
        inline_release = type(pm).release is PagingDirectedPm.release
        vm = pm.vm
        aspace = pm.aspace
        mapped = pm.mapped_range
        shared = pm.shared_page
        prefetch_page = vm.prefetch_page
        request_release = vm.request_release
        syscall_s = pm._syscall_s
        timeout = self.engine.timeout
        advance = self.engine.advance
        buckets = task.buckets
        while True:
            item = yield queue_get()
            if item[0] == "pf":
                vpn = item[1]
                if not inline_prefetch:
                    try:
                        yield from pm.prefetch(task, vpn)
                    finally:
                        inflight_discard(vpn)
                    continue
                try:
                    if vpn not in mapped:
                        raise ValueError(f"vpn {vpn} outside {pm!r}")
                    pm.prefetch_requests += 1
                    if vm.obs is not None:
                        vm.obs.emit(
                            "kernel.syscall",
                            {"syscall": "pm_prefetch", "aspace": aspace.name},
                        )
                    if syscall_s > 0:
                        if not advance(syscall_s):
                            yield timeout(syscall_s)
                        buckets.system += syscall_s
                    yield from prefetch_page(task, aspace, vpn)
                    shared.refresh()
                finally:
                    inflight_discard(vpn)
            else:
                if not inline_release:
                    yield from pm.release(task, item[1])
                    continue
                vpns = item[1]
                pages = [v for v in vpns if v in mapped]
                if len(pages) != len(vpns):
                    raise ValueError("release request outside the PM's range")
                pm.release_requests += 1
                pm.release_pages_requested += len(pages)
                if vm.obs is not None:
                    vm.obs.emit(
                        "kernel.syscall",
                        {"syscall": "pm_release", "aspace": aspace.name},
                    )
                if syscall_s > 0:
                    if not advance(syscall_s):
                        yield timeout(syscall_s)
                    buckets.system += syscall_s
                request_release(aspace, pages)

    # -- reporting ----------------------------------------------------------------
    @property
    def backlog(self) -> int:
        return len(self._queue)

    def worker_time(self):
        """Combined time buckets across the worker pool."""
        from repro.sim.stats import TimeBuckets

        total = TimeBuckets()
        for task in self._workers:
            total = total.merged_with(task.buckets)
        return total
