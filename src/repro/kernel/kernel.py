"""The kernel façade: wires the VM, swap, daemons, and policy modules.

:class:`Kernel` is the single object experiments construct; it owns the
simulated machine.  :class:`KernelProcess` is the handle a workload driver
uses: it couples an address space with a :class:`~repro.sim.task.SimTask`
and provides the batched touch interface that keeps resident accesses (the
overwhelmingly common case) off the event queue.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimScale
from repro.disk.swap import StripedSwap
from repro.kernel.paging_directed import PagingDirectedPm
from repro.kernel.policy_module import PolicyRegistry
from repro.sim.engine import Engine
from repro.sim.task import SimTask
from repro.vm.system import VmSystem

__all__ = ["Kernel", "KernelProcess"]


class KernelProcess:
    """A simulated process: address space + execution context.

    Touch protocol (performance-critical):

    - ``touch(vpn, write)`` returns ``None`` on a resident hit, after
      accumulating the per-touch cost into a pending user-time batch;
    - otherwise it returns a generator the caller must ``yield from`` —
      the fault path, which first flushes the pending batch so simulated
      time stays causally ordered.

    Callers should also periodically ``yield from flush_if_due()`` so that
    long stretches of resident compute become visible to the daemons.
    """

    def __init__(self, kernel: "Kernel", name: str) -> None:
        self.kernel = kernel
        self.engine = kernel.engine
        self.name = name
        self.aspace = kernel.vm.create_address_space(name)
        self.task = SimTask(kernel.engine, name)
        self.pending_user = 0.0
        self._quantum = kernel.scale.time_quantum_s
        # Hot-path bindings: touch() runs once per page touch, so the
        # kernel.vm / kernel.scale.machine attribute chains are hoisted here.
        self._touch_fast = kernel.vm.touch_fast
        self._resident_touch_s = kernel.scale.machine.resident_touch_s

    # -- time batching ---------------------------------------------------
    def charge(self, seconds: float) -> None:
        """Accumulate user compute time without touching the event queue."""
        self.pending_user += seconds

    def flush(self):
        """Process generator: emit the pending user-time batch."""
        pending = self.pending_user
        if pending > 0:
            self.pending_user = 0.0
            engine = self.engine
            if not engine.advance(pending):
                yield engine.timeout(pending)
            self.task.buckets.user += pending

    def flush_if_due(self):
        if self.pending_user >= self._quantum:
            yield from self.flush()

    # -- memory access ------------------------------------------------------
    def touch(self, vpn: int, write: bool = False):
        """Fast-path touch; returns None on hit, else the fault generator."""
        if self._touch_fast(self.aspace, vpn, write):
            self.pending_user += self._resident_touch_s
            return None
        return self._fault(vpn, write)

    def _fault(self, vpn: int, write: bool):
        # flush() inlined: the batch is almost always non-empty here, and
        # the fault path runs often enough that the extra generator frame
        # (plus task.user's) showed up in profiles.
        pending = self.pending_user
        if pending > 0:
            self.pending_user = 0.0
            engine = self.engine
            if not engine.advance(pending):
                yield engine.timeout(pending)
            self.task.buckets.user += pending
        kind = yield from self.kernel.vm.fault(self.task, self.aspace, vpn, write)
        return kind

    def run_touches(self, start: int, count: int, write: bool, secs_per_page: float):
        """Process generator: execute one ``('T', start, count, write, s)``
        run-length op — ``count`` sequential full-page touches, each charged
        ``s`` of compute.

        Add-for-add identical to the unbatched stream (per page: charge,
        flush-if-due, touch, flush-if-due; the fault path on a miss), so
        quantum flushes land on the same checkpoints with bit-identical
        accumulated values.  The batch is kept in a local mirror of
        ``pending_user``, synced around every yield.
        """
        quantum = self._quantum
        r = self._resident_touch_s
        touch_fast = self._touch_fast
        aspace = self.aspace
        pending = self.pending_user
        for vpn in range(start, start + count):
            pending += secs_per_page
            if pending >= quantum:
                self.pending_user = pending
                yield from self.flush()
                pending = 0.0
            if touch_fast(aspace, vpn, write):
                pending += r
                if pending >= quantum:
                    self.pending_user = pending
                    yield from self.flush()
                    pending = 0.0
            else:
                self.pending_user = pending
                yield from self._fault(vpn, write)
                pending = self.pending_user
        self.pending_user = pending

    def touch_now(self, vpn: int, write: bool = False):
        """Process generator: one touch, taking the fault path on a miss;
        returns the fault kind, or None on a hit.  A convenience for tests
        that set up page state one touch at a time."""
        fault = self.touch(vpn, write)
        if fault is not None:
            kind = yield from fault
            return kind
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelProcess({self.name})"


class Kernel:
    """The simulated machine: VM + swap + daemons + policy modules."""

    def __init__(
        self, engine: Engine, scale: SimScale, obs=None, faults=None, policy=None
    ) -> None:
        self.engine = engine
        self.scale = scale
        self.obs = obs
        # Fault injector (:class:`repro.faults.FaultInjector`), or None for
        # the ordinary fault-free machine.
        self.faults = faults
        if policy is None:
            # Imported lazily: repro.policies imports this module's siblings.
            from repro.policies import DEFAULT_POLICY, build_policy

            policy = build_policy(DEFAULT_POLICY)
        # The memory-policy triple (:class:`repro.policies.MemoryPolicy`)
        # decides what daemons exist and what PM each process gets.
        self.policy = policy
        self.swap = StripedSwap(engine, scale.disk, faults=faults)
        self.swap.obs = obs
        self.vm = VmSystem(engine, scale, self.swap)
        self.vm.obs = obs
        policy.configure(self)
        # Construction order matters for determinism: each daemon owns a
        # SimTask whose creation consumes engine sequence numbers, and the
        # golden digests pin the releaser-before-daemon order.
        self.releaser = policy.build_releaser(self)
        self.paging_daemon = policy.build_paging_daemon(self)
        self.vm.releaser = self.releaser
        self.vm.paging_daemon = self.paging_daemon
        self.registry = PolicyRegistry()
        self._started = False

    @classmethod
    def boot(
        cls, engine: Engine, scale: SimScale, obs=None, faults=None, policy=None
    ) -> "Kernel":
        """Construct and start the system daemons."""
        kernel = cls(engine, scale, obs=obs, faults=faults, policy=policy)
        kernel.start()
        return kernel

    def start(self) -> None:
        if not self._started:
            if self.paging_daemon is not None:
                self.paging_daemon.start()
            if self.releaser is not None:
                self.releaser.start()
            self._started = True

    # -- processes ------------------------------------------------------------
    def create_process(self, name: str) -> KernelProcess:
        return KernelProcess(self, name)

    def attach_policy(
        self, process: KernelProcess, mapped_range: Optional[range] = None
    ) -> PagingDirectedPm:
        """Attach the kernel's configured memory policy's PM to a process."""
        return self.policy.attach_process(self, process, mapped_range)

    def attach_paging_directed(
        self, process: KernelProcess, mapped_range: Optional[range] = None
    ) -> PagingDirectedPm:
        """Create a PagingDirected PM over the given page range (default:
        everything the process has mapped so far).

        This always attaches the paper's PM regardless of the kernel's
        configured policy — unit tests use it to poke the PagingDirected
        syscalls directly; experiment plumbing goes through
        :meth:`attach_policy`.
        """
        if mapped_range is None:
            mapped_range = range(0, process.aspace.mapped_pages)
        pm = PagingDirectedPm(self.vm, process.aspace, mapped_range)
        self.registry.attach(pm)
        return pm

    # -- reporting ------------------------------------------------------------
    @property
    def free_pages(self) -> int:
        return self.vm.freelist.free_count
