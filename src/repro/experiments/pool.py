"""The warm-worker execution pool: the one executor behind every parallel surface.

Every throughput surface in the repository — grid figures through
:func:`~repro.experiments.runner.run_specs`, sweeps with ``jobs > 1``
(:mod:`repro.experiments.sweep`, on a private pool), and the service's
jobs (:mod:`repro.service.jobs`, sweeps run one spec at a time on the
shared pool) — runs here, and this module is the only code that spawns,
feeds, watches and reaps worker processes.  It
amortizes what per-grid process churn used to cost:

- **Warm workers** — long-lived child processes that import once and stay
  resident.  A process-wide shared pool (:func:`get_pool`) survives across
  grids, bench repeats, and service jobs, so only the first dispatch pays
  interpreter startup.
- **Pipelined dispatch** — one spec per frame, and at most two per
  worker: the one it runs and the next, buffered in its pipe, so a worker
  never idles on a round trip and a slow spec holds back at most one
  other.
- **Zero-pickle frames** — specs and results travel as canonical-JSON
  frames (:mod:`repro.experiments.wire`), not pickles.
- **Snapshot/reset** — workers keep :mod:`repro.machine`'s workload
  template cache warm across same-family specs; hit/miss deltas ride back
  on every result frame as telemetry.
- **Watchdog and store** — a pool built with ``hang_timeout_s`` has its
  workers beat on the pipe and kills a busy worker whose beats stop (the
  wedge ``SIGALRM`` cannot interrupt); a pool built with ``store_dir``
  stores each success under ``<store_dir>/<worker>/<key>.pkl`` before its
  result frame is sent, so a dispatcher killed between the two finds the
  result on disk.  Without them workers send no beats and store nothing.

Byte-identity is the contract: a spec executed here produces exactly the
result the inline path produces; serial execution (``jobs=1``) is the
reference path.

Worker reuse raises a hygiene problem process churn used to hide: state a
spec leaves behind (a leaked ``SIGALRM`` timer or handler) would flow into
the next spec, so the deadline timer is forcibly disarmed between specs.

Crash containment: when a worker dies or hangs, its first outstanding
spec is the suspect — requeued once, alone on an idle worker, then failed
with ``kind="crash"`` or ``kind="hang"`` — and the spec buffered behind
it requeues unblamed at the same attempt; finished specs never run
again, and a spec that never reached a worker is never blamed.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import machine as machine_mod
from repro.experiments import wire
from repro.experiments.runner import (
    ExperimentFailure,
    execute_guarded,
    spec_key,
    store_cached,
)
from repro.machine import ExperimentResult

__all__ = [
    "EMPTY_POOL_CHAOS",
    "PoolChaos",
    "WarmPool",
    "get_pool",
    "recv_frame",
    "send_frame",
    "shutdown_shared_pool",
    "worker_entry",
]

#: How many times a crash or hang suspect goes back to the queue before it
#: fails.  The simulations are deterministic, so one requeue separates
#: environmental flakes (OOM kill, stray signal) from specs that reliably
#: take their worker down.
REQUEUE_LIMIT = 1

#: Workers beat this many times per ``hang_timeout_s``, so one late beat
#: is never mistaken for a hang.
BEATS_PER_HANG_TIMEOUT = 4

_LOSS_MESSAGES = {
    "crash": "worker process died while running this spec",
    "hang": "worker heartbeat lost (hung beyond the SIGALRM deadline)",
}


# -- chaos (worker-side fault injection, test-only) -------------------------


@dataclass(frozen=True)
class PoolChaos:
    """Fault injection for the workers themselves, in the spirit of
    :mod:`repro.faults`: declarative, deterministic, zero machinery when
    empty.

    ``crash_keys`` makes a worker die (``os._exit``) when it picks up one
    of those specs; ``hang_keys`` makes it wedge with its heartbeat
    silenced — exactly the beyond-SIGALRM hang the watchdog exists for.
    Injection applies only while the spec's attempt number is
    ``<= max_attempt``, so ``max_attempt=1`` models an environmental flake
    (the requeue succeeds) and the default models a poison spec (the
    requeue fails too).
    """

    crash_keys: Tuple[str, ...] = ()
    hang_keys: Tuple[str, ...] = ()
    max_attempt: int = 10**9
    hang_s: float = 3600.0

    @property
    def enabled(self) -> bool:
        return bool(self.crash_keys or self.hang_keys)


EMPTY_POOL_CHAOS = PoolChaos()


# -- wire frames ------------------------------------------------------------


def send_frame(conn, frame: Dict[str, object]) -> None:
    conn.send_bytes(wire.encode(frame))


def recv_frame(conn) -> Dict[str, object]:
    return wire.decode(conn.recv_bytes())


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# -- worker side ------------------------------------------------------------


def _disarm_deadline() -> None:
    """Defense in depth between specs: whatever the previous spec did,
    no timer may survive into the next one."""
    if hasattr(signal, "SIGALRM"):
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        except (OSError, ValueError):
            pass


def worker_entry(
    conn,
    name: str,
    heartbeat_s: Optional[float],
    chaos: PoolChaos,
    store_dir: Optional[str],
) -> None:
    """Persistent worker loop.

    Pulls spec frames off the pipe, runs each through the guarded
    executor, pushes one result frame per spec.  With ``heartbeat_s`` set
    a thread beats on the pipe so the dispatcher's watchdog can see hangs;
    either way the thread watches ``os.getppid()`` and exits if the parent
    dies, so a SIGKILLed dispatcher never leaves orphans.  With
    ``store_dir`` set a success is stored under
    ``<store_dir>/<name>/<key>.pkl`` before its result frame is sent, and
    the frame carries no result.
    """
    # The fork copies the dispatcher's signal dispositions.  `repro serve`
    # installs a SIGTERM handler that merely sets an event — inherited by a
    # worker it would turn terminate() into a no-op, and exit-time joins in
    # the parent would block forever.  Workers answer to the pipe protocol:
    # SIGTERM must kill, and a terminal's Ctrl-C SIGINT is the parent's to
    # coordinate, not ours to crash on.
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "SIGINT"):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    store = Path(store_dir) / name if store_dir is not None else None
    send_lock = threading.Lock()
    beats_stopped = threading.Event()

    def _send(frame) -> bool:
        try:
            payload = wire.encode(frame)
            with send_lock:
                conn.send_bytes(payload)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _beats() -> None:
        period = heartbeat_s if heartbeat_s else 1.0
        while not beats_stopped.wait(period):
            if os.getppid() != parent:
                os._exit(2)  # dispatcher died; do not linger as an orphan
            if heartbeat_s is not None:
                if not _send({"frame": "heartbeat"}):
                    os._exit(2)

    threading.Thread(target=_beats, daemon=True).start()

    while True:
        try:
            frame = recv_frame(conn)
        except (EOFError, OSError, wire.WireError):
            break
        if frame.get("frame") == "stop":
            break
        if frame.get("frame") != "spec":
            continue
        key = frame["key"]
        if chaos.enabled and frame["attempt"] <= chaos.max_attempt:
            if key in chaos.crash_keys:
                os._exit(3)  # stands in for a segfault / OOM kill
            if key in chaos.hang_keys:
                beats_stopped.set()  # a wedge the watchdog must catch
                time.sleep(chaos.hang_s)
        _disarm_deadline()
        snap_before = machine_mod.template_counters()
        started = time.monotonic()
        outcome = execute_guarded(frame["spec"], frame["timeout_s"], frame["retries"])
        elapsed = time.monotonic() - started
        snap_after = machine_mod.template_counters()
        result_frame: Dict[str, object] = {
            "frame": "result",
            "index": frame["index"],
            "elapsed_s": elapsed,
            "snap_hits": snap_after["hits"] - snap_before["hits"],
            "snap_misses": snap_after["misses"] - snap_before["misses"],
        }
        if isinstance(outcome, ExperimentFailure):
            result_frame.update(
                status="failure",
                kind=outcome.kind,
                message=outcome.message,
                attempts=outcome.attempts,
            )
        elif store is not None:
            store_cached(store, key, outcome)
            result_frame["status"] = "ok"
        else:
            # Detach the spec: the dispatcher reattaches its own
            # object, so the frame carries only the result data.
            if isinstance(outcome, ExperimentResult):
                outcome.spec = None
            result_frame.update(status="ok", result=outcome)
        if not _send(result_frame):
            break
    try:
        conn.close()
    except OSError:
        pass


# -- dispatcher side --------------------------------------------------------


class _Worker:
    __slots__ = ("name", "process", "conn", "dispatches", "last_beat")

    def __init__(self, name, process, conn) -> None:
        self.name = name
        self.process = process
        self.conn = conn
        self.dispatches = 0
        self.last_beat = 0.0


Outcome = Union[ExperimentResult, ExperimentFailure, object]


class WarmPool:
    """A leasable set of persistent workers plus a pipelining dispatcher.

    Thread-safe: the service's job threads each lease workers through
    :meth:`run`/:meth:`run_one` concurrently (a worker pipe is only ever
    read and written by the thread that holds its lease).  Workers are
    spawned lazily up to ``workers`` and returned warm; the pool grows on
    demand (:meth:`grow`) and never shrinks until :meth:`shutdown`.

    ``hang_timeout_s`` turns on the heartbeat watchdog: workers beat
    ``BEATS_PER_HANG_TIMEOUT`` times per timeout, and a worker with work
    outstanding that is silent for ``hang_timeout_s`` is killed as hung.
    ``store_dir`` makes every success land in
    ``<store_dir>/<worker>/<key>.pkl`` before its result frame is sent.
    """

    def __init__(
        self,
        workers: int,
        chaos: Optional[PoolChaos] = None,
        hang_timeout_s: Optional[float] = None,
        store_dir: Optional[os.PathLike] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"pool needs at least 1 worker, got {workers}")
        self._target = int(workers)
        self._chaos = chaos if chaos is not None else EMPTY_POOL_CHAOS
        self._hang_timeout_s = hang_timeout_s
        self._heartbeat_s = (
            hang_timeout_s / BEATS_PER_HANG_TIMEOUT if hang_timeout_s is not None else None
        )
        self._store_dir = str(store_dir) if store_dir is not None else None
        self._ctx = _mp_context()
        self._cv = threading.Condition()
        self._idle: List[_Worker] = []
        self._alive = 0  # leased + idle
        self._seq = 0
        self._closed = False
        self._tlock = threading.Lock()
        self._counters = {
            "workers_spawned": 0,
            "dispatches": 0,
            "warm_dispatches": 0,
            "specs_dispatched": 0,
            "crashes": 0,
            "snapshot_hits": 0,
            "snapshot_misses": 0,
            "specs_done": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def workers(self) -> int:
        return self._target

    @property
    def closed(self) -> bool:
        return self._closed

    def grow(self, workers: int) -> None:
        with self._cv:
            if workers > self._target:
                self._target = int(workers)
                self._cv.notify_all()

    def shutdown(self) -> None:
        with self._cv:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._alive -= len(idle)
            self._cv.notify_all()
        for worker in idle:
            self._stop_worker(worker)

    def _stop_worker(self, worker: _Worker) -> None:
        try:
            send_frame(worker.conn, {"frame": "stop"})
        except (BrokenPipeError, OSError, wire.WireError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)

    # -- worker leasing ----------------------------------------------------

    def _spawn_locked(self) -> _Worker:
        self._seq += 1
        self._alive += 1
        name = f"pool-{self._seq}"
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_entry,
            args=(child_conn, name, self._heartbeat_s, self._chaos, self._store_dir),
            daemon=True,
            name=f"repro-{name}",
        )
        process.start()
        child_conn.close()
        with self._tlock:
            self._counters["workers_spawned"] += 1
        return _Worker(name, process, parent_conn)

    def _checkout(self) -> _Worker:
        """Lease a worker, blocking until one is available."""
        with self._cv:
            while True:
                if self._closed:
                    raise RuntimeError("pool is shut down")
                if self._idle:
                    return self._idle.pop()
                if self._alive < self._target:
                    return self._spawn_locked()
                self._cv.wait()

    def _try_checkout(self) -> Optional[_Worker]:
        with self._cv:
            if self._closed:
                return None
            if self._idle:
                return self._idle.pop()
            if self._alive < self._target:
                return self._spawn_locked()
            return None

    def _checkin(self, worker: _Worker) -> None:
        stop = False
        with self._cv:
            if self._closed:
                self._alive -= 1
                stop = True
            else:
                self._idle.append(worker)
                self._cv.notify()
        if stop:
            self._stop_worker(worker)

    def _discard(self, worker: _Worker) -> None:
        """Kill a dead, hung or abandoned worker and drop its lease so a
        replacement may be spawned."""
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.kill()
        worker.process.join(timeout=5.0)
        with self._cv:
            self._alive -= 1
            self._cv.notify()

    # -- dispatch ----------------------------------------------------------

    def run(
        self,
        specs: Sequence[object],
        timeout_s: Optional[float] = None,
        retries: int = 0,
        on_outcome: Optional[Callable[..., bool]] = None,
    ) -> List[Outcome]:
        """Run ``specs`` on warm workers; outcomes align with input order.

        Never raises for a spec's own sake: failures (error, timeout,
        crash, hang) come back as :class:`ExperimentFailure` values in
        their grid slots, exactly like serial execution.  With
        ``store_dir`` a success comes back as ``None``: it is in the store.

        ``on_outcome(index, outcome, attempt, worker, elapsed_s)`` hears
        each terminal outcome as it arrives, and each crash or hang
        suspect as it goes back to the queue (with ``requeued=True`` and
        the failure it would otherwise have been).  A true return stops
        the run: nothing more is dispatched, workers with work outstanding
        are killed, and slots that never finished come back as ``None``.
        """
        specs = list(specs)
        count = len(specs)
        if count == 0:
            return []
        keys = [spec_key(spec) for spec in specs]

        # Lease workers: at least one (blocking), more if free right now.
        want = min(self._target, count)
        leased = [self._checkout()]
        while len(leased) < want:
            worker = self._try_checkout()
            if worker is None:
                break
            leased.append(worker)

        pending = deque(range(count))
        attempts = [1] * count
        crash_counts: Dict[int, int] = {}
        solo: set = set()
        inflight: Dict[_Worker, List[int]] = {}
        results: List[Optional[Outcome]] = [None] * count
        done = 0
        stopped = False

        def _tell(index, outcome, worker, elapsed_s=None, requeued=False) -> None:
            nonlocal stopped
            if on_outcome is not None and on_outcome(
                index, outcome, attempts[index], worker.name, elapsed_s, requeued=requeued
            ):
                stopped = True

        def _land(index, outcome, worker, elapsed_s=None) -> None:
            nonlocal done
            results[index] = outcome
            done += 1
            _tell(index, outcome, worker, elapsed_s)

        def _fill(worker: _Worker) -> None:
            """Keep the worker two specs deep: the one it runs and the next.

            The buffered spec is what removes the round-trip stall: while
            the dispatcher decodes one result, the worker already runs the
            next spec.  Two, not more, so a slow spec holds back at most
            one other while idle workers take the rest of the queue.  A
            crash suspect (``solo``) is only ever sent to a worker with
            *nothing* outstanding, so it is what that worker runs first
            and a second death unambiguously blames it.
            """
            while pending and len(inflight.get(worker, ())) < 2:
                index = pending[0]
                if index in solo and inflight.get(worker):
                    return  # suspects need an idle worker
                pending.popleft()
                if not _dispatch(worker, index):
                    # The worker died before this spec reached it: the
                    # spec goes back unblamed, at the same attempt.
                    pending.appendleft(index)
                    _lose(worker, "crash")
                    return
                inflight.setdefault(worker, []).append(index)

        def _dispatch(worker: _Worker, index: int) -> bool:
            frame = {
                "frame": "spec",
                "index": index,
                "attempt": attempts[index],
                "key": keys[index],
                "spec": specs[index],
                "timeout_s": timeout_s,
                "retries": retries,
            }
            try:
                send_frame(worker.conn, frame)
            except (BrokenPipeError, OSError):
                return False
            if not inflight.get(worker):
                worker.last_beat = time.monotonic()  # the watchdog starts now
            with self._tlock:
                self._counters["dispatches"] += 1
                if worker.dispatches > 0:
                    self._counters["warm_dispatches"] += 1
                self._counters["specs_dispatched"] += 1
            worker.dispatches += 1
            return True

        def _lose(worker: _Worker, reason: str) -> None:
            """A worker died (``crash``) or stopped beating (``hang``).

            Results stream back in dispatch order, so the first
            outstanding spec is what the worker was running: the suspect,
            requeued once and alone, then failed with ``kind=reason``.
            The spec buffered behind it never started and requeues
            unblamed.
            """
            outstanding = inflight.pop(worker, [])
            with self._tlock:
                self._counters["crashes"] += 1
            leased.remove(worker)
            self._discard(worker)
            if outstanding:
                suspect, *buffered = outstanding
                pending.extendleft(buffered)
                crash_counts[suspect] = crash_counts.get(suspect, 0) + 1
                failure = ExperimentFailure(
                    specs[suspect],
                    reason,
                    _LOSS_MESSAGES[reason],
                    attempts=attempts[suspect],
                )
                if crash_counts[suspect] > REQUEUE_LIMIT:
                    _land(suspect, failure, worker)
                else:
                    _tell(suspect, failure, worker, requeued=True)
                    attempts[suspect] += 1
                    solo.add(suspect)
                    pending.appendleft(suspect)
            if (pending or inflight) and not stopped:
                replacement = self._try_checkout()
                if replacement is None and not leased:
                    replacement = self._checkout()
                if replacement is not None:
                    leased.append(replacement)

        def _receive(worker: _Worker, frame: Dict[str, object]) -> None:
            index = frame["index"]
            outstanding = inflight.get(worker, [])
            if index in outstanding:
                outstanding.remove(index)
            if not outstanding:
                inflight.pop(worker, None)
            if frame["status"] == "ok":
                outcome = frame.get("result")
                if isinstance(outcome, ExperimentResult):
                    outcome.spec = specs[index]
            else:
                outcome = ExperimentFailure(
                    specs[index],
                    frame["kind"],
                    frame["message"],
                    attempts=frame["attempts"],
                )
            with self._tlock:
                self._counters["specs_done"] += 1
                self._counters["snapshot_hits"] += frame.get("snap_hits", 0)
                self._counters["snapshot_misses"] += frame.get("snap_misses", 0)
            _land(index, outcome, worker, frame["elapsed_s"])

        def _absorb(worker: _Worker) -> None:
            """Drain every frame the worker has ready; EOF means crash.
            Any frame, result or heartbeat, proves the worker alive."""
            try:
                while not stopped:
                    frame = recv_frame(worker.conn)
                    worker.last_beat = time.monotonic()
                    if frame.get("frame") == "result":
                        _receive(worker, frame)
                    if not worker.conn.poll():
                        return
            except (EOFError, OSError, wire.WireError):
                _lose(worker, "crash")

        from multiprocessing.connection import wait as conn_wait

        try:
            while done < count and not stopped:
                for worker in list(leased):
                    if pending and worker in leased and not stopped:
                        _fill(worker)
                if not inflight:
                    if not pending:
                        break  # unreachable: each spec is pending, in flight or done
                    continue
                ready = conn_wait(
                    [w.conn for w in inflight], timeout=self._heartbeat_s or 1.0
                )
                by_conn = {w.conn: w for w in inflight}
                for conn in ready:
                    worker = by_conn.get(conn)
                    if worker is not None:
                        _absorb(worker)
                if self._hang_timeout_s is not None:
                    now = time.monotonic()
                    for worker in list(inflight):
                        if stopped:
                            break
                        # Frames waiting unread (sent while ``on_outcome``
                        # held this loop) prove the worker alive; the next
                        # pass absorbs them and refreshes ``last_beat``.
                        if now - worker.last_beat > self._hang_timeout_s and not (
                            worker.conn.poll()
                        ):
                            _lose(worker, "hang")
        finally:
            for worker in list(leased):
                if worker in inflight:
                    # Abandoned with work outstanding (stopped, or an
                    # exception above): the worker may still be executing
                    # — do not reuse its pipe.
                    leased.remove(worker)
                    self._discard(worker)
                else:
                    self._checkin(worker)
        return results

    def run_one(
        self,
        spec,
        timeout_s: Optional[float] = None,
        retries: int = 0,
    ) -> Outcome:
        """One spec on one leased worker — how a sweep given a pool runs
        each cell.  Thread-safe against concurrent ``run_one`` calls."""
        return self.run([spec], timeout_s=timeout_s, retries=retries)[0]

    # -- telemetry ---------------------------------------------------------

    def telemetry(self) -> Dict[str, object]:
        with self._tlock:
            snap = dict(self._counters)
        snap["workers"] = self._target
        dispatches = snap["dispatches"]
        snap["specs_per_dispatch"] = (
            snap["specs_dispatched"] / dispatches if dispatches else 0.0
        )
        snap["worker_reuse_rate"] = (
            snap["warm_dispatches"] / dispatches if dispatches else 0.0
        )
        lookups = snap["snapshot_hits"] + snap["snapshot_misses"]
        snap["snapshot_hit_rate"] = snap["snapshot_hits"] / lookups if lookups else 0.0
        return snap


# -- the process-wide shared pool -------------------------------------------

_shared: Optional[WarmPool] = None
_shared_lock = threading.Lock()


def get_pool(workers: int = 0) -> WarmPool:
    """The shared warm pool, created on first use; grows, never shrinks."""
    global _shared
    if workers <= 0:
        workers = os.cpu_count() or 2
    with _shared_lock:
        if _shared is None or _shared.closed:
            _shared = WarmPool(workers)
        else:
            _shared.grow(workers)
        return _shared


def shutdown_shared_pool() -> None:
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown()


# multiprocessing's own exit hook joins leftover children with no timeout.
# The module-level `import multiprocessing` above registers that hook before
# this one, so (LIFO) the stop frames below go out first and the workers are
# already gone when it runs.
atexit.register(shutdown_shared_pool)
